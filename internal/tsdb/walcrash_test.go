package tsdb

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
)

// ---------------------------------------------------------------------------
// Test-local WAL decoder: an independent oracle for what a damaged WAL is
// supposed to recover to. It re-implements the record format — v1 AND v2 —
// from the specs in wal.go/walv2.go/tombstones.go (it shares only the
// constants with the production decoder), applies the same semantics the
// head uses (out-of-order samples are skipped), and stops at the first
// incomplete or corrupt record of each file — everything before the damage
// is the durable prefix. One oracle stands for one shard directory: refs
// are shard-local.
//
// Every harness below runs as a compress={false,true} matrix over the
// journal's ON-DISK format: the head writes v2 only, so the false leg
// rewrites the freshly written journal as v1 files (rewriteWALAsV1,
// walv1_test.go) before damaging it — v1 stays a format the head must
// recover from at any byte, and every such recovery continues in v2.
// ---------------------------------------------------------------------------

type oracleState struct {
	series  map[uint64]string // walRef -> labels key
	lastT   map[string]int64
	samples map[string][]model.Sample
	labels  map[string]labels.Labels
	// ooo switches the oracle to the out-of-order-window head semantics:
	// backwards samples are accepted, the first write at a (series,
	// timestamp) wins, and expected() emits each series sorted by time.
	// The write path never journals two samples at one (series, timestamp)
	// — the duplicate checks run before the WAL record is built — so the
	// dedup map only fires on checkpoint/segment overlap after a crash.
	ooo  bool
	seen map[string]map[int64]bool
}

func newOracle() *oracleState {
	return &oracleState{
		series:  map[uint64]string{},
		lastT:   map[string]int64{},
		samples: map[string][]model.Sample{},
		labels:  map[string]labels.Labels{},
		seen:    map[string]map[int64]bool{},
	}
}

func newOOOOracle() *oracleState {
	o := newOracle()
	o.ooo = true
	return o
}

// oracleGorilla is the oracle's own per-series Gorilla decode state for one
// v2 file; it works on raw value bits rather than floats.
type oracleGorilla struct {
	t        int64
	tDelta   int64
	vbits    uint64
	leading  int
	trailing int
	n        int
}

// oracleBits is an independently-written bit reader: one absolute bit
// cursor over the payload, no byte/offset split like the production reader.
type oracleBits struct {
	data []byte
	pos  int // absolute bit position
}

func (r *oracleBits) bit() (uint64, bool) {
	if r.pos >= 8*len(r.data) {
		return 0, false
	}
	b := (r.data[r.pos/8] >> (7 - r.pos%8)) & 1
	r.pos++
	return uint64(b), true
}

func (r *oracleBits) bits(n int) (uint64, bool) {
	var u uint64
	for i := 0; i < n; i++ {
		b, ok := r.bit()
		if !ok {
			return 0, false
		}
		u = u<<1 | b
	}
	return u, true
}

func (r *oracleBits) uvarint() (uint64, bool) {
	var x uint64
	var s uint
	for {
		b, ok := r.bits(8)
		if !ok || s > 63 {
			return 0, false
		}
		if b < 0x80 {
			return x | b<<s, true
		}
		x |= (b & 0x7f) << s
		s += 7
	}
}

func (r *oracleBits) varint() (int64, bool) {
	u, ok := r.uvarint()
	if !ok {
		return 0, false
	}
	v := int64(u >> 1)
	if u&1 == 1 {
		v = ^v
	}
	return v, true
}

// walRawType maps each compressed (v2-only) record type to the raw type
// whose payload it wraps.
var walRawType = map[byte]byte{
	walRecSeriesV2: walRecSeries, walRecSamplesV2: walRecSamples,
	walRecDeletesV2: walRecDeletes, walRecTombstoneV2: walRecTombstone,
}

// decodeFile applies one WAL file to the oracle, stopping (and reporting
// torn=true) at the first incomplete or CRC-corrupt record. The file's
// format is sniffed from the v2 magic, like the production replayer.
func (o *oracleState) decodeFile(t *testing.T, path string) (torn bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("oracle read %s: %v", path, err)
	}
	off, v2 := 0, false
	var gorilla map[uint64]*oracleGorilla
	if len(data) > 0 && data[0] == 'C' {
		// Possible v2 header.
		if len(data) < 5 || string(data[:4]) != "CWAL" {
			return true // strict prefix of the magic: torn at byte 0
		}
		if data[4] != 2 {
			t.Fatalf("oracle: unknown wal format version %d", data[4])
		}
		off, v2 = 5, true
		gorilla = map[uint64]*oracleGorilla{}
	}
	for off < len(data) {
		if len(data)-off < walHeaderSize {
			return true
		}
		typ := data[off]
		plen := int(binary.LittleEndian.Uint32(data[off+1 : off+5]))
		crc := binary.LittleEndian.Uint32(data[off+5 : off+9])
		raw := typ == walRecSeries || typ == walRecSamples || typ == walRecDeletes || typ == walRecTombstone
		if !(raw || v2 && walRawType[typ] != 0) || plen > walMaxPayload || len(data)-off-walHeaderSize < plen {
			return true
		}
		payload := data[off+walHeaderSize : off+walHeaderSize+plen]
		if crc32.Checksum(payload, walCRC) != crc {
			return true
		}
		switch typ {
		case walRecSeries, walRecSamples, walRecDeletes, walRecTombstone:
			o.apply(t, typ, payload)
		case walRecSeriesV2, walRecDeletesV2, walRecTombstoneV2:
			raw, ok := oracleInflate(t, payload)
			if !ok {
				return true
			}
			o.apply(t, walRawType[typ], raw)
		case walRecSamplesV2:
			if !o.applySamplesV2(payload, gorilla) {
				return true
			}
		}
		off += walHeaderSize + plen
	}
	return false
}

// oracleInflate undoes the v2 block compression (1-byte flag, then raw or
// DEFLATE bytes).
func oracleInflate(t *testing.T, payload []byte) ([]byte, bool) {
	t.Helper()
	if len(payload) == 0 {
		return nil, false
	}
	switch payload[0] {
	case 0:
		return payload[1:], true
	case 1:
		out, err := io.ReadAll(flate.NewReader(bytes.NewReader(payload[1:])))
		if err != nil {
			return nil, false
		}
		return out, true
	default:
		return nil, false
	}
}

// applySamplesV2 decodes one Gorilla samples record with the oracle's own
// reader and applies each sample. Returns false on any decode failure
// (treated as a torn record by the caller).
func (o *oracleState) applySamplesV2(payload []byte, gorilla map[uint64]*oracleGorilla) bool {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return false
	}
	r := &oracleBits{data: payload[n:]}
	lastRef := uint64(0)
	for i := uint64(0); i < count; i++ {
		// Ref delta buckets: 0 -> +1, 10 -> 0, 11 -> zigzag varint.
		b1, ok := r.bit()
		if !ok {
			return false
		}
		ref := lastRef
		if b1 == 0 {
			ref = lastRef + 1
		} else {
			b2, ok := r.bit()
			if !ok {
				return false
			}
			if b2 == 1 {
				zz, ok := r.uvarint()
				if !ok {
					return false
				}
				d := int64(zz >> 1)
				if zz&1 == 1 {
					d = ^d
				}
				ref = uint64(int64(lastRef) + d)
			}
		}
		lastRef = ref
		g := gorilla[ref]
		if g == nil {
			g = &oracleGorilla{leading: -1}
			gorilla[ref] = g
		}
		var tv int64
		var vbits uint64
		switch g.n {
		case 0:
			tv, ok = r.varint()
			if !ok {
				return false
			}
			vbits, ok = r.bits(64)
			if !ok {
				return false
			}
		case 1:
			td, ok2 := r.uvarint()
			if !ok2 {
				return false
			}
			g.tDelta = int64(td)
			tv = g.t + g.tDelta
			vbits, ok = o.readOracleXOR(r, g)
			if !ok {
				return false
			}
		default:
			dod, ok2 := readOracleDOD(r)
			if !ok2 {
				return false
			}
			g.tDelta += dod
			tv = g.t + g.tDelta
			vbits, ok = o.readOracleXOR(r, g)
			if !ok {
				return false
			}
		}
		g.t, g.vbits = tv, vbits
		g.n++
		o.applySample(ref, tv, math.Float64frombits(vbits))
	}
	return true
}

func readOracleDOD(r *oracleBits) (int64, bool) {
	// Read the unary-ish prefix: up to four 1-bits.
	ones := 0
	for ones < 4 {
		b, ok := r.bit()
		if !ok {
			return 0, false
		}
		if b == 0 {
			break
		}
		ones++
	}
	var sz int
	switch ones {
	case 0:
		return 0, true
	case 1:
		sz = 14
	case 2:
		sz = 17
	case 3:
		sz = 20
	case 4:
		u, ok := r.bits(64)
		if !ok {
			return 0, false
		}
		return int64(u), true
	}
	u, ok := r.bits(sz)
	if !ok {
		return 0, false
	}
	if u > 1<<(sz-1) {
		u -= 1 << sz
	}
	return int64(u), true
}

func (o *oracleState) readOracleXOR(r *oracleBits, g *oracleGorilla) (uint64, bool) {
	ctrl, ok := r.bit()
	if !ok {
		return 0, false
	}
	if ctrl == 0 {
		return g.vbits, true
	}
	newWin, ok := r.bit()
	if !ok {
		return 0, false
	}
	if newWin == 1 {
		l, ok := r.bits(5)
		if !ok {
			return 0, false
		}
		sig, ok := r.bits(6)
		if !ok {
			return 0, false
		}
		if sig == 0 {
			sig = 64
		}
		g.leading = int(l)
		g.trailing = 64 - int(l) - int(sig)
	}
	if g.leading < 0 {
		return 0, false // window bits before any window was established
	}
	sigbits := 64 - g.leading - g.trailing
	u, ok := r.bits(sigbits)
	if !ok {
		return 0, false
	}
	return g.vbits ^ (u << g.trailing), true
}

// applySample applies one decoded sample with the head's semantics
// (unknown refs dropped, out-of-order skipped).
func (o *oracleState) applySample(ref uint64, tv int64, v float64) {
	key, ok := o.series[ref]
	if !ok {
		return
	}
	if o.ooo {
		m := o.seen[key]
		if m == nil {
			m = map[int64]bool{}
			o.seen[key] = m
		}
		if m[tv] {
			return // duplicate (checkpoint overlap): first write wins
		}
		m[tv] = true
		o.samples[key] = append(o.samples[key], model.Sample{T: tv, V: v})
		return
	}
	if last, seen := o.lastT[key]; seen && tv <= last {
		return // out-of-order: the head skips these too
	}
	o.lastT[key] = tv
	o.samples[key] = append(o.samples[key], model.Sample{T: tv, V: v})
}

func (o *oracleState) apply(t *testing.T, typ byte, p []byte) {
	t.Helper()
	u := func() uint64 {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			t.Fatal("oracle: bad uvarint in whole record")
		}
		p = p[n:]
		return v
	}
	switch typ {
	case walRecSeries:
		count := u()
		for i := uint64(0); i < count; i++ {
			ref := u()
			nl := u()
			lset := make(labels.Labels, 0, nl)
			for j := uint64(0); j < nl; j++ {
				ln := u()
				name := string(p[:ln])
				p = p[ln:]
				lv := u()
				value := string(p[:lv])
				p = p[lv:]
				lset = append(lset, labels.Label{Name: name, Value: value})
			}
			key := lset.String()
			o.series[ref] = key
			if _, ok := o.labels[key]; !ok {
				o.labels[key] = lset
			}
		}
	case walRecSamples:
		count := u()
		for i := uint64(0); i < count; i++ {
			ref := u()
			tv, n := binary.Varint(p)
			if n <= 0 {
				t.Fatal("oracle: bad varint in whole record")
			}
			p = p[n:]
			v := math.Float64frombits(binary.LittleEndian.Uint64(p[:8]))
			p = p[8:]
			o.applySample(ref, tv, v)
		}
	case walRecDeletes:
		count := u()
		for i := uint64(0); i < count; i++ {
			o.drop(u())
		}
	case walRecTombstone:
		// seq, then matchers as type byte + name + value; every series
		// registered so far that satisfies all of them is gone.
		u() // seq
		str := func() string {
			n := u()
			v := string(p[:n])
			p = p[n:]
			return v
		}
		ms := make([]*labels.Matcher, u())
		for i := range ms {
			typ := labels.MatchType(p[0])
			p = p[1:]
			name := str()
			ms[i] = labels.MustMatcher(typ, name, str())
		}
		for ref, key := range o.series {
			if labels.MatchLabels(o.labels[key], ms...) {
				o.drop(ref)
			}
		}
	}
}

func (o *oracleState) drop(ref uint64) {
	if key, ok := o.series[ref]; ok {
		delete(o.samples, key)
		delete(o.lastT, key)
		delete(o.seen, key)
		delete(o.labels, key)
		delete(o.series, ref)
	}
}

// expected returns the oracle's series sorted by labels, like Select. In
// out-of-order mode each series' samples are additionally sorted by time —
// the head's read path merges its ooo buffer the same way.
func (o *oracleState) expected() []model.Series {
	out := make([]model.Series, 0, len(o.samples))
	for key, smps := range o.samples {
		if o.ooo {
			sort.Slice(smps, func(i, j int) bool { return smps[i].T < smps[j].T })
		}
		out = append(out, model.Series{Labels: o.labels[key], Samples: smps})
	}
	sort.Slice(out, func(i, j int) bool { return labels.Compare(out[i].Labels, out[j].Labels) < 0 })
	return out
}

// ---------------------------------------------------------------------------
// Harness helpers
// ---------------------------------------------------------------------------

func matchAll() *labels.Matcher {
	return labels.MustMatcher(labels.MatchRegexp, labels.MetricName, ".*")
}

func selectAll(t *testing.T, db *DB) []model.Series {
	t.Helper()
	out, err := db.Select(-(int64(1) << 62), int64(1)<<62, matchAll())
	if err != nil {
		t.Fatalf("select all: %v", err)
	}
	return out
}

// crashSeries builds the label set of worker series i.
func crashSeries(i int) labels.Labels {
	return labels.FromStrings(labels.MetricName, "wal_crash_metric",
		"job", "harness", "series", fmt.Sprintf("s%03d", i))
}

// fillWAL appends nBatches scrape-shaped batches of nSeries samples each
// through the batch Appender (the scrape commit path) plus a few direct
// Appends, then closes the head and leaves the journal in format v2
// (compress) or rewritten as v1. Returns the final in-memory contents.
func fillWAL(t *testing.T, dir string, shards, nSeries, nBatches int, segSize int64, compress bool) []model.Series {
	t.Helper()
	db, err := Open(Options{Shards: shards, WALDir: dir, WALSegmentSize: segSize})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	rng := rand.New(rand.NewSource(0xCEE5))
	for b := 0; b < nBatches; b++ {
		app := db.Appender()
		for s := 0; s < nSeries; s++ {
			app.Add(crashSeries(s), int64(b)*1000+int64(s), rng.Float64()*100)
		}
		if _, err := app.Commit(); err != nil {
			t.Fatalf("commit batch %d: %v", b, err)
		}
	}
	// A couple of direct Appends: the non-batch write path must journal too.
	direct := labels.FromStrings(labels.MetricName, "wal_crash_direct", "job", "harness")
	for i := 0; i < 10; i++ {
		if err := db.Append(direct, int64(nBatches)*1000+int64(i), float64(i)); err != nil {
			t.Fatalf("direct append: %v", err)
		}
	}
	full := selectAll(t, db)
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if !compress {
		rewriteWALAsV1(t, dir, segSize)
	}
	return full
}

// walFiles lists every WAL file of every shard in replay order:
// per shard directory (sorted), checkpoint first, then segments ascending.
func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	shardDirs, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(shardDirs)
	var out []string
	for _, sd := range shardDirs {
		if cp := filepath.Join(sd, walCheckpointFile); fileExistsT(cp) {
			out = append(out, cp)
		}
		segs, _ := filepath.Glob(filepath.Join(sd, "*.wal"))
		sort.Strings(segs)
		out = append(out, segs...)
	}
	return out
}

func fileExistsT(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy %s -> %s: %v", src, dst, err)
	}
}

func assertSeriesEqual(t *testing.T, got, want []model.Series, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d series, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !got[i].Labels.Equal(want[i].Labels) {
			t.Fatalf("%s: series %d labels %s != %s", what, i, got[i].Labels, want[i].Labels)
		}
		if !reflect.DeepEqual(got[i].Samples, want[i].Samples) {
			t.Fatalf("%s: series %s: %d samples vs %d, or values diverge",
				what, got[i].Labels, len(got[i].Samples), len(want[i].Samples))
		}
	}
}

// assertPrefix checks every recovered series' samples are a prefix of the
// full series — recovery may lose an un-synced tail, never reorder or
// invent.
func assertPrefix(t *testing.T, got, full []model.Series, what string) {
	t.Helper()
	byKey := map[string][]model.Sample{}
	for _, s := range full {
		byKey[s.Labels.String()] = s.Samples
	}
	for _, s := range got {
		fullSamples, ok := byKey[s.Labels.String()]
		if !ok {
			t.Fatalf("%s: recovered unknown series %s", what, s.Labels)
		}
		if len(s.Samples) > len(fullSamples) {
			t.Fatalf("%s: series %s recovered %d samples, more than the %d ever written",
				what, s.Labels, len(s.Samples), len(fullSamples))
		}
		if !reflect.DeepEqual(s.Samples, fullSamples[:len(s.Samples)]) {
			t.Fatalf("%s: series %s: recovered samples are not a prefix of the written ones", what, s.Labels)
		}
	}
}

// ---------------------------------------------------------------------------
// Kill-at-any-byte crash recovery
// ---------------------------------------------------------------------------

// TestWALCrashRecoveryAtRandomOffsets is the property test at the core of
// this suite: write a WAL, hard-stop it at an arbitrary byte offset
// (truncate the file mid-record, drop everything after — exactly what a
// crash before the tail reached disk looks like), reopen, and require the
// recovered head to be sample-identical to an independent decoder replaying
// the same durable prefix. The head must also keep working: appends after
// recovery, and a second clean reopen, must see consistent data. The whole
// property runs in both formats: a cut mid-way through a v2 compressed
// block must truncate to the last whole record exactly like v1.
func TestWALCrashRecoveryAtRandomOffsets(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			baseDir := t.TempDir()
			full := fillWAL(t, filepath.Join(baseDir, "wal"), 1, 8, 60, 2048, compress)

			files := walFiles(t, filepath.Join(baseDir, "wal"))
			if len(files) < 3 {
				t.Fatalf("expected multiple segments (rotation), got %d files", len(files))
			}
			var total int64
			sizes := make([]int64, len(files))
			for i, f := range files {
				st, err := os.Stat(f)
				if err != nil {
					t.Fatal(err)
				}
				sizes[i] = st.Size()
				total += st.Size()
			}

			rng := rand.New(rand.NewSource(0xBADC0FFE))
			trials := 25
			if testing.Short() {
				trials = 6
			}
			for trial := 0; trial < trials; trial++ {
				offset := rng.Int63n(total + 1) // total itself = clean shutdown
				t.Run(fmt.Sprintf("offset=%d", offset), func(t *testing.T) {
					scratch := t.TempDir()
					crashed := filepath.Join(scratch, "wal")
					copyDir(t, filepath.Join(baseDir, "wal"), crashed)

					// Hard-stop: truncate the file holding the offset, delete every
					// later file (those bytes were never written).
					cut := offset
					crashedFiles := walFiles(t, crashed)
					for i, f := range crashedFiles {
						if cut > sizes[i] {
							cut -= sizes[i]
							continue
						}
						if err := os.Truncate(f, cut); err != nil {
							t.Fatal(err)
						}
						for _, later := range crashedFiles[i+1:] {
							if err := os.Remove(later); err != nil {
								t.Fatal(err)
							}
						}
						break
					}

					// Oracle: decode the damaged prefix independently.
					oracle := newOracle()
					for _, f := range walFiles(t, crashed) {
						if oracle.decodeFile(t, f) {
							break // torn: nothing after this file survives
						}
					}
					want := oracle.expected()

					db, err := Open(Options{Shards: 1, WALDir: crashed, WALSegmentSize: 2048})
					if err != nil {
						t.Fatalf("reopen after crash at %d: %v", offset, err)
					}
					assertSeriesEqual(t, selectAll(t, db), want, "recovered head vs oracle")
					assertPrefix(t, selectAll(t, db), full, "recovered head vs full history")

					// The repaired head must accept new writes and survive a second
					// reopen without losing them.
					post := labels.FromStrings(labels.MetricName, "wal_post_crash", "trial", fmt.Sprint(trial))
					if err := db.Append(post, 1<<50, 42); err != nil {
						t.Fatalf("append after recovery: %v", err)
					}
					afterAppend := selectAll(t, db)
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					db2, err := Open(Options{Shards: 1, WALDir: crashed, WALSegmentSize: 2048})
					if err != nil {
						t.Fatalf("second reopen: %v", err)
					}
					assertSeriesEqual(t, selectAll(t, db2), afterAppend, "second reopen")
					if err := db2.Close(); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// TestWALCrashRecoveryShardedPrefix runs the crash on a 16-shard head:
// damage to one shard's journal must cost at most that shard's un-synced
// tail — every recovered series is a prefix of what was written, and series
// of undamaged shards are complete.
func TestWALCrashRecoveryShardedPrefix(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			testWALCrashRecoveryShardedPrefix(t, compress)
		})
	}
}

func testWALCrashRecoveryShardedPrefix(t *testing.T, compress bool) {
	baseDir := t.TempDir()
	walDir := filepath.Join(baseDir, "wal")
	full := fillWAL(t, walDir, 16, 64, 30, 1024, compress)

	rng := rand.New(rand.NewSource(42))
	trials := 10
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			scratch := t.TempDir()
			crashed := filepath.Join(scratch, "wal")
			copyDir(t, walDir, crashed)

			// Damage one random shard: truncate one of its files mid-record
			// and drop that shard's later segments.
			shardDirs, _ := filepath.Glob(filepath.Join(crashed, "shard-*"))
			sort.Strings(shardDirs)
			victim := shardDirs[rng.Intn(len(shardDirs))]
			segs, _ := filepath.Glob(filepath.Join(victim, "*.wal"))
			sort.Strings(segs)
			if len(segs) == 0 {
				t.Skip("victim shard has no segments")
			}
			vi := rng.Intn(len(segs))
			st, err := os.Stat(segs[vi])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(segs[vi], rng.Int63n(st.Size()+1)); err != nil {
				t.Fatal(err)
			}
			for _, later := range segs[vi+1:] {
				if err := os.Remove(later); err != nil {
					t.Fatal(err)
				}
			}

			db, err := Open(Options{Shards: 16, WALDir: crashed, WALSegmentSize: 1024})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db.Close()
			got := selectAll(t, db)
			assertPrefix(t, got, full, "sharded crash")

			// All series outside the damaged shard must be complete.
			fullByKey := map[string][]model.Sample{}
			for _, s := range full {
				fullByKey[s.Labels.String()] = s.Samples
			}
			victimIdx := shardDirIndex(victim)
			complete := 0
			for _, s := range got {
				if int(s.Labels.Hash()&db.mask) == victimIdx {
					continue
				}
				if len(s.Samples) != len(fullByKey[s.Labels.String()]) {
					t.Fatalf("series %s outside damaged shard %d lost samples: %d vs %d",
						s.Labels, victimIdx, len(s.Samples), len(fullByKey[s.Labels.String()]))
				}
				complete++
			}
			if complete == 0 {
				t.Fatal("no undamaged-shard series found; test setup is wrong")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Bit-flip corruption
// ---------------------------------------------------------------------------

// TestWALCorruptRecordCRC flips one payload byte of a record in the middle
// of the journal. Recovery must keep every record before the corrupt one,
// drop the rest, and repair the file so the next open replays cleanly. In
// v2 mode the flipped byte lands inside a compressed payload — the CRC
// must catch it before any decompression or Gorilla decode runs.
func TestWALCorruptRecordCRC(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			testWALCorruptRecordCRC(t, compress)
		})
	}
}

func testWALCorruptRecordCRC(t *testing.T, compress bool) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	// One big segment so the corrupt record has whole records after it.
	fillWAL(t, walDir, 1, 4, 40, 1<<20, compress)

	files := walFiles(t, walDir)
	if len(files) != 1 {
		t.Fatalf("want a single segment, got %d files", len(files))
	}
	seg := files[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// Walk the record stream to find each record's payload bounds.
	hdr := 0
	if compress {
		hdr = walFileHeaderLen
	}
	type recBounds struct{ payloadStart, payloadLen int }
	var recs []recBounds
	for off := hdr; off+walHeaderSize <= len(data); {
		plen := int(binary.LittleEndian.Uint32(data[off+1 : off+5]))
		recs = append(recs, recBounds{off + walHeaderSize, plen})
		off += walHeaderSize + plen
	}
	if len(recs) < 10 {
		t.Fatalf("want a deep record stream, got %d records", len(recs))
	}
	victim := recs[len(recs)/2]
	data[victim.payloadStart+victim.payloadLen/2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	oracle := newOracle()
	if !oracle.decodeFile(t, seg) {
		t.Fatal("oracle did not detect the flipped CRC")
	}
	want := oracle.expected()
	if len(want) == 0 {
		t.Fatal("oracle recovered nothing; corruption landed too early for a meaningful test")
	}

	db, err := Open(Options{Shards: 1, WALDir: walDir, WALSegmentSize: 1 << 20})
	if err != nil {
		t.Fatalf("reopen over corrupt record: %v", err)
	}
	assertSeriesEqual(t, selectAll(t, db), want, "corrupt-CRC recovery")
	ws, ok := db.WALStats()
	if !ok || ws.Replay.TornRepairs != 1 {
		t.Fatalf("want exactly 1 torn-tail repair reported, got %+v ok=%v", ws.Replay, ok)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The repair must be idempotent: a second open finds a clean journal.
	db2, err := Open(Options{Shards: 1, WALDir: walDir, WALSegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	assertSeriesEqual(t, selectAll(t, db2), want, "reopen after repair")
	ws2, _ := db2.WALStats()
	if ws2.Replay.TornRepairs != 0 {
		t.Fatalf("second open still repairing: %+v", ws2.Replay)
	}
}

// TestWALCorruptSegmentDropsLaterSegments: a CRC failure mid-chain ends the
// shard's recovery there — later segments are causally past the damage and
// must be removed, so a second open cannot resurrect records the first
// recovery declared dead.
func TestWALCorruptSegmentDropsLaterSegments(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			testWALCorruptSegmentDropsLaterSegments(t, compress)
		})
	}
}

func testWALCorruptSegmentDropsLaterSegments(t *testing.T, compress bool) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	fillWAL(t, walDir, 1, 8, 60, 2048, compress) // small segments: several files

	segs, _ := filepath.Glob(filepath.Join(walDir, "shard-0000", "*.wal"))
	sort.Strings(segs)
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(segs))
	}
	// Flip a byte early in the middle segment's first record payload.
	mid := segs[len(segs)/2]
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	hdr := 0
	if compress {
		hdr = walFileHeaderLen
	}
	data[hdr+walHeaderSize+2] ^= 0x01
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}

	oracle := newOracle()
	for _, f := range walFiles(t, walDir) {
		if oracle.decodeFile(t, f) {
			break
		}
	}
	db, err := Open(Options{Shards: 1, WALDir: walDir, WALSegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	assertSeriesEqual(t, selectAll(t, db), oracle.expected(), "mid-chain corruption")
	for _, later := range segs[len(segs)/2+1:] {
		if fileExistsT(later) {
			t.Fatalf("segment %s past the corruption survived recovery", later)
		}
	}
}

// TestWALCorruptCheckpointKeepsSegments: a damaged checkpoint costs only the
// checkpoint's lost tail — the intact segments journalled after it must
// still replay, not be deleted alongside it.
func TestWALCorruptCheckpointKeepsSegments(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			testWALCorruptCheckpointKeepsSegments(t, compress)
		})
	}
}

func testWALCorruptCheckpointKeepsSegments(t *testing.T, compress bool) {
	walDir := filepath.Join(t.TempDir(), "wal")
	db, err := Open(Options{Shards: 1, WALDir: walDir, WALSegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1 -> checkpoint, phase 2 -> segments after the checkpoint.
	ls := labels.FromStrings(labels.MetricName, "wal_ckpt_corrupt", "inst", "a")
	for i := int64(0); i < 50; i++ {
		if err := db.Append(ls, i*1000, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	for i := int64(50); i < 100; i++ {
		if err := db.Append(ls, i*1000, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if !compress {
		rewriteWALAsV1(t, walDir, 1<<20)
	}

	// Corrupt the checkpoint's final bytes (its "tail").
	cp := filepath.Join(walDir, "shard-0000", walCheckpointFile)
	data, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-4] ^= 0xFF
	if err := os.WriteFile(cp, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Shards: 1, WALDir: walDir, WALSegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ws, _ := re.WALStats()
	if ws.Replay.TornRepairs != 1 {
		t.Fatalf("want 1 torn repair (the checkpoint), got %+v", ws.Replay)
	}
	got := selectAll(t, re)
	// The checkpoint's samples record was damaged, but the series
	// registration and the post-checkpoint segments survive: samples
	// 50..99 must all be present.
	if len(got) != 1 {
		t.Fatalf("got %d series, want 1", len(got))
	}
	samples := got[0].Samples
	if len(samples) < 50 {
		t.Fatalf("post-checkpoint segments were lost with the checkpoint: %d samples recovered", len(samples))
	}
	if last := samples[len(samples)-1]; last.T != 99_000 {
		t.Fatalf("latest acknowledged sample missing: last t=%d, want 99000", last.T)
	}
}

// TestWALRebuildCrashLeftovers: older builds re-laid a journal out when it
// was reopened with another shard count, and a crash mid-way left either an
// unpublished staging dir or a published rebuild dir. The first is garbage
// and is removed; the second holds the only complete journal, so Open
// refuses the directory, names it, and changes nothing. A journal that lost
// its meta reopens with the count its shard directories imply.
func TestWALRebuildCrashLeftovers(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	db, err := Open(Options{Shards: 4, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	replayFill(t, db, 20, 10)
	live := selectAll(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Unpublished staging dir: must be ignored and removed.
	tmpRoot := filepath.Join(walDir, walRebuildTmp)
	if err := os.MkdirAll(filepath.Join(tmpRoot, "shard-0000"), 0o755); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Shards: 4, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	assertSeriesEqual(t, selectAll(t, re), live, "open over stale rebuild.tmp")
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if fileExistsT(tmpRoot) {
		t.Fatal("stale rebuild.tmp survived open")
	}

	// Published rebuild dir, as a crash right after the publish rename of a
	// 4->2 rebuild left it: Open refuses and moves nothing.
	rebuilt := filepath.Join(walDir, walRebuildDir)
	copyDir(t, filepath.Join(walDir, "shard-0000"), filepath.Join(rebuilt, "shard-0000"))
	if err := os.WriteFile(filepath.Join(rebuilt, walMetaFile), []byte(`{"version":1,"shards":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	tree := dirTree(t, walDir)
	if re, err := Open(Options{Shards: 2, WALDir: walDir}); err == nil {
		re.Close()
		t.Fatal("Open over a published rebuild dir succeeded")
	} else if !strings.Contains(err.Error(), rebuilt) {
		t.Fatalf("Open over a published rebuild dir failed with %q, which does not name %s", err, rebuilt)
	}
	if !reflect.DeepEqual(dirTree(t, walDir), tree) {
		t.Fatal("refused Open changed the WAL directory")
	}
	if err := os.RemoveAll(rebuilt); err != nil {
		t.Fatal(err)
	}

	// Meta lost: the four shard directories give the count back.
	if err := os.Remove(filepath.Join(walDir, walMetaFile)); err != nil {
		t.Fatal(err)
	}
	re, err = Open(Options{Shards: 16, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := re.NumShards(); n != 4 {
		t.Fatalf("meta-less 4-shard journal reopened with %d shards", n)
	}
	assertSeriesEqual(t, selectAll(t, re), live, "open without wal-meta.json")
}

// dirTree maps every file and directory under root, by path relative to it,
// to its contents (directories map to "/").
func dirTree(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			out[rel] = "/"
			return nil
		}
		data, err := os.ReadFile(path)
		out[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// ---------------------------------------------------------------------------
// Checkpoint durability
// ---------------------------------------------------------------------------

// TestWALCheckpointNeverLosesAcknowledgedWrites exercises the
// Truncate-triggered checkpoint: after a checkpoint (fsynced snapshot, old
// segments dropped) and more appends, a reopen must reconstruct exactly the
// live head — nothing acknowledged before the close may be missing.
func TestWALCheckpointNeverLosesAcknowledgedWrites(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			testWALCheckpointNeverLosesAcknowledgedWrites(t, compress)
		})
	}
}

func testWALCheckpointNeverLosesAcknowledgedWrites(t *testing.T, compress bool) {
	walDir := filepath.Join(t.TempDir(), "wal")
	// A segment limit small enough that the journal rotates several times
	// before the checkpoint.
	const segSize = 256
	db, err := Open(Options{Shards: 4, WALDir: walDir, WALSegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	appendBatch := func(b int) {
		app := db.Appender()
		for s := 0; s < 16; s++ {
			app.Add(crashSeries(s), int64(b)*1000+int64(s), float64(b*s))
		}
		if _, err := app.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for b := 0; b < 30; b++ {
		appendBatch(b)
	}
	countSegs := func() int {
		segs, err := filepath.Glob(filepath.Join(walDir, "shard-*", "*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return len(segs)
	}
	before := countSegs()
	if before <= 4 {
		t.Fatalf("test setup: want rotation before checkpoint, got %d segments", before)
	}
	// Prunes old chunks AND checkpoints every shard.
	if _, err := db.Truncate(15_000); err != nil {
		t.Fatalf("checkpoint failed: %v", err)
	}
	// Every shard drops its history into the snapshot and keeps exactly one
	// fresh segment.
	if after := countSegs(); after != 4 {
		t.Fatalf("checkpoint did not bound the WAL: %d segments before, %d after (want 4)", before, after)
	}
	ws, _ := db.WALStats()
	if ws.Checkpoints != 4 {
		t.Fatalf("want 4 shard checkpoints, got %d", ws.Checkpoints)
	}
	for b := 30; b < 40; b++ {
		appendBatch(b)
	}
	live := selectAll(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if !compress {
		rewriteWALAsV1(t, walDir, 4*segSize) // v1 spends ~4x the bytes per commit
	}

	re, err := Open(Options{Shards: 4, WALDir: walDir, WALSegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSeriesEqual(t, selectAll(t, re), live, "reopen after checkpoint")
}

// TestWALDeleteSeriesDurable: DeleteSeries journals tombstones (block-
// compressed in v2), so a reopened head must not resurrect deleted series.
func TestWALDeleteSeriesDurable(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			testWALDeleteSeriesDurable(t, compress)
		})
	}
}

func testWALDeleteSeriesDurable(t *testing.T, compress bool) {
	walDir := filepath.Join(t.TempDir(), "wal")
	db, err := Open(Options{Shards: 2, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		for i := int64(0); i < 20; i++ {
			if err := db.Append(crashSeries(s), i*500, float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	n := db.DeleteSeries(labels.MustMatcher(labels.MatchRegexp, "series", "s00[0-3]"))
	if n != 4 {
		t.Fatalf("deleted %d series, want 4", n)
	}
	if err := db.WALErr(); err != nil {
		t.Fatalf("tombstone write failed: %v", err)
	}
	live := selectAll(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if !compress {
		rewriteWALAsV1(t, walDir, 0)
	}
	re, err := Open(Options{Shards: 2, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := selectAll(t, re)
	assertSeriesEqual(t, got, live, "reopen after delete")
	for _, s := range got {
		if v := s.Labels.Get("series"); v == "s000" || v == "s001" || v == "s002" || v == "s003" {
			t.Fatalf("deleted series %s resurrected by replay", s.Labels)
		}
	}
}

// ---------------------------------------------------------------------------
// Out-of-order window crash harness
// ---------------------------------------------------------------------------

// fillWALOOO drives a head with OutOfOrderWindow set through a
// remote-write-shaped workload: batch commits where roughly a third of the
// samples land backwards (inside the window), plus resends of earlier
// timestamps that must dedup. Returns the final in-memory contents.
func fillWALOOO(t *testing.T, dir string, window int64, nSeries, nBatches int, segSize int64, compress bool) []model.Series {
	t.Helper()
	db, err := Open(Options{
		Shards: 1, WALDir: dir, WALSegmentSize: segSize,
		OutOfOrderWindow: window,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	rng := rand.New(rand.NewSource(0x00CAFE))
	base := int64(1_000_000)
	for b := 0; b < nBatches; b++ {
		app := db.Appender()
		for s := 0; s < nSeries; s++ {
			ts := base + int64(b)*1000 + int64(s)
			if b > 2 {
				switch rng.Intn(3) {
				case 0:
					// Backwards inside the window.
					ts -= int64(rng.Intn(int(window / 2)))
				case 1:
					// Resend of an earlier batch's exact timestamp
					// (duplicate; must not journal a second copy).
					ts = base + int64(b-1-rng.Intn(2))*1000 + int64(s)
				}
			}
			app.Add(crashSeries(s), ts, rng.Float64()*100)
		}
		if _, err := app.Commit(); err != nil {
			t.Fatalf("commit batch %d: %v", b, err)
		}
	}
	full := selectAll(t, db)
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if !compress {
		rewriteWALAsV1(t, dir, segSize)
	}
	return full
}

// TestWALOOOCrashRecoveryAtRandomOffsets is the kill-at-any-byte property
// for the out-of-order window: journals holding accepted backwards samples
// must replay byte-exact against the independent oracle in both formats —
// v1 (varint timestamps) and v2 (Gorilla, whose delta encoding must
// round-trip negative deltas losslessly).
func TestWALOOOCrashRecoveryAtRandomOffsets(t *testing.T) {
	const window = int64(30_000)
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			baseDir := t.TempDir()
			full := fillWALOOO(t, filepath.Join(baseDir, "wal"), window, 6, 200, 2048, compress)

			files := walFiles(t, filepath.Join(baseDir, "wal"))
			if len(files) < 3 {
				t.Fatalf("expected multiple segments (rotation), got %d files", len(files))
			}
			var total int64
			sizes := make([]int64, len(files))
			for i, f := range files {
				st, err := os.Stat(f)
				if err != nil {
					t.Fatal(err)
				}
				sizes[i] = st.Size()
				total += st.Size()
			}

			rng := rand.New(rand.NewSource(0xFADEBEE))
			trials := 25
			if testing.Short() {
				trials = 6
			}
			for trial := 0; trial < trials; trial++ {
				offset := rng.Int63n(total + 1) // total itself = clean shutdown
				t.Run(fmt.Sprintf("offset=%d", offset), func(t *testing.T) {
					scratch := t.TempDir()
					crashed := filepath.Join(scratch, "wal")
					copyDir(t, filepath.Join(baseDir, "wal"), crashed)

					cut := offset
					crashedFiles := walFiles(t, crashed)
					for i, f := range crashedFiles {
						if cut > sizes[i] {
							cut -= sizes[i]
							continue
						}
						if err := os.Truncate(f, cut); err != nil {
							t.Fatal(err)
						}
						for _, later := range crashedFiles[i+1:] {
							if err := os.Remove(later); err != nil {
								t.Fatal(err)
							}
						}
						break
					}

					oracle := newOOOOracle()
					for _, f := range walFiles(t, crashed) {
						if oracle.decodeFile(t, f) {
							break // torn: nothing after this file survives
						}
					}
					want := oracle.expected()

					db, err := Open(Options{
						Shards: 1, WALDir: crashed, WALSegmentSize: 2048,
						OutOfOrderWindow: window,
					})
					if err != nil {
						t.Fatalf("reopen after crash at %d: %v", offset, err)
					}
					got := selectAll(t, db)
					assertSeriesEqual(t, got, want, "recovered ooo head vs oracle")
					// Every recovered sample must exist in the full history
					// with the same value (crash loses suffixes, never
					// invents or reorders data).
					fullByKey := map[string]map[int64]float64{}
					for _, s := range full {
						m := map[int64]float64{}
						for _, smp := range s.Samples {
							m[smp.T] = smp.V
						}
						fullByKey[s.Labels.String()] = m
					}
					for _, s := range got {
						m := fullByKey[s.Labels.String()]
						if m == nil {
							t.Fatalf("recovered unknown series %s", s.Labels)
						}
						for _, smp := range s.Samples {
							if v, ok := m[smp.T]; !ok || v != smp.V {
								t.Fatalf("recovered sample %s t=%d v=%g not in full history",
									s.Labels, smp.T, smp.V)
							}
						}
					}

					// The repaired head must keep accepting writes — in
					// order and backwards — and survive a second reopen.
					post := crashSeries(0)
					if err := db.Append(post, 1<<50, 42); err != nil {
						t.Fatalf("append after recovery: %v", err)
					}
					if err := db.Append(post, 1<<50-5, 43); err != nil {
						t.Fatalf("ooo append after recovery: %v", err)
					}
					afterAppend := selectAll(t, db)
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					db2, err := Open(Options{
						Shards: 1, WALDir: crashed, WALSegmentSize: 2048,
						OutOfOrderWindow: window,
					})
					if err != nil {
						t.Fatalf("second reopen: %v", err)
					}
					assertSeriesEqual(t, selectAll(t, db2), afterAppend, "second reopen")
					if err := db2.Close(); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}
