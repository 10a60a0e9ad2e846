package tsdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
)

// staleNaN is the Prometheus staleness marker bit pattern: a NaN payload the
// scrape pipeline appends when a target disappears. The codec must round-trip
// it bit-exactly — value semantics (NaN != NaN) cannot be used for floats in
// a journal.
const staleNaN = 0x7ff0000000000002

// ---------------------------------------------------------------------------
// Codec property test
// ---------------------------------------------------------------------------

// TestWALGorillaCodecLosslessProperty drives the v2 samples codec with
// randomized streams shaped like everything the head can journal: steady
// scrape cadences, jittered and irregular timestamps, gauges (random walks),
// counters with resets, constants, NaN/staleness markers, infinities and
// denormals — interleaved across series in random order (per-series order
// preserved, as the WAL mutex guarantees) and split into random record
// boundaries. Decoding with a fresh walV2Dec must reproduce every (ref, t,
// value-bits) triple exactly.
func TestWALGorillaCodecLosslessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x60411A))
	rounds := 50
	if testing.Short() {
		rounds = 10
	}
	for round := 0; round < rounds; round++ {
		nSeries := 1 + rng.Intn(8)
		type seriesGen struct {
			ref     uint64
			t       int64
			tDelta  func() int64
			v       float64
			nextV   func(prev float64) float64
			pending int
		}
		gens := make([]*seriesGen, nSeries)
		usedRefs := map[uint64]bool{}
		for i := range gens {
			// Sparse, non-contiguous refs exercise the zigzag ref deltas.
			ref := uint64(1 + rng.Intn(1000))
			for usedRefs[ref] {
				ref++
			}
			usedRefs[ref] = true
			g := &seriesGen{
				ref:     ref,
				t:       int64(rng.Intn(1_000_000)) - 500_000,
				pending: 1 + rng.Intn(200),
			}
			switch rng.Intn(3) {
			case 0: // steady scrape cadence
				g.tDelta = func() int64 { return 15_000 }
			case 1: // jittered cadence
				g.tDelta = func() int64 { return 14_000 + rng.Int63n(2000) }
			default: // irregular, with occasional huge gaps
				g.tDelta = func() int64 {
					if rng.Intn(10) == 0 {
						return rng.Int63n(1 << 40)
					}
					return 1 + rng.Int63n(60_000)
				}
			}
			switch rng.Intn(4) {
			case 0: // gauge: random walk
				g.v = rng.Float64() * 100
				g.nextV = func(prev float64) float64 { return prev + rng.NormFloat64() }
			case 1: // counter with resets
				g.v = 0
				g.nextV = func(prev float64) float64 {
					if rng.Intn(20) == 0 {
						return 0 // counter reset
					}
					return prev + float64(rng.Intn(1000))
				}
			case 2: // constant (dod=0, XOR=0 fast paths)
				g.v = 42.5
				g.nextV = func(prev float64) float64 { return prev }
			default: // adversarial bit patterns
				g.v = math.Float64frombits(staleNaN)
				g.nextV = func(prev float64) float64 {
					switch rng.Intn(6) {
					case 0:
						return math.Float64frombits(staleNaN)
					case 1:
						return math.NaN()
					case 2:
						return math.Inf(1)
					case 3:
						return math.Inf(-1)
					case 4:
						return math.Float64frombits(uint64(rng.Int63())) // arbitrary bits
					default:
						return math.Float64frombits(1) // smallest denormal
					}
				}
			}
			gens[i] = g
		}

		// Interleave the series into a single stream of records with random
		// boundaries, preserving per-series timestamp order.
		var stream []walSampleRec
		for {
			live := gens[:0:0]
			for _, g := range gens {
				if g.pending > 0 {
					live = append(live, g)
				}
			}
			if len(live) == 0 {
				break
			}
			g := live[rng.Intn(len(live))]
			stream = append(stream, walSampleRec{ref: g.ref, t: g.t, v: g.v})
			g.t += g.tDelta()
			g.v = g.nextV(g.v)
			g.pending--
		}

		enc := newWalV2Enc()
		dec := newWalV2Dec()
		var decoded []walSampleRec
		for off := 0; off < len(stream); {
			n := 1 + rng.Intn(50)
			if off+n > len(stream) {
				n = len(stream) - off
			}
			payload := enc.appendSamples(nil, stream[off:off+n])
			var err error
			decoded, err = dec.decodeSamples(decoded, payload)
			if err != nil {
				t.Fatalf("round %d: decode failed at offset %d: %v", round, off, err)
			}
			off += n
		}
		if len(decoded) != len(stream) {
			t.Fatalf("round %d: decoded %d samples, want %d", round, len(decoded), len(stream))
		}
		for i := range stream {
			want, got := stream[i], decoded[i]
			if got.ref != want.ref || got.t != want.t || math.Float64bits(got.v) != math.Float64bits(want.v) {
				t.Fatalf("round %d: sample %d diverged: got (ref=%d t=%d v=%x) want (ref=%d t=%d v=%x)",
					round, i, got.ref, got.t, math.Float64bits(got.v),
					want.ref, want.t, math.Float64bits(want.v))
			}
		}
	}
}

// TestWALCompressedPayloadRoundTrip covers the block codec used for series
// and tombstone records, including the incompressible-payload raw fallback.
func TestWALCompressedPayloadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := [][]byte{
		{},
		[]byte("a"),
		bytes.Repeat([]byte("label_name=label_value;"), 200), // highly compressible
	}
	random := make([]byte, 1024) // incompressible: flate would grow it
	rng.Read(random)
	cases = append(cases, random)
	for i, raw := range cases {
		payload := appendCompressed(nil, raw)
		got, err := walDecompress(payload)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("case %d: round trip diverged: %d bytes vs %d", i, len(got), len(raw))
		}
	}
	if _, err := walDecompress(nil); err == nil {
		t.Fatal("empty compressed payload must error")
	}
	if _, err := walDecompress([]byte{9, 1, 2}); err == nil {
		t.Fatal("unknown compression flag must error")
	}
}

// TestWALSniffVersion pins the header detection contract: v1 files (no
// magic) and empty files sniff as v1, magic prefixes are torn, unknown
// versions are errors (never silent truncation).
func TestWALSniffVersion(t *testing.T) {
	cases := []struct {
		name    string
		data    []byte
		version int
		hdrLen  int
		torn    bool
		wantErr bool
	}{
		{name: "empty", data: nil, version: walFormatV1},
		{name: "v1-record-start", data: []byte{walRecSeries, 0, 0, 0, 0}, version: walFormatV1},
		{name: "magic-prefix-1", data: []byte{'C'}, version: walFormatV2, torn: true},
		{name: "magic-prefix-3", data: []byte("CWA"), version: walFormatV2, torn: true},
		{name: "magic-no-version", data: []byte("CWAL"), version: walFormatV2, torn: true},
		{name: "v2", data: []byte{'C', 'W', 'A', 'L', 2, 1, 2, 3}, version: walFormatV2, hdrLen: walFileHeaderLen},
		{name: "future-version", data: []byte{'C', 'W', 'A', 'L', 3}, wantErr: true},
		{name: "not-magic", data: []byte("CWAX"), version: walFormatV1},
	}
	for _, tc := range cases {
		version, hdrLen, torn, err := walSniffVersion(tc.data)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: want error, got version=%d", tc.name, version)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
			continue
		}
		if version != tc.version || hdrLen != tc.hdrLen || torn != tc.torn {
			t.Errorf("%s: got (version=%d hdrLen=%d torn=%v), want (%d %d %v)",
				tc.name, version, hdrLen, torn, tc.version, tc.hdrLen, tc.torn)
		}
	}
}

// ---------------------------------------------------------------------------
// Mixed-version directories and migration
// ---------------------------------------------------------------------------

// walPhaseFill appends a deterministic scrape-shaped phase of batches to the
// head; phase offsets keep timestamps strictly increasing across phases.
func walPhaseFill(t *testing.T, db *DB, phase, nSeries, nBatches int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(phase)))
	for b := 0; b < nBatches; b++ {
		app := db.Appender()
		ts := int64(phase)*1_000_000 + int64(b)*15_000
		for s := 0; s < nSeries; s++ {
			app.Add(crashSeries(s), ts+int64(s), 100+rng.NormFloat64()*5)
		}
		if _, err := app.Commit(); err != nil {
			t.Fatalf("phase %d commit %d: %v", phase, b, err)
		}
	}
}

// TestWALMixedVersionReplay takes a journal the v1 writer left behind (the
// committed fixture: v1 checkpoints and v1 segments), keeps appending to it
// — which adds v2 segments to the same shard directories — and requires
// replay of the mix to reconstruct exactly the head that a pure v2 journal
// of the same history reconstructs.
func TestWALMixedVersionReplay(t *testing.T) {
	const nSeries, nBatches = 24, 40
	golden, _ := walV1Golden(t)
	db, mixedDir := openWALV1Fixture(t, 4096)
	assertSeriesEqual(t, selectAll(t, db), golden, "v1 fixture replay")
	walPhaseFill(t, db, 2, nSeries, nBatches)
	live := selectAll(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The directory must actually be mixed, or the test proves nothing.
	v1Files, v2Files := 0, 0
	for _, f := range walFiles(t, mixedDir) {
		switch walFormatOf(t, f) {
		case walFormatV1:
			v1Files++
		case walFormatV2:
			v2Files++
		}
	}
	if v1Files == 0 || v2Files == 0 {
		t.Fatalf("directory is not mixed: %d v1 files, %d v2 files", v1Files, v2Files)
	}

	// Oracle: the identical history through a journal that was v2 from its
	// first byte.
	pureDir := filepath.Join(t.TempDir(), "pure")
	ref, err := Open(Options{Shards: 2, WALDir: pureDir, WALSegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range golden {
		if err := ref.AppendSeries(s.Labels, s.Samples); err != nil {
			t.Fatal(err)
		}
	}
	walPhaseFill(t, ref, 2, nSeries, nBatches)
	if !seriesEqual(selectAll(t, ref), live) {
		t.Fatal("test harness: pure v2 live head diverges from mixed live head")
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	for what, dir := range map[string]string{"pure v2 replay": pureDir, "mixed v1/v2 replay": mixedDir} {
		re, err := Open(Options{Shards: 2, WALDir: dir, WALSegmentSize: 4096})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		assertSeriesEqual(t, selectAll(t, re), live, what)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func seriesEqual(a, b []model.Series) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Labels.Equal(b[i].Labels) || len(a[i].Samples) != len(b[i].Samples) {
			return false
		}
		for j := range a[i].Samples {
			if a[i].Samples[j].T != b[i].Samples[j].T ||
				math.Float64bits(a[i].Samples[j].V) != math.Float64bits(b[i].Samples[j].V) {
				return false
			}
		}
	}
	return true
}

// TestWALCompressionMigratesAtRotation pins the migration story of a
// journal written before v2 was the only write format: opening it rewrites
// nothing — the old segments stay v1, byte for byte — every NEW file is v2,
// and the next checkpoint folds the whole retained journal into a v2
// snapshot, after which no v1 byte is left.
func TestWALCompressionMigratesAtRotation(t *testing.T) {
	db, walDir := openWALV1Fixture(t, 2048)
	walPhaseFill(t, db, 2, 16, 30)
	// Old files untouched (still the fixture's bytes), new ones v2.
	fixtureFiles, _ := filepath.Glob(filepath.Join(walV1Fixture, "wal", "shard-*", "*"))
	isOld := map[string]bool{}
	for _, f := range fixtureFiles {
		rel, _ := filepath.Rel(filepath.Join(walV1Fixture, "wal"), f)
		isOld[filepath.Join(walDir, rel)] = true
		want, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(filepath.Join(walDir, rel)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("pre-existing v1 file %s was rewritten (err %v)", rel, err)
		}
	}
	allFiles, _ := filepath.Glob(filepath.Join(walDir, "shard-*", "*"))
	if len(allFiles) < len(fixtureFiles)+2 {
		t.Fatalf("want new segments next to the %d v1 files, have %d files", len(fixtureFiles), len(allFiles))
	}
	for _, f := range allFiles {
		if !isOld[f] && walFormatOf(t, f) == walFormatV1 {
			t.Fatalf("new wal file %s is format v1", f)
		}
	}
	// A checkpoint converts the whole retained journal to v2.
	if err := db.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	for _, f := range walFiles(t, walDir) {
		if walFormatOf(t, f) == walFormatV1 {
			t.Fatalf("%s survived the checkpoint in format v1", f)
		}
	}
	live := selectAll(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Shards: 2, WALDir: walDir, WALSegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSeriesEqual(t, selectAll(t, re), live, "replay after the v2 checkpoint")
}

// ---------------------------------------------------------------------------
// Compression ratio
// ---------------------------------------------------------------------------

// walDirJournalBytes sums the sizes of every WAL file under dir; shared by
// the compression-ratio gate and the append benchmark's bytes/sample
// metric so "journal footprint" can never mean two different things.
func walDirJournalBytes(tb testing.TB, dir string) int64 {
	tb.Helper()
	var total int64
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return total
}

// TestWALCompressionRatio holds the headline claim to account in-tree: on a
// scrape-shaped workload (steady cadence, CEEMS-like values: energy/CPU
// counters ticking by integer amounts, utilization gauges that mostly hold
// between 15s scrapes, small-integer occupancy gauges — the traffic the
// paper's stack journals all day) the journal must be at least 3x smaller
// than the same samples cost in format v1. The v1 side is analytic — ref
// uvarint + timestamp varint + 8 value bytes per sample, ignoring v1's
// framing and series records, so the bar is a conservative one (a measured
// v1 journal of this workload was 13.3 bytes/sample).
func TestWALCompressionRatio(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	const nSeries, nBatches = 100, 200
	db, err := Open(Options{Shards: 4, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(0xBEEF))
	vals := make([]float64, nSeries)
	for i := range vals {
		vals[i] = float64(rng.Intn(1_000_000))
	}
	var v1Bytes int64
	for b := 0; b < nBatches; b++ {
		app := db.Appender()
		ts := int64(b) * 15_000
		for s := 0; s < nSeries; s++ {
			switch s % 3 {
			case 0: // counter (energy joules, CPU seconds): integer ticks
				vals[s] += float64(10 + rng.Intn(500))
			case 1: // gauge that holds most scrapes (utilization plateaus)
				if rng.Intn(5) == 0 {
					vals[s] = float64(rng.Intn(100))
				}
			default: // small-integer gauge (jobs, pages, processes)
				vals[s] = float64(rng.Intn(64))
			}
			app.Add(crashSeries(s), ts, vals[s])
			v1Bytes += int64(1 + len(binary.AppendVarint(nil, ts)) + 8) // shard refs stay < 128
		}
		if _, err := app.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	v2Bytes := walDirJournalBytes(t, dir)
	ratio := float64(v1Bytes) / float64(v2Bytes)
	t.Logf("journal bytes: v1 payload=%d v2 files=%d ratio=%.2fx (%.2f vs %.2f bytes/sample)",
		v1Bytes, v2Bytes, ratio,
		float64(v1Bytes)/(nSeries*nBatches), float64(v2Bytes)/(nSeries*nBatches))
	if ratio < 3 {
		t.Fatalf("v2 journal reduction %.2fx, want >= 3x (v1=%d bytes, v2=%d bytes)", ratio, v1Bytes, v2Bytes)
	}
}

// TestWALStreamingCheckpointLargeSeries sanity-checks the streamed
// checkpoint on a shard whose biggest series spans many chunks: the
// snapshot must hold every retained sample — read back as written and as
// the v1 rewrite of the same records — proving the series-by-series writer
// loses nothing at batch boundaries.
func TestWALStreamingCheckpointLargeSeries(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			walDir := filepath.Join(t.TempDir(), "wal")
			db, err := Open(Options{Shards: 2, WALDir: walDir})
			if err != nil {
				t.Fatal(err)
			}
			// > walSnapshotSeriesBatch series so the registration batching
			// path runs more than once, plus one deep series.
			for s := 0; s < walSnapshotSeriesBatch+50; s++ {
				if err := db.Append(crashSeries(s), int64(s), float64(s)); err != nil {
					t.Fatal(err)
				}
			}
			deep := labels.FromStrings(labels.MetricName, "wal_deep_series")
			for i := int64(0); i < 5000; i++ {
				if err := db.Append(deep, 1_000_000+i*1000, float64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.CheckpointWAL(); err != nil {
				t.Fatal(err)
			}
			live := selectAll(t, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			// Drop the (empty) post-checkpoint segments so replay reads the
			// snapshot alone — any loss in the streamed writer shows up.
			segs, _ := filepath.Glob(filepath.Join(walDir, "shard-*", "*.wal"))
			for _, seg := range segs {
				if st, err := os.Stat(seg); err == nil && st.Size() <= int64(walFileHeaderLen) {
					os.Remove(seg)
				}
			}
			if !compress {
				rewriteWALAsV1(t, walDir, 0)
			}
			re, err := Open(Options{Shards: 2, WALDir: walDir})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			assertSeriesEqual(t, selectAll(t, re), live, "checkpoint-only replay")
		})
	}
}
