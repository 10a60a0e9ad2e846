package tsdb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb/chunkenc"
)

// scanSelectAggr is the block select as it was before blocks had an index:
// labels.MatchLabels over every series, each read alone. Kept as the oracle.
// It reads the window the read plans for the block: whole buckets of a
// downsampled one.
func scanSelectAggr(pb *PersistentBlock, mint, maxt, limit int64, aggr AggrType, ms ...*labels.Matcher) ([]model.Series, error) {
	out := []model.Series{}
	parts := planParts(nil, []*PersistentBlock{pb}, mint, maxt, math.MaxInt64, math.MaxInt64, aggr)
	if len(parts) == 0 {
		return out, nil
	}
	read := seriesReader(pb, parts[0].lo, parts[0].hi, aggr)
	var copied int64
	for i := range pb.series {
		lset := pb.labelsOf(uint32(i))
		if !labels.MatchLabels(lset, ms...) {
			continue
		}
		samples, err := read(i)
		if err != nil {
			return nil, err
		}
		if len(samples) == 0 {
			continue
		}
		copied += int64(len(samples))
		if limit > 0 && copied > limit {
			return nil, model.ErrSampleLimit
		}
		out = append(out, model.Series{Labels: lset, Samples: samples})
	}
	return out, nil
}

// seriesReader returns a reader of pb's series, each alone, over [mint,
// maxt] for the requested aggregate, as a read of one block part fills them.
func seriesReader(pb *PersistentBlock, mint, maxt int64, aggr AggrType) func(pos int) ([]model.Sample, error) {
	sf := &seriesFiller{r: &reader{maxt: maxt, parts: []blockPart{newBlockPart(pb, mint, maxt, aggr)}}}
	return func(pos int) ([]model.Sample, error) { return sf.series([]piece{{pos: uint32(pos)}}) }
}

// TestBlockPostingsMatchScan: over random blocks — raw and downsampled,
// directory-backed and in-memory, with labels only some series carry — and
// random matcher sets, the indexed select returns exactly what the scan
// returns: same series, label-sorted, sample for sample, same budget error.
func TestBlockPostingsMatchScan(t *testing.T) {
	seeds, selects := int64(6), 300
	if testing.Short() {
		seeds, selects = 2, 100
	}
	aggrs := []AggrType{AggrRaw, AggrSum, AggrCount, AggrMin, AggrMax, AggrAvg}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := MustOpen(Options{Shards: 4, MaxSamplesPerChunk: 5})
		for i, n := 0, 50+rng.Intn(250); i < n; i++ {
			lset := randPostingsLabels(rng)
			for ts := int64(rng.Intn(40)); ts < 100; ts += 1 + int64(rng.Intn(9)) {
				// A label set drawn twice appends into its own past.
				if err := db.Append(lset, ts, float64(i)+float64(ts)/100); err != nil && !errors.Is(err, ErrOutOfOrder) {
					t.Fatal(err)
				}
			}
		}
		var blocks []*PersistentBlock
		for _, parent := range []string{"", t.TempDir()} {
			raw, err := db.CutPersistentBlock(parent, 0, 100)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := downsampleWhole(parent, raw, 10)
			if err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, raw, ds)
		}
		for n := 0; n < selects; n++ {
			ms := randPostingsMatchers(rng)
			mint := int64(rng.Intn(60))
			maxt := mint + int64(rng.Intn(60))
			limit := int64(0)
			if rng.Intn(3) == 0 {
				limit = 1 + int64(rng.Intn(200))
			}
			aggr := aggrs[rng.Intn(len(aggrs))]
			for _, pb := range blocks {
				want, wantErr := scanSelectAggr(pb, mint, maxt, limit, aggr, ms...)
				got, gotErr := readBlock(pb, model.SelectHints{Start: mint, End: maxt, SampleLimit: limit}, aggr, ms...)
				what := fmt.Sprintf("seed %d select %d: %v [%d,%d] limit %d %s on block res %d dir %q", seed, n, ms, mint, maxt, limit, aggr, pb.meta.Resolution, pb.dir)
				if gotErr != wantErr {
					t.Fatalf("%s: error %v, scan says %v", what, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s:\n got %v\nwant %v", what, got, want)
				}
				if !slices.IsSortedFunc(got, func(a, b model.Series) int { return labels.Compare(a.Labels, b.Labels) }) {
					t.Fatalf("%s: result not label-sorted", what)
				}
			}
		}
		for _, pb := range blocks {
			checkBlockIndexInvariants(t, pb)
			if err := pb.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkBlockIndexInvariants asserts the index is exactly the inverse of the
// block's series: names and values sorted and distinct, every list strictly
// ascending and holding only positions that carry the pair, every label of
// every series accounted for.
func checkBlockIndexInvariants(t *testing.T, pb *PersistentBlock) {
	t.Helper()
	ix := pb.index
	if !slices.IsSorted(ix.names) || len(slices.Compact(slices.Clone(ix.names))) != len(ix.names) {
		t.Fatalf("index names not sorted and distinct: %v", ix.names)
	}
	if len(ix.first) != len(ix.names)+1 || ix.first[0] != 0 || int(ix.first[len(ix.names)]) != len(ix.values) || len(ix.starts) != len(ix.values)+1 {
		t.Fatalf("index of %d names, %d pairs: first %v, %d starts", len(ix.names), len(ix.values), ix.first, len(ix.starts))
	}
	entries := 0
	for i, name := range ix.names {
		values := ix.values[ix.first[i]:ix.first[i+1]]
		if len(values) == 0 || !slices.IsSorted(values) || len(slices.Compact(slices.Clone(values))) != len(values) {
			t.Fatalf("index values of %q not sorted, distinct and present: %v", name, values)
		}
		for k, value := range values {
			id := ix.first[i] + uint32(k)
			list := ix.refs[ix.starts[id]:ix.starts[id+1]]
			if len(list) == 0 {
				t.Fatalf("index[%q][%q] is empty but present", name, value)
			}
			entries += len(list)
			for j, pos := range list {
				if j > 0 && list[j-1] >= pos {
					t.Fatalf("index[%q][%q] not strictly ascending: %v", name, value, list)
				}
				if !slices.Contains(pb.pairsOf(pos), id) {
					t.Fatalf("index[%q][%q] holds position %d of %s", name, value, pos, pb.labelsOf(pos))
				}
			}
		}
	}
	want := 0
	for i := range pb.series {
		ids := pb.pairsOf(uint32(i))
		if !slices.IsSorted(ids) {
			t.Fatalf("series %d: pair ids %v not ascending", i, ids)
		}
		want += len(ids)
	}
	if entries != want || len(ix.refs) != want {
		t.Fatalf("index holds %d entries in %d slots, series carry %d labels", entries, len(ix.refs), want)
	}
}

// churnedBlockSeries lays out the index of a block as a month of job churn
// leaves it: a fleet of 1400 nodes with one power series each, and jobs that
// each minted a uuid on the exporter's four per-job series — n series in
// all, label-sorted, one four-sample chunk each.
func churnedBlockSeries(tb testing.TB, n int) []diskSeries {
	tb.Helper()
	const fleet = 1400
	payload := func() []byte {
		c := chunkenc.NewChunk()
		for ts := int64(0); ts < 4; ts++ {
			if err := c.Append(1000+ts*15_000, float64(ts)); err != nil {
				tb.Fatal(err)
			}
		}
		return c.Bytes()
	}()
	series := make([]diskSeries, 0, n)
	add := func(lset labels.Labels) {
		series = append(series, diskSeries{lset: lset, chunks: []encodedChunk{{diskChunk{aggr: AggrRaw, minT: 1000, maxT: 46_000, numSamples: 4}, payload}}})
	}
	node := func(i int) (instance, class string) {
		return fmt.Sprintf("n%04d:9100", i%fleet), []string{"intel", "amd"}[i%2]
	}
	for i := 0; i < fleet; i++ {
		instance, class := node(i)
		add(labels.FromStrings(labels.MetricName, "ceems_ipmi_dcmi_current_watts", "instance", instance, "job", "ceems", "nodeclass", class))
	}
	for job := 0; len(series) < n; job++ {
		instance, class := node(job)
		for _, name := range []string{"ceems_compute_unit_cpu_usage_seconds_total", "ceems_compute_unit_cpu_user_seconds_total", "ceems_compute_unit_memory_limit_bytes", "ceems_compute_unit_memory_used_bytes"} {
			add(labels.FromStrings(labels.MetricName, name, "instance", instance, "job", "ceems", "manager", "slurm", "nodeclass", class, "uuid", fmt.Sprint(1_000_000+job)))
		}
	}
	series = series[:n]
	slices.SortFunc(series, func(a, b diskSeries) int { return labels.Compare(a.lset, b.lset) })
	return series
}

func churnedBlock(tb testing.TB, n int) *PersistentBlock {
	tb.Helper()
	pb, err := newMemPersistentBlock(&BlockMeta{MinTime: 1000, MaxTime: 46_000, Level: 1}, churnedBlockSeries(tb, n))
	if err != nil {
		tb.Fatal(err)
	}
	return pb
}

var (
	oneJobMatchers = []*labels.Matcher{
		labels.MustMatcher(labels.MatchEqual, labels.MetricName, "ceems_compute_unit_memory_used_bytes"),
		labels.MustMatcher(labels.MatchEqual, "uuid", "1000042"),
	}
	fleetMatchers = []*labels.Matcher{labels.MustMatcher(labels.MatchEqual, labels.MetricName, "ceems_ipmi_dcmi_current_watts")}
)

// TestBlockSelectAllocsIndependentOfBlockSize: a one-job select allocates for
// the series it returns, however many the block holds.
func TestBlockSelectAllocsIndependentOfBlockSize(t *testing.T) {
	allocs := func(n int) float64 {
		pb := churnedBlock(t, n)
		return testing.AllocsPerRun(100, func() {
			if got, err := readBlock(pb, model.SelectHints{Start: 0, End: 1 << 40}, AggrRaw, oneJobMatchers...); err != nil || len(got) != 1 {
				t.Fatalf("selected %d series, err %v; want 1", len(got), err)
			}
		})
	}
	if small, large := allocs(2000), allocs(50_000); small != large {
		t.Errorf("one-job select allocates %.0f times on a 2k-series block, %.0f on a 50k-series one", small, large)
	}
}

// BenchmarkBlockSelect measures the block select for the two shapes a
// dashboard issues against a month-long block: one job's panel, and one
// fleet-wide metric (1400 series returned).
func BenchmarkBlockSelect(b *testing.B) {
	blocks := map[int]*PersistentBlock{}
	for _, bc := range []struct {
		name string
		n    int
		ms   []*labels.Matcher
		want int
	}{
		{"one_job_of_2k", 2000, oneJobMatchers, 1},
		{"one_job_of_200k", 200_000, oneJobMatchers, 1},
		{"fleet_metric_of_200k", 200_000, fleetMatchers, 1400},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if testing.Short() && bc.n > 2000 {
				b.Skip("200k-series block skipped in -short mode")
			}
			pb := blocks[bc.n]
			if pb == nil {
				pb = churnedBlock(b, bc.n)
				blocks[bc.n] = pb
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got, err := readBlock(pb, model.SelectHints{Start: 0, End: 1 << 40}, AggrRaw, bc.ms...); err != nil || len(got) != bc.want {
					b.Fatalf("selected %d series, err %v; want %d", len(got), err, bc.want)
				}
			}
		})
	}
}

// BenchmarkBlockSelectAfterDeletes measures one job's panel read through a
// head and a month-long block while the API server cleans short units: the
// head's log holds 500 to 1 000 two-matcher deletes of jobs in the block,
// and one more is made before every read. Each run of 500 iterations starts
// from a fresh head holding the 500.
func BenchmarkBlockSelectAfterDeletes(b *testing.B) {
	for _, n := range []int{2000, 200_000} {
		b.Run(fmt.Sprintf("one_job_of_%dk", n/1000), func(b *testing.B) {
			if testing.Short() && n > 2000 {
				b.Skip("200k-series block skipped in -short mode")
			}
			const logged = 500
			jobs := (n - 1400) / 4
			pb := churnedBlock(b, n)
			job := 0
			deleteJob := func(db *DB) {
				job = (job + 1) % jobs
				if job == 42 {
					job++ // the job read
				}
				db.DeleteSeries(
					labels.MustMatcher(labels.MatchEqual, "uuid", fmt.Sprint(1_000_000+job)),
					labels.MustMatcher(labels.MatchEqual, "manager", "slurm"),
				)
			}
			fresh := func() *DB {
				db := MustOpen(Options{Shards: 2})
				for i := 0; i < 1400; i++ {
					if err := db.Append(labels.FromStrings(labels.MetricName, "ceems_ipmi_dcmi_current_watts", "instance", fmt.Sprintf("n%04d:9100", i)), 50_000, 1); err != nil {
						b.Fatal(err)
					}
				}
				for i := 0; i < logged; i++ {
					deleteJob(db)
				}
				return db
			}
			src := Sources{Head: fresh(), Blocks: []*PersistentBlock{pb}}
			hints := model.SelectHints{Start: 0, End: 1 << 40}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%logged == 0 {
					b.StopTimer()
					src.Head = fresh()
					b.StartTimer()
				}
				deleteJob(src.Head)
				if got, err := src.Select(hints, oneJobMatchers...); err != nil || len(got) != 1 {
					b.Fatalf("selected %d series, err %v; want 1", len(got), err)
				}
			}
		})
	}
}

// BenchmarkBlockOpen measures opening a block directory — index decode plus
// the index build — and reports what the open block keeps resident per
// series and what its index file takes on disk per series.
func BenchmarkBlockOpen(b *testing.B) {
	b.Run("200k", func(b *testing.B) {
		if testing.Short() {
			b.Skip("200k-series block skipped in -short mode")
		}
		const n = 200_000
		dir, err := writeBlockDir(b.TempDir(), &BlockMeta{MinTime: 1000, MaxTime: 46_000, Level: 1}, churnedBlockSeries(b, n))
		if err != nil {
			b.Fatal(err)
		}
		heap := func() uint64 {
			var st runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&st)
			return st.HeapAlloc
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pb, err := OpenBlockDir(dir)
			if err != nil {
				b.Fatal(err)
			}
			if err := pb.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		before := heap()
		pb, err := OpenBlockDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(heap()-before)/n, "heap_bytes/series")
		if err := pb.Close(); err != nil {
			b.Fatal(err)
		}
		st, err := os.Stat(filepath.Join(dir, IndexFilename))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(st.Size())/n, "index_bytes/series")
	})
}

// TestBlockBytesPinned: the index and chunks files of a cut, a downsampled
// and a compacted block hash to what they did when index format v2 was
// introduced. The blocks the v1 writer wrote for the same data are
// testdata/blocks-v1 (TestBlocksV1FixtureReadsBack). meta.json carries a
// random ULID and is left out.
func TestBlockBytesPinned(t *testing.T) {
	want := map[string]string{
		"cut":        "738634b3ac7251625e3dbdda37a963fb0f084f69d1ddf3a37958540ae26a4ad8",
		"downsample": "067e7c3f57e304d0e1669b4bd54d68f34f9664160864794de308c4ce394fe3e7",
		"compact":    "ecd257cf3006ef1c8593ff9c451bfc52982f479e07455f781cf261923d899b29",
	}
	for name, pb := range pinnedBlocks(t, t.TempDir()) {
		h := sha256.New()
		for _, f := range []string{IndexFilename, ChunksFilename} {
			data, err := os.ReadFile(filepath.Join(pb.Dir(), f))
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("%s block: index+chunks sha256 %s, pinned %s", name, got, want[name])
		}
	}
}

// indexWithCRC frames body — a version byte and what follows it — as an
// index file: magic, body, valid CRC.
func indexWithCRC(body []byte) []byte {
	data := append([]byte(indexMagic), body...)
	return binary.LittleEndian.AppendUint32(data, crc32.Checksum(data, walCRC))
}

// indexBody is what indexWithCRC frames: an index file without its magic
// and CRC.
func indexBody(index []byte) []byte { return index[len(indexMagic) : len(index)-4] }

// TestDecodeIndexRejectsOversizedCounts: a CRC-valid index of either version
// whose symbol, series, label or chunk count or string length exceeds what
// its bytes can hold is an error, not an allocation of that size.
func TestDecodeIndexRejectsOversizedCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<60)
	v2 := []byte{indexVersion, 0} // version, time base 0
	for name, body := range map[string][]byte{
		"v1 series":  append([]byte{indexVersionV1}, huge...),
		"v1 labels":  append([]byte{indexVersionV1, 1}, huge...),
		"v1 chunks":  append([]byte{indexVersionV1, 1, 0}, huge...),
		"v1 string":  append([]byte{indexVersionV1, 1, 1}, huge...),
		"v2 symbols": append(slices.Clone(v2), huge...),
		"v2 string":  append(append(slices.Clone(v2), 1), huge...),
		"v2 series":  append(append(slices.Clone(v2), 0), huge...),
		"v2 labels":  append(append(slices.Clone(v2), 0, 1), huge...),
		"v2 chunks":  append(append(slices.Clone(v2), 0, 1, 0), huge...),
	} {
		if _, err := decodeIndex(indexWithCRC(body), 0); err == nil {
			t.Errorf("index with 1<<60 %s decoded without error", name)
		}
	}
}

// FuzzDecodeIndex: any index body of either version under a valid CRC
// decodes to an error or a value, never a panic; allocates in proportion to
// its length; a decoded version-2 value re-encodes to the bytes it came
// from, and a version-1 one to them through the test-local v1 writer; and
// every chunk ref it holds reads from a fixed chunk segment as an error or
// a chunk, never a panic. Seeds: a raw and a downsampled block in both
// versions, the v1 fixture's indexes, and degenerate bodies.
func FuzzDecodeIndex(f *testing.F) {
	db := MustOpen(Options{Shards: 2, MaxSamplesPerChunk: 50})
	for i := 0; i < 6; i++ {
		ls := labels.FromStrings(labels.MetricName, "blk", "s", fmt.Sprintf("%03d", i))
		for j := int64(0); j < 120; j++ {
			if err := db.Append(ls, j*1000, float64(j)); err != nil {
				f.Fatal(err)
			}
		}
	}
	raw, err := db.CutPersistentBlock("", -1<<60, 1<<60)
	if err != nil {
		f.Fatal(err)
	}
	ds, err := downsampleWhole("", raw, 10_000)
	if err != nil {
		f.Fatal(err)
	}
	for _, pb := range []*PersistentBlock{raw, ds} {
		f.Add(indexBody(encodeIndex(tableSeries(pb.seriesTable))))
		f.Add(indexBody(encodeIndexV1(pb.seriesTable)))
	}
	for name := range blocksV1Pinned {
		idx, err := os.ReadFile(filepath.Join(blocksV1Fixture, name, IndexFilename))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(indexBody(idx))
	}
	// A v1 chunk ref whose off+length wraps past 2^64.
	wrap, err := decodeIndex(encodeIndex(tableSeries(raw.seriesTable)), 0)
	if err != nil {
		f.Fatal(err)
	}
	wrap.entries[0].off, wrap.entries[0].length = math.MaxUint64-2, 10
	f.Add(indexBody(encodeIndexV1(wrap)))
	// A v1 chunk that claims more samples than a chunk holds.
	f.Add(indexBody(encodeIndexV1Wide(raw.seriesTable, &[2]uint64{uint64(raw.entries[0].length), math.MaxUint16 + 1})))
	f.Add(indexBody(encodeIndex(nil)))
	f.Add([]byte{indexVersionV1})
	f.Add(binary.AppendUvarint([]byte{indexVersion, 0}, 1<<60))
	seg := &PersistentBlock{chunks: raw.chunks}
	f.Fuzz(func(t *testing.T, body []byte) {
		data := indexWithCRC(body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		table, err := decodeIndex(data, 0)
		runtime.ReadMemStats(&after)
		// A series entry is 16 bytes for at least 2 of input; a label its
		// 4-byte pair id (grown by doubling, then copied to its size) and a
		// 4-byte postings slot for 2; a distinct pair 32 in the decoder's
		// table, grown by doubling, plus its count, its value, its postings
		// offset and two renumbering words in the index build, for 2; a
		// chunk entry 32 for 5, grown by doubling with no count to size it
		// and then copied to its size; a symbol 16 for 1 plus its copy and
		// its use mark; the maps add their buckets, and the constant covers
		// the fuzz worker's own allocations. The index is built inside
		// decodeIndex, so it is counted too.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+128*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		encode := func(t seriesTable) []byte { return encodeIndex(tableSeries(t)) }
		if data[len(indexMagic)] == indexVersionV1 {
			encode = encodeIndexV1
		}
		if again := encode(table); !bytes.Equal(again, data) {
			t.Fatalf("decoded version-%d index re-encodes to %d different bytes (input %d)", data[len(indexMagic)], len(again), len(data))
		}
		for j := range table.entries {
			seg.decodeChunk(&table.entries[j])
		}
	})
}

// v1IndexLabels reads the label sets of a version-1 index file as its writer
// spelled them, with no part of decodeIndex: names and values inline, each
// series' chunk entries skipped.
func v1IndexLabels(t *testing.T, index []byte) []labels.Labels {
	t.Helper()
	b := index[len(indexMagic)+1 : len(index)-4]
	uv := func() uint64 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			t.Fatal("v1 index: bad uvarint")
		}
		b = b[n:]
		return u
	}
	str := func() string {
		n := uv()
		s := string(b[:n])
		b = b[n:]
		return s
	}
	out := make([]labels.Labels, uv())
	for i := range out {
		for j, n := 0, int(uv()); j < n; j++ {
			name := str()
			out[i] = append(out[i], labels.Label{Name: name, Value: str()})
		}
		for j, n := 0, int(uv()); j < n; j++ {
			b = b[1:] // aggregate
			for k := 0; k < 5; k++ {
				_, n := binary.Uvarint(b) // minT, maxT (zigzag), off, length, samples
				b = b[n:]
			}
		}
	}
	if len(b) != 0 {
		t.Fatalf("v1 index: %d bytes after the last series", len(b))
	}
	return out
}

// randChurnedSeries returns up to n distinct random label sets, label-sorted,
// as block series of one four-sample chunk each: a metric name, some of the
// property test's labels, and on about half a uuid of a thousand.
func randChurnedSeries(t *testing.T, rng *rand.Rand, n int) []diskSeries {
	t.Helper()
	c := chunkenc.NewChunk()
	for ts := int64(0); ts < 4; ts++ {
		if err := c.Append(ts*15_000, float64(ts)); err != nil {
			t.Fatal(err)
		}
	}
	var lsets []labels.Labels
	for range n {
		ls := randPostingsLabels(rng)
		if rng.Intn(2) == 0 {
			ls = labels.NewBuilder(ls).Set("uuid", fmt.Sprint(1_000_000+rng.Intn(1000))).Labels()
		}
		lsets = append(lsets, ls)
	}
	slices.SortFunc(lsets, labels.Compare)
	lsets = slices.CompactFunc(lsets, labels.Labels.Equal)
	series := make([]diskSeries, len(lsets))
	for i, ls := range lsets {
		series[i] = diskSeries{lset: ls, chunks: []encodedChunk{{diskChunk{aggr: AggrRaw, minT: 0, maxT: 45_000, numSamples: 4}, c.Bytes()}}}
	}
	return series
}

// TestBlockLabelsFromPairIDs: an open block builds from its pair ids the
// label sets it was written with — the v1 fixture's as its files spell
// them, the same blocks' written in v2 today, and random churned blocks' as
// their writer was handed them, in index version 2 (in memory and in a
// directory) and version 1 — and matches and orders by the ids as
// labels.MatchLabels and labels.Compare do the built sets, against each
// other's ids and against a head's labels.
func TestBlockLabelsFromPairIDs(t *testing.T) {
	check := func(t *testing.T, what string, pb *PersistentBlock, want []labels.Labels) {
		t.Helper()
		if len(pb.series) != len(want) {
			t.Fatalf("%s: %d series, written %d", what, len(pb.series), len(want))
		}
		for pos := range want {
			if got := pb.labelsOf(uint32(pos)); !got.Equal(want[pos]) {
				t.Fatalf("%s: series %d built as %s, written %s", what, pos, got, want[pos])
			}
		}
		checkBlockIndexInvariants(t, pb)
	}
	fresh := pinnedBlocks(t, t.TempDir())
	for name := range blocksV1Pinned {
		index, err := os.ReadFile(filepath.Join(blocksV1Fixture, name, IndexFilename))
		if err != nil {
			t.Fatal(err)
		}
		want := v1IndexLabels(t, index)
		old, err := OpenBlockDir(filepath.Join(blocksV1Fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		check(t, name+" v1 fixture", old, want)
		check(t, name+" written in v2", fresh[name], want)
		old.Close()
	}

	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		series := randChurnedSeries(t, rng, 400)
		want := make([]labels.Labels, len(series))
		for i := range series {
			want[i] = series[i].lset
		}
		mem, err := newMemPersistentBlock(&BlockMeta{MinTime: 0, MaxTime: 45_000, Level: 1}, series)
		if err != nil {
			t.Fatal(err)
		}
		dir, err := writeBlockDir(t.TempDir(), &BlockMeta{MinTime: 0, MaxTime: 45_000, Level: 1}, series)
		if err != nil {
			t.Fatal(err)
		}
		disk, err := OpenBlockDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer disk.Close()
		v1Table, err := decodeIndex(encodeIndexV1(mem.seriesTable), 0)
		if err != nil {
			t.Fatal(err)
		}
		v1 := &PersistentBlock{meta: mem.meta, seriesTable: v1Table, chunks: mem.chunks}
		blocks := []*PersistentBlock{mem, disk, v1}
		for i, pb := range blocks {
			check(t, fmt.Sprintf("seed %d block %d", seed, i), pb, want)
		}

		for n := 0; n < 200; n++ {
			ms := randPostingsMatchers(rng)
			for i, pb := range blocks {
				fs := pb.index.filters(nil, ms)
				var visited []uint32
				pb.forMatching(ms, func(pos uint32) bool {
					visited = append(visited, pos)
					return true
				})
				var matched []uint32
				for pos := range want {
					ok := labels.MatchLabels(want[pos], ms...)
					if got := pb.index.matches(pb.pairsOf(uint32(pos)), fs); got != ok {
						t.Fatalf("seed %d block %d: %v on %s: pair ids match %v, labels %v", seed, i, ms, want[pos], got, ok)
					}
					if ok {
						matched = append(matched, uint32(pos))
					}
				}
				if !slices.Equal(visited, matched) {
					t.Fatalf("seed %d block %d: %v visits %v, labels match %v", seed, i, ms, visited, matched)
				}
			}
		}

		// A second block of other series, so that the ids compared are
		// another index's.
		other, err := newMemPersistentBlock(&BlockMeta{MinTime: 0, MaxTime: 45_000, Level: 1}, randChurnedSeries(t, rng, 400))
		if err != nil {
			t.Fatal(err)
		}
		sign := func(c int) int { return min(max(c, -1), 1) }
		for n := 0; n < 2000; n++ {
			a, b := blocks[rng.Intn(len(blocks))], []*PersistentBlock{mem, v1, other}[rng.Intn(3)]
			pa, pbos := uint32(rng.Intn(len(a.series))), uint32(rng.Intn(len(b.series)))
			if b != other && rng.Intn(2) == 0 {
				pbos = pa // the same label set in another block
			}
			la, lb := a.labelsOf(pa), b.labelsOf(pbos)
			want := sign(labels.Compare(la, lb))
			for _, c := range [][2]labelView{
				{a.view(pa), b.view(pbos)},
				{a.view(pa), {ls: lb}},
				{{ls: la}, b.view(pbos)},
			} {
				if got := sign(compareLabels(c[0], c[1])); got != want || equalLabels(c[0], c[1]) != (want == 0) {
					t.Fatalf("seed %d: %s against %s compares %d by ids, %d by labels", seed, la, lb, got, want)
				}
			}
		}
	}
}

// TestDecodeIndexRejectsDisorder: an index whose series are not strictly
// ascending by labels, or whose labels are not strictly ascending by name
// within a series, does not open, whatever else about it is well formed.
func TestDecodeIndexRejectsDisorder(t *testing.T) {
	a := labels.FromStrings(labels.MetricName, "m", "uuid", "1")
	b := labels.FromStrings(labels.MetricName, "m", "uuid", "2")
	for _, tc := range []struct {
		name   string
		series []labels.Labels
		want   string
	}{
		{"series out of order", []labels.Labels{b, a}, "series 1 out of label order"},
		{"series repeated", []labels.Labels{a, a}, "series 1 out of label order"},
		{"prefix after its extension", []labels.Labels{a, a[:1]}, "series 1 out of label order"},
		{"label names out of order", []labels.Labels{{a[1], a[0]}}, "series 0: label names out of order"},
		{"label name repeated", []labels.Labels{{a[1], b[1]}}, "series 0: label names out of order"},
	} {
		series := make([]diskSeries, len(tc.series))
		for i, ls := range tc.series {
			series[i].lset = ls
		}
		if _, err := decodeIndex(encodeIndex(series), 0); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one saying %q", tc.name, err, tc.want)
		}
	}
	ok := []diskSeries{{lset: a[:1]}, {lset: a}, {lset: b}}
	if _, err := decodeIndex(encodeIndex(ok), 0); err != nil {
		t.Fatalf("ordered series: %v", err)
	}
}
