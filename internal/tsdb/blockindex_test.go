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
	parts := planParts(nil, []*PersistentBlock{pb}, mint, maxt, math.MaxInt64, aggr)
	if len(parts) == 0 {
		return out, nil
	}
	read := blockSeries(pb, parts[0].lo, parts[0].hi, aggr)
	var copied int64
	for i := range pb.series {
		s := &pb.series[i]
		if !labels.MatchLabels(s.lset, ms...) {
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
		out = append(out, model.Series{Labels: s.lset, Samples: samples})
	}
	return out, nil
}

// blockSeries returns a reader of pb's series, each alone, over [mint,
// maxt] for the requested aggregate, as a read of one block part fills them.
func blockSeries(pb *PersistentBlock, mint, maxt int64, aggr AggrType) func(pos int) ([]model.Sample, error) {
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
	entries := 0
	for i, name := range ix.names {
		lp := ix.labels[i]
		if !slices.IsSorted(lp.values) || len(slices.Compact(slices.Clone(lp.values))) != len(lp.values) {
			t.Fatalf("index values of %q not sorted and distinct: %v", name, lp.values)
		}
		for k, value := range lp.values {
			list := ix.refs[lp.starts[k]:lp.starts[k+1]]
			if len(list) == 0 {
				t.Fatalf("index[%q][%q] is empty but present", name, value)
			}
			entries += len(list)
			for j, pos := range list {
				if j > 0 && list[j-1] >= pos {
					t.Fatalf("index[%q][%q] not strictly ascending: %v", name, value, list)
				}
				if got := pb.series[pos].lset.Get(name); got != value {
					t.Fatalf("index[%q][%q] holds position %d of %s", name, value, pos, pb.series[pos].lset)
				}
			}
		}
	}
	want := 0
	for i := range pb.series {
		want += len(pb.series[i].lset)
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
		series = append(series, diskSeries{lset: lset, chunks: []diskChunk{{aggr: AggrRaw, minT: 1000, maxT: 46_000, numSamples: 4, payload: payload}}})
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
		if _, _, err := decodeIndex(indexWithCRC(body)); err == nil {
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
		f.Add(indexBody(encodeIndex(pb.series)))
		f.Add(indexBody(encodeIndexV1(pb.series)))
	}
	for name := range blocksV1Pinned {
		idx, err := os.ReadFile(filepath.Join(blocksV1Fixture, name, IndexFilename))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(indexBody(idx))
	}
	// A v1 chunk ref whose off+length wraps past 2^64.
	wrap, _, err := decodeIndex(encodeIndex(raw.series))
	if err != nil {
		f.Fatal(err)
	}
	wrap[0].chunks[0].off, wrap[0].chunks[0].length = math.MaxUint64-2, 10
	f.Add(indexBody(encodeIndexV1(wrap)))
	f.Add(indexBody(encodeIndex(nil)))
	f.Add([]byte{indexVersionV1})
	f.Add(binary.AppendUvarint([]byte{indexVersion, 0}, 1<<60))
	seg := &PersistentBlock{chunks: raw.chunks}
	f.Fuzz(func(t *testing.T, body []byte) {
		data := indexWithCRC(body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		series, pairs, err := decodeIndex(data)
		runtime.ReadMemStats(&after)
		// A series entry is 48 bytes for at least 2 of input, a label 32 for
		// 2, a chunk entry 72 for 5; a symbol 16 for 1 plus its copy and its
		// use mark; the maps add their buckets, and the constant covers the
		// fuzz worker's own allocations.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+128*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		encode := encodeIndex
		if data[len(indexMagic)] == indexVersionV1 {
			encode = encodeIndexV1
		}
		if again := encode(series); !bytes.Equal(again, data) {
			t.Fatalf("decoded version-%d index re-encodes to %d different bytes (input %d)", data[len(indexMagic)], len(again), len(data))
		}
		newBlockIndex(series, pairs)
		for i := range series {
			for j := range series[i].chunks {
				seg.decodeChunk(&series[i].chunks[j])
			}
		}
	})
}
