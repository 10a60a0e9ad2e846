package tsdb

import (
	"encoding/json"
	"fmt"
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
	"repro/internal/tsdb/chunkenc"
)

// readBlock reads pb alone through Sources, the one read of blocks.
func readBlock(pb *PersistentBlock, hints model.SelectHints, aggr AggrType, ms ...*labels.Matcher) ([]model.Series, error) {
	return Sources{Blocks: []*PersistentBlock{pb}, Aggr: aggr}.Select(hints, ms...)
}

func blockSeedDB(t *testing.T, shards, nSeries, nSamples int, startMs, stepMs int64) *DB {
	t.Helper()
	opts := DefaultOptions()
	opts.Shards = shards
	db := MustOpen(opts)
	for i := 0; i < nSeries; i++ {
		ls := labels.FromStrings(labels.MetricName, "blk", "s", fmt.Sprintf("%03d", i))
		for j := 0; j < nSamples; j++ {
			if err := db.Append(ls, startMs+int64(j)*stepMs, float64(i*10_000+j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestBlockDirRoundTrip: a block cut straight to a directory and reopened
// must serve exactly what the head serves, and the in-memory assembly
// (parent == "") must be indistinguishable from the mmap'd read path.
func TestBlockDirRoundTrip(t *testing.T) {
	db := blockSeedDB(t, 4, 20, 300, 0, 15_000)
	want, err := db.Select(-1<<60, 1<<60, matchAll())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	pb, err := db.CutPersistentBlock(dir, -1<<60, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Meta().Level != 1 || pb.Meta().Resolution != 0 {
		t.Fatalf("meta = %+v, want level 1 raw", pb.Meta())
	}
	if pb.Meta().Stats.NumSeries != 20 || pb.Meta().Stats.NumSamples != 20*300 {
		t.Fatalf("stats = %+v", pb.Meta().Stats)
	}
	got, err := readBlock(pb, model.SelectHints{Start: -1 << 60, End: 1 << 60}, AggrRaw, matchAll())
	if err != nil {
		t.Fatal(err)
	}
	assertSeriesEqual(t, got, want, "disk block vs head")

	// Reopen from disk (fresh mmap) and compare again.
	re, err := OpenBlockDir(pb.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got2, err := readBlock(re, model.SelectHints{Start: -1 << 60, End: 1 << 60}, AggrRaw, matchAll())
	if err != nil {
		t.Fatal(err)
	}
	assertSeriesEqual(t, got2, want, "reopened block vs head")

	// In-memory assembly must match too.
	mem, err := db.CutPersistentBlock("", -1<<60, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	got3, err := readBlock(mem, model.SelectHints{Start: -1 << 60, End: 1 << 60}, AggrRaw, matchAll())
	if err != nil {
		t.Fatal(err)
	}
	assertSeriesEqual(t, got3, want, "mem block vs head")

	// Sub-range reads must clip chunk-internally.
	sub, err := readBlock(pb, model.SelectHints{Start: 1_000_000, End: 2_000_000}, AggrRaw, matchAll())
	if err != nil {
		t.Fatal(err)
	}
	wantSub, _ := db.Select(1_000_000, 2_000_000, matchAll())
	assertSeriesEqual(t, sub, wantSub, "sub-range")
	if err := pb.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBlockDirCorruptionDetected: any flipped byte in the index or chunk
// segment must surface as an error — never as silently wrong samples.
func TestBlockDirCorruptionDetected(t *testing.T) {
	db := blockSeedDB(t, 1, 4, 200, 0, 1000)
	dir := t.TempDir()
	pb, err := db.CutPersistentBlock(dir, -1<<60, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	blockDir := pb.Dir()
	pb.Close()

	corrupt := func(t *testing.T, file string, flip func(data []byte) []byte) string {
		t.Helper()
		scratch := t.TempDir()
		cp := filepath.Join(scratch, filepath.Base(blockDir))
		if err := os.MkdirAll(cp, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{MetaFilename, IndexFilename, ChunksFilename} {
			data, err := os.ReadFile(filepath.Join(blockDir, name))
			if err != nil {
				t.Fatal(err)
			}
			if name == file {
				data = flip(data)
			}
			if err := os.WriteFile(filepath.Join(cp, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return cp
	}

	t.Run("index bit flip", func(t *testing.T) {
		cp := corrupt(t, IndexFilename, func(d []byte) []byte {
			d[len(d)/2] ^= 0x10
			return d
		})
		if _, err := OpenBlockDir(cp); err == nil {
			t.Fatal("corrupt index opened cleanly")
		}
	})
	t.Run("index truncated", func(t *testing.T) {
		cp := corrupt(t, IndexFilename, func(d []byte) []byte { return d[:len(d)/2] })
		if _, err := OpenBlockDir(cp); err == nil {
			t.Fatal("truncated index opened cleanly")
		}
	})
	t.Run("chunk bit flip fails the read", func(t *testing.T) {
		cp := corrupt(t, ChunksFilename, func(d []byte) []byte {
			d[len(d)/2] ^= 0x10
			return d
		})
		b, err := OpenBlockDir(cp)
		if err != nil {
			return // header landed on the flip: also acceptable
		}
		defer b.Close()
		if _, err := readBlock(b, model.SelectHints{Start: -1 << 60, End: 1 << 60}, AggrRaw, matchAll()); err == nil {
			t.Fatal("flipped chunk byte served samples")
		}
	})
	t.Run("chunks truncated", func(t *testing.T) {
		cp := corrupt(t, ChunksFilename, func(d []byte) []byte { return d[:len(d)*2/3] })
		b, err := OpenBlockDir(cp)
		if err != nil {
			return
		}
		defer b.Close()
		if _, err := readBlock(b, model.SelectHints{Start: -1 << 60, End: 1 << 60}, AggrRaw, matchAll()); err == nil {
			t.Fatal("truncated chunks served samples")
		}
	})
	t.Run("chunk ref wrapping past 2^64 fails the read", func(t *testing.T) {
		// A CRC-valid index whose off+length overflows uint64 to below off:
		// version 1, where an offset is written, not implied.
		cp := corrupt(t, IndexFilename, func(d []byte) []byte {
			table, err := decodeIndex(d, 0)
			if err != nil {
				t.Fatal(err)
			}
			table.entries[0].off, table.entries[0].length = math.MaxUint64-2, 10
			return encodeIndexV1(table)
		})
		b, err := OpenBlockDir(cp)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if _, err := readBlock(b, model.SelectHints{Start: -1 << 60, End: 1 << 60}, AggrRaw, matchAll()); err == nil {
			t.Fatal("chunk ref off=2^64-3 len=10 served samples")
		}
	})
	// A CRC-valid index whose first chunk claims a count or a length its
	// resident entry could only hold cut down: version 1, whose writer is the
	// test's and takes any width.
	for _, tc := range []struct {
		name             string
		length, nSamples uint64
	}{
		{"chunk claims 65536 samples", 0, math.MaxUint16 + 1},
		{"chunk claims 4 GiB", math.MaxUint32 + 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var first labels.Labels
			cp := corrupt(t, IndexFilename, func(d []byte) []byte {
				table, err := decodeIndex(d, 0)
				if err != nil {
					t.Fatal(err)
				}
				first = table.labelsOf(0)
				wide := [2]uint64{tc.length, tc.nSamples}
				if wide[0] == 0 {
					wide[0] = uint64(table.entries[0].length)
				}
				if wide[1] == 0 {
					wide[1] = uint64(table.entries[0].numSamples)
				}
				return encodeIndexV1Wide(table, &wide)
			})
			b, err := OpenBlockDir(cp)
			if err == nil {
				b.Close()
				t.Fatal("index opened cleanly")
			}
			if !strings.Contains(err.Error(), first.String()) {
				t.Fatalf("error %q does not name the series %s", err, first)
			}
		})
	}
	t.Run("meta garbage", func(t *testing.T) {
		cp := corrupt(t, MetaFilename, func(d []byte) []byte { return []byte("{") })
		if _, err := OpenBlockDir(cp); err == nil {
			t.Fatal("garbage meta opened cleanly")
		}
	})
	// Well-formed JSON no writer produces: bounds that hold no instant, or a
	// negative resolution — which would otherwise open and read as no series.
	for _, tc := range []struct {
		name            string
		minT, maxT, res int64
	}{
		{"meta bounds and resolution impossible", 999_999_999, 585_000, -7},
		{"meta bounds inverted", 999_999_999, 585_000, 0},
		{"meta resolution negative", 0, 585_000, -7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := corrupt(t, MetaFilename, func(d []byte) []byte {
				var m BlockMeta
				if err := json.Unmarshal(d, &m); err != nil {
					t.Fatal(err)
				}
				m.MinTime, m.MaxTime, m.Resolution = tc.minT, tc.maxT, tc.res
				out, err := json.Marshal(m)
				if err != nil {
					t.Fatal(err)
				}
				return out
			})
			b, err := OpenBlockDir(cp)
			if err == nil {
				got, rerr := readBlock(b, model.SelectHints{Start: -1 << 60, End: 1 << 60}, AggrRaw, matchAll())
				b.Close()
				t.Fatalf("meta [%d, %d] at resolution %d opened cleanly; a raw read gave %d series (err %v)", tc.minT, tc.maxT, tc.res, len(got), rerr)
			}
			if want := filepath.Join(cp, MetaFilename); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %s", err, want)
			}
		})
	}
}

// TestParallelCutMatchesSelect: the per-shard parallel cut, written to a
// directory and reopened, must be sample-identical to Select for any shard
// count, including with out-of-order data in flight and boundary chunks
// that need re-encoding — and the block files must not depend on the shard
// count at all.
func TestParallelCutMatchesSelect(t *testing.T) {
	fullCut := map[int][2][]byte{} // shards -> {index, chunks} of the whole-head cut
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Shards = shards
			opts.OutOfOrderWindow = 60_000
			opts.MaxSamplesPerChunk = 50
			db := MustOpen(opts)
			rng := rand.New(rand.NewSource(0xB10C))
			for i := 0; i < 30; i++ {
				ls := labels.FromStrings(labels.MetricName, "cutpar", "s", fmt.Sprintf("%02d", i))
				ts := int64(0)
				for j := 0; j < 400; j++ {
					ts += int64(rng.Intn(2000)) + 1
					at := ts
					if j > 10 && rng.Intn(4) == 0 {
						at -= int64(rng.Intn(50_000)) // in-window backfill
					}
					db.Append(ls, at, rng.NormFloat64())
				}
			}
			for _, bounds := range [][2]int64{{-1 << 60, 1 << 60}, {100_000, 300_000}, {0, 0}} {
				mint, maxt := bounds[0], bounds[1]
				want, err := db.Select(mint, maxt, matchAll())
				if err != nil {
					t.Fatal(err)
				}
				cut, err := db.CutPersistentBlock(t.TempDir(), mint, maxt)
				if err != nil {
					t.Fatal(err)
				}
				if cut == nil {
					if len(want) != 0 {
						t.Fatalf("cut [%d,%d] produced no block but Select has %d series", mint, maxt, len(want))
					}
					continue
				}
				cut.Close()
				blk, err := OpenBlockDir(cut.Dir())
				if err != nil {
					t.Fatal(err)
				}
				got, err := readBlock(blk, model.SelectHints{Start: mint, End: maxt}, AggrRaw, matchAll())
				blk.Close()
				if err != nil {
					t.Fatal(err)
				}
				assertSeriesEqual(t, got, want, fmt.Sprintf("cut [%d,%d]", mint, maxt))
				if mint == -1<<60 {
					var files [2][]byte
					for i, name := range []string{IndexFilename, ChunksFilename} {
						if files[i], err = os.ReadFile(filepath.Join(cut.Dir(), name)); err != nil {
							t.Fatal(err)
						}
					}
					fullCut[shards] = files
				}
			}
		})
	}
	for _, shards := range []int{4, 16} {
		if !reflect.DeepEqual(fullCut[shards], fullCut[1]) {
			t.Errorf("index/chunks of the %d-shard cut differ from the 1-shard cut", shards)
		}
	}
}

// TestCutReusesClosedChunksUndecoded: a closed chunk lying fully inside the
// cut range goes to the block with the bounds the head recorded for it —
// the cut never iterates it. The proof swaps every closed chunk for bytes
// no iterator can walk: a cut that decoded them would fail, and their
// recorded bounds still land in the block's index.
func TestCutReusesClosedChunksUndecoded(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 2
	opts.MaxSamplesPerChunk = 10
	db := MustOpen(opts)
	for i := 0; i < 4; i++ {
		ls := labels.FromStrings(labels.MetricName, "reuse", "s", fmt.Sprint(i))
		for j := int64(0); j < 30; j++ { // exactly three closed chunks, no open head
			if err := db.Append(ls, j*1000, float64(j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	undecodable, err := chunkenc.FromBytes([]byte{0, 10}) // claims 10 samples, carries none
	if err != nil {
		t.Fatal(err)
	}
	if it := undecodable.Iterator(); it.Next() || it.Err() == nil {
		t.Fatal("test setup: the stand-in chunk decodes")
	}
	for _, sh := range db.shards {
		for _, s := range sh.byRef {
			if len(s.chunks) != 3 || s.head != nil {
				t.Fatalf("test setup: series has %d closed chunks, head %v", len(s.chunks), s.head)
			}
			for _, cr := range s.chunks {
				cr.chunk = undecodable
			}
		}
	}
	pb, err := db.CutPersistentBlock("", -1<<60, 1<<60)
	if err != nil {
		t.Fatalf("cut over closed chunks only decoded one: %v", err)
	}
	defer pb.Close()
	if meta := pb.Meta(); meta.MinTime != 0 || meta.MaxTime != 29_000 || meta.Stats.NumChunks != 12 || meta.Stats.NumSamples != 120 {
		t.Fatalf("meta = %+v, want [0, 29000] with 12 chunks of 10 samples", meta)
	}
	for pos := range pb.series {
		for i, c := range pb.chunksOf(uint32(pos)) {
			if want := int64(i) * 10_000; c.minT != want || c.maxT != want+9000 {
				t.Fatalf("%s chunk %d bounds [%d, %d], want [%d, %d]", pb.labelsOf(uint32(pos)), i, c.minT, c.maxT, want, want+9000)
			}
		}
	}
}

// cutMem cuts the whole head into an in-memory persistent block.
func cutMem(t *testing.T, db *DB) *PersistentBlock {
	t.Helper()
	pb, err := db.CutPersistentBlock("", -1<<60, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	return pb
}

// downsampleWhole derives every bucket of res that b has samples in, at b's
// level: the range a store derives b's data in when b is its only source.
func downsampleWhole(parent string, b *PersistentBlock, res int64) (*PersistentBlock, error) {
	meta := BlockMeta{MinTime: floorDiv(b.meta.MinTime, res) * res, MaxTime: (floorDiv(b.meta.MaxTime, res)+1)*res - 1, Level: b.meta.Level, Resolution: res}
	return DownsamplePersistentBlocks(parent, meta, []*PersistentBlock{b}, nil)
}

// TestCompactPersistentBlocks: merging overlapping blocks dedups on
// timestamp with the earliest block winning, raises the level, records the
// sources, and applies tombstones.
func TestCompactPersistentBlocks(t *testing.T) {
	mk := func(series string, vals map[int64]float64) *PersistentBlock {
		opts := DefaultOptions()
		opts.OutOfOrderWindow = 1 << 50
		db := MustOpen(opts)
		ls := labels.FromStrings(labels.MetricName, "cmp", "s", series)
		ts := make([]int64, 0, len(vals))
		for k := range vals {
			ts = append(ts, k)
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		for _, k := range ts {
			if err := db.Append(ls, k, vals[k]); err != nil {
				t.Fatal(err)
			}
		}
		return cutMem(t, db)
	}

	b1 := mk("a", map[int64]float64{1000: 1, 2000: 2, 3000: 3})
	b2 := mk("a", map[int64]float64{3000: 99, 4000: 4}) // 3000 collides; b1 wins
	b3 := mk("b", map[int64]float64{1500: 7})

	nb, err := CompactPersistentBlocks("", []*PersistentBlock{b1, b2, b3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	meta := nb.Meta()
	if meta.Level != 2 {
		t.Errorf("level = %d, want 2", meta.Level)
	}
	if len(meta.Sources) != 3 {
		t.Errorf("sources = %v", meta.Sources)
	}
	if meta.MinTime != 1000 || meta.MaxTime != 4000 {
		t.Errorf("bounds = [%d,%d]", meta.MinTime, meta.MaxTime)
	}
	got, err := readBlock(nb, model.SelectHints{Start: -1 << 60, End: 1 << 60}, AggrRaw, matchAll())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("series = %d, want 2", len(got))
	}
	wantA := []model.Sample{{T: 1000, V: 1}, {T: 2000, V: 2}, {T: 3000, V: 3}, {T: 4000, V: 4}}
	if !reflect.DeepEqual(got[0].Samples, wantA) {
		t.Errorf("merged a = %+v", got[0].Samples)
	}

	// Tombstones drop whole series during the merge.
	tombs := []TombstoneRec{{Seq: 1, MaxT: 4000, Matchers: []*labels.Matcher{
		labels.MustMatcher(labels.MatchEqual, "s", "a"),
	}}}
	nb2, err := CompactPersistentBlocks("", []*PersistentBlock{b1, b2, b3}, tombs)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := readBlock(nb2, model.SelectHints{Start: -1 << 60, End: 1 << 60}, AggrRaw, matchAll())
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 1 || got2[0].Labels.Get("s") != "b" {
		t.Fatalf("tombstoned compact kept %d series", len(got2))
	}

	// Mixed resolutions must refuse.
	ds, err := downsampleWhole("", b1, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompactPersistentBlocks("", []*PersistentBlock{b1, ds}, nil); err == nil {
		t.Fatal("mixed-resolution compact accepted")
	}
}

// rawBuckets computes the expected aggregate streams from raw samples — an
// independent oracle for the downsampling property (stale markers dropped,
// buckets aligned to floor(t/res)).
func rawBuckets(raw []model.Sample, res int64) map[AggrType][]model.Sample {
	type agg struct {
		sum, min, max, count float64
	}
	buckets := map[int64]*agg{}
	var starts []int64
	for _, s := range raw {
		if model.IsStaleNaN(s.V) {
			continue
		}
		bs := floorDiv(s.T, res) * res
		a, ok := buckets[bs]
		if !ok {
			a = &agg{min: math.Inf(1), max: math.Inf(-1)}
			buckets[bs] = a
			starts = append(starts, bs)
		}
		a.sum += s.V
		a.count++
		a.min = math.Min(a.min, s.V)
		a.max = math.Max(a.max, s.V)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	out := map[AggrType][]model.Sample{}
	for _, bs := range starts {
		a := buckets[bs]
		et := bs + res - 1
		out[AggrSum] = append(out[AggrSum], model.Sample{T: et, V: a.sum})
		out[AggrCount] = append(out[AggrCount], model.Sample{T: et, V: a.count})
		out[AggrMin] = append(out[AggrMin], model.Sample{T: et, V: a.min})
		out[AggrMax] = append(out[AggrMax], model.Sample{T: et, V: a.max})
	}
	return out
}

// aggrBuckets rebuckets already-downsampled aggregate streams to a coarser
// resolution: sums of sums, sums of counts, min of mins, max of maxes, in
// timestamp order — the oracle for aggregates-of-aggregates.
func aggrBuckets(fine map[AggrType][]model.Sample, res int64) map[AggrType][]model.Sample {
	fold := map[AggrType]func(a, b float64) float64{
		AggrSum:   func(a, b float64) float64 { return a + b },
		AggrCount: func(a, b float64) float64 { return a + b },
		AggrMin:   math.Min,
		AggrMax:   math.Max,
	}
	out := map[AggrType][]model.Sample{}
	for aggr, pts := range fine {
		var cur []model.Sample
		for _, p := range pts {
			et := floorDiv(p.T, res)*res + res - 1
			if n := len(cur); n > 0 && cur[n-1].T == et {
				cur[n-1].V = fold[aggr](cur[n-1].V, p.V)
			} else {
				cur = append(cur, model.Sample{T: et, V: p.V})
			}
		}
		out[aggr] = cur
	}
	return out
}

// deriveByRange derives res from blocks, sorted by time, as a store does:
// for each block the whole buckets from where the previous derived block
// ends up to the last bucket boundary inside it, read from every block
// with samples in that range — and, past the last block, the buckets it
// ends inside. It returns the derived blocks in time order.
func deriveByRange(t *testing.T, blocks []*PersistentBlock, res int64) []*PersistentBlock {
	t.Helper()
	var out []*PersistentBlock
	next := floorDiv(blocks[0].meta.MinTime, res) * res
	for i, b := range blocks {
		to := floorDiv(b.meta.MaxTime+1, res) * res
		if i == len(blocks)-1 {
			to = (floorDiv(b.meta.MaxTime, res) + 1) * res
		}
		if to <= next {
			continue
		}
		var in []*PersistentBlock
		for _, o := range blocks {
			if o.meta.MinTime < to && o.meta.MaxTime >= next {
				in = append(in, o)
			}
		}
		d, err := DownsamplePersistentBlocks("", BlockMeta{MinTime: next, MaxTime: to - 1, Level: 1, Resolution: res}, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d != nil {
			out = append(out, d)
		}
		next = to
	}
	return out
}

// compactAll compacts blocks into one, or fails the test.
func compactAll(t *testing.T, blocks []*PersistentBlock) *PersistentBlock {
	t.Helper()
	if len(blocks) == 0 {
		t.Fatal("nothing to compact")
	}
	b, err := CompactPersistentBlocks("", blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDownsamplePropertyRandom is the downsampling correctness property:
// across random series shapes — uneven scrape intervals, counter resets,
// staleness markers, negative values — the sum/count/min/max streams of a
// downsampled block must exactly equal an independent per-bucket
// computation over the raw samples, the derived avg stream must equal
// sum/count, and downsampling in two hops (raw → fine → coarse) must
// exactly equal rebucketing the fine aggregates (count/min/max therefore
// match one hop bit-exactly; sum and avg match up to float associativity).
// The same holds for the data cut at random times into several raw blocks,
// derived by range (deriveByRange) at both hops and compacted: a bucket a
// cut splits is derived once, from both blocks.
func TestDownsamplePropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(0xD0D5))
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			fine := int64(10_000 * (1 + rng.Intn(5))) // 10-50s buckets
			coarse := fine * int64(2+rng.Intn(5))     // 2-6x coarser
			opts := DefaultOptions()
			opts.MaxSamplesPerChunk = 1 + rng.Intn(40) // stress chunk splits
			db := MustOpen(opts)
			nSeries := 1 + rng.Intn(5)
			rawByKey := map[string][]model.Sample{}
			for i := 0; i < nSeries; i++ {
				ls := labels.FromStrings(labels.MetricName, "prop", "s", fmt.Sprintf("%d", i))
				ts := int64(rng.Intn(5000)) - 2500 // may start negative
				val := 0.0
				n := 50 + rng.Intn(400)
				for j := 0; j < n; j++ {
					ts += int64(rng.Intn(20_000)) + 1 // uneven intervals, gaps
					var v float64
					switch rng.Intn(10) {
					case 0:
						v = model.StaleNaN() // staleness marker
					case 1:
						val = 0 // counter reset
						v = val
					default:
						val += rng.Float64()*10 - 2 // may go negative
						v = val
					}
					if err := db.Append(ls, ts, v); err != nil {
						t.Fatal(err)
					}
					rawByKey[ls.String()] = append(rawByKey[ls.String()], model.Sample{T: ts, V: v})
				}
			}
			raw := cutMem(t, db)
			var cuts []*PersistentBlock
			for from, i, n := raw.meta.MinTime, 0, 2+rng.Intn(4); i < n; i++ {
				to := from + rng.Int63n(raw.meta.MaxTime-from+1)
				if i == n-1 {
					to = raw.meta.MaxTime
				}
				b, err := db.CutPersistentBlock("", from, to)
				if err != nil {
					t.Fatal(err)
				}
				if b != nil {
					cuts = append(cuts, b)
				}
				from = to + 1
			}

			oneHop, err := downsampleWhole("", raw, coarse)
			if err != nil {
				t.Fatal(err)
			}
			fineB, err := downsampleWhole("", raw, fine)
			if err != nil {
				t.Fatal(err)
			}
			twoHop, err := downsampleWhole("", fineB, coarse)
			if err != nil {
				t.Fatal(err)
			}

			check := func(b *PersistentBlock, what string, oracle func(key string) map[AggrType][]model.Sample) {
				for _, aggr := range []AggrType{AggrSum, AggrCount, AggrMin, AggrMax} {
					got, err := readBlock(b, model.SelectHints{Start: -1 << 60, End: 1 << 60}, aggr, matchAll())
					if err != nil {
						t.Fatal(err)
					}
					for _, sr := range got {
						want := oracle(sr.Labels.String())[aggr]
						if !reflect.DeepEqual(sr.Samples, want) {
							t.Fatalf("%s %v %s: got %d pts, want %d (first diff around %+v vs %+v)",
								what, aggr, sr.Labels, len(sr.Samples), len(want), head(sr.Samples), head(want))
						}
					}
				}
				// Derived avg = sum/count, pointwise.
				avg, err := readBlock(b, model.SelectHints{Start: -1 << 60, End: 1 << 60}, AggrAvg, matchAll())
				if err != nil {
					t.Fatal(err)
				}
				for _, sr := range avg {
					bk := oracle(sr.Labels.String())
					sum, cnt := bk[AggrSum], bk[AggrCount]
					if len(sr.Samples) != len(sum) {
						t.Fatalf("%s avg %s: %d pts, want %d", what, sr.Labels, len(sr.Samples), len(sum))
					}
					for i, smp := range sr.Samples {
						if want := sum[i].V / cnt[i].V; smp.V != want || smp.T != sum[i].T {
							t.Fatalf("%s avg %s[%d] = (%d,%g), want (%d,%g)",
								what, sr.Labels, i, smp.T, smp.V, sum[i].T, want)
						}
					}
				}
			}
			check(oneHop, "one-hop", func(k string) map[AggrType][]model.Sample {
				return rawBuckets(rawByKey[k], coarse)
			})
			check(fineB, "fine", func(k string) map[AggrType][]model.Sample {
				return rawBuckets(rawByKey[k], fine)
			})
			check(twoHop, "two-hop", func(k string) map[AggrType][]model.Sample {
				return aggrBuckets(rawBuckets(rawByKey[k], fine), coarse)
			})
			cutFine := deriveByRange(t, cuts, fine)
			check(compactAll(t, deriveByRange(t, cuts, coarse)), fmt.Sprintf("one-hop over %d cuts", len(cuts)), func(k string) map[AggrType][]model.Sample {
				return rawBuckets(rawByKey[k], coarse)
			})
			check(compactAll(t, cutFine), fmt.Sprintf("fine over %d cuts", len(cuts)), func(k string) map[AggrType][]model.Sample {
				return rawBuckets(rawByKey[k], fine)
			})
			check(compactAll(t, deriveByRange(t, cutFine, coarse)), fmt.Sprintf("two-hop over %d cuts", len(cuts)), func(k string) map[AggrType][]model.Sample {
				return aggrBuckets(rawBuckets(rawByKey[k], fine), coarse)
			})

			// Two-hop equals one-hop: bit-exact for count/min/max, up to
			// float associativity for sum (and thus avg).
			for _, aggr := range []AggrType{AggrSum, AggrCount, AggrMin, AggrMax, AggrAvg} {
				a, err := readBlock(oneHop, model.SelectHints{Start: -1 << 60, End: 1 << 60}, aggr, matchAll())
				if err != nil {
					t.Fatal(err)
				}
				b, err := readBlock(twoHop, model.SelectHints{Start: -1 << 60, End: 1 << 60}, aggr, matchAll())
				if err != nil {
					t.Fatal(err)
				}
				if len(a) != len(b) {
					t.Fatalf("aggr %v: series count %d vs %d", aggr, len(a), len(b))
				}
				approx := aggr == AggrSum || aggr == AggrAvg
				for i := range a {
					if !a[i].Labels.Equal(b[i].Labels) || len(a[i].Samples) != len(b[i].Samples) {
						t.Fatalf("aggr %v %s: shape mismatch", aggr, a[i].Labels)
					}
					for j := range a[i].Samples {
						x, y := a[i].Samples[j], b[i].Samples[j]
						if x.T != y.T {
							t.Fatalf("aggr %v %s[%d]: t %d vs %d", aggr, a[i].Labels, j, x.T, y.T)
						}
						if x.V == y.V {
							continue
						}
						if !approx || math.Abs(x.V-y.V) > 1e-9*math.Max(math.Abs(x.V), math.Abs(y.V)) {
							t.Fatalf("aggr %v %s[%d]: v %g vs %g", aggr, a[i].Labels, j, x.V, y.V)
						}
					}
				}
			}
		})
	}
}

func head(s []model.Sample) []model.Sample {
	if len(s) > 3 {
		return s[:3]
	}
	return s
}

// TestDownsampleStaleOnlySeries: a series holding nothing but staleness
// markers must vanish from the downsampled block entirely.
func TestDownsampleStaleOnlySeries(t *testing.T) {
	db := MustOpen(DefaultOptions())
	live := labels.FromStrings(labels.MetricName, "ds", "s", "live")
	stale := labels.FromStrings(labels.MetricName, "ds", "s", "stale")
	for i := int64(0); i < 10; i++ {
		if err := db.Append(live, i*1000, float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := db.Append(stale, i*1000, model.StaleNaN()); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := downsampleWhole("", cutMem(t, db), 5000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readBlock(ds, model.SelectHints{Start: -1 << 60, End: 1 << 60}, AggrCount, matchAll())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Labels.Get("s") != "live" {
		t.Fatalf("stale-only series survived downsampling: %d series", len(got))
	}
}

// TestBlockSelectSizesSamplesOnce: a 30-day raw read allocates each series'
// sample slice once, sized from the index, instead of growing it from nil —
// whatever else a chunk costs to decode, the slice itself is one allocation.
func TestBlockSelectSizesSamplesOnce(t *testing.T) {
	const day = int64(24 * 3600 * 1000)
	db := blockSeedDB(t, 1, 3, int(30*day/60_000), 0, 60_000)
	pb := cutMem(t, db)
	read := seriesReader(pb, 0, 30*day, AggrRaw)
	for i := range pb.series {
		chunks := pb.chunksOf(uint32(i))
		if len(chunks) < 100 {
			t.Fatalf("series %d has %d chunks; fixture too small", i, len(chunks))
		}
		// What decoding the chunks costs with the destination already sized.
		dst := make([]model.Sample, 0, 30*day/60_000)
		decode := testing.AllocsPerRun(5, func() {
			out := dst[:0]
			for _, c := range chunks {
				var err error
				ch, err := pb.decodeChunk(&c)
				if err != nil {
					t.Fatal(err)
				}
				if out, err = appendChunk(out, &ch, nil, 0, 30*day, nil); err != nil {
					t.Fatal(err)
				}
			}
		})
		total := testing.AllocsPerRun(5, func() {
			samples, err := read(i)
			if err != nil || len(samples) != int(30*day/60_000) {
				t.Fatalf("got %d samples, err %v", len(samples), err)
			}
		})
		// One slice; the runtime may count a large object as two mallocs.
		// Grown from nil it is twenty-odd.
		if total > decode+2 {
			t.Errorf("series %d: %.0f allocations, of which %.0f decode chunks: the sample slice was allocated %.0f times, want once",
				i, total, decode, total-decode)
		}
		if samples, _ := read(i); cap(samples) != len(samples) {
			t.Errorf("series %d: %d samples in a slice of capacity %d; the index knows the count", i, len(samples), cap(samples))
		}
	}
}

// TestBlockSampleHintCapped: the reservation trusts the indexed sample
// count only as far as the chunk's bytes could hold it.
func TestBlockSampleHintCapped(t *testing.T) {
	pb := cutMem(t, blockSeedDB(t, 1, 1, 500, 0, 15_000))
	c := pb.entries[0]
	if got := pb.sampleHint(&c); got != int(c.numSamples) {
		t.Errorf("honest chunk: hint %d, want its %d samples", got, c.numSamples)
	}
	if 8*len(pb.chunks) >= math.MaxUint16 {
		t.Fatalf("test setup: a %d-byte segment could hold the largest count", len(pb.chunks))
	}
	c.numSamples = math.MaxUint16
	if got, max := pb.sampleHint(&c), int(8*c.length); got != max {
		t.Errorf("numSamples=%d: hint %d, want the cap %d", c.numSamples, got, max)
	}
	c.length = math.MaxUint32 // both corrupt: bounded by the segment
	if got, max := pb.sampleHint(&c), 8*len(pb.chunks); got != max {
		t.Errorf("corrupt length: hint %d, want at most %d", got, max)
	}
}

// TestBlockChunkEntryPacked: the chunk entry an open block keeps per chunk is
// at most 32 bytes and its series at most 16, neither holding a pointer, so
// a block's entries and series are arrays the collector does not scan; the
// series of an open block hold their chunks as a range of the entries and
// their labels as a range of one array of pair ids.
func TestBlockChunkEntryPacked(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		size uintptr
	}{{reflect.TypeOf(diskChunk{}), 32}, {reflect.TypeOf(blockSeries{}), 16}} {
		if c.typ.Size() > c.size {
			t.Errorf("%s is %d bytes, want at most %d", c.typ, c.typ.Size(), c.size)
		}
		for i := range c.typ.NumField() {
			switch f := c.typ.Field(i); f.Type.Kind() {
			case reflect.Int64, reflect.Uint64, reflect.Uint32, reflect.Uint16, reflect.Uint8:
			default:
				t.Errorf("%s.%s is a %s, want a fixed-width integer", c.typ, f.Name, f.Type)
			}
		}
	}
	pb := cutMem(t, blockSeedDB(t, 1, 3, 500, 0, 15_000))
	defer pb.Close()
	next, nextID := uint32(0), uint32(0)
	for pos, s := range pb.series {
		if s.lo != next || s.hi < s.lo || len(pb.chunksOf(uint32(pos))) == 0 {
			t.Fatalf("series %d holds entries [%d, %d), want a range from %d", pos, s.lo, s.hi, next)
		}
		if s.first != nextID || s.end <= s.first {
			t.Fatalf("series %d holds pair ids [%d, %d), want a range from %d", pos, s.first, s.end, nextID)
		}
		next, nextID = s.hi, s.end
	}
	if int(next) != len(pb.entries) || cap(pb.entries) != len(pb.entries) {
		t.Fatalf("series cover %d of %d entries (capacity %d)", next, len(pb.entries), cap(pb.entries))
	}
	if int(nextID) != len(pb.ids) || cap(pb.ids) != len(pb.ids) {
		t.Fatalf("series cover %d of %d pair ids (capacity %d)", nextID, len(pb.ids), cap(pb.ids))
	}
}
