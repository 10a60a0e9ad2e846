package tsdb

import (
	"crypto/sha256"
	"errors"
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

// The maintenance path as it was before compaction and downsampling wrote
// through seriesCutter, kept as the oracle: every input block decoded whole
// into per-aggregate streams, the lists merged, every tombstone tested
// against every merged series, the streams re-encoded by a chunker of their
// own and the result sorted again.

// aggrSeries is one series' per-aggregate sample streams. Raw data lives
// under AggrRaw; downsampled data under AggrSum..AggrMax.
type aggrSeries struct {
	lset    labels.Labels
	streams map[AggrType][]model.Sample
}

// storedAggrs lists the aggregate streams a block of the given resolution
// stores.
func storedAggrs(resolution int64) []AggrType {
	if resolution == 0 {
		return []AggrType{AggrRaw}
	}
	return []AggrType{AggrSum, AggrCount, AggrMin, AggrMax}
}

// allAggrSeries decodes the whole block into per-aggregate streams, in
// index (label-sorted) order.
func (pb *PersistentBlock) allAggrSeries() ([]aggrSeries, error) {
	aggrs := storedAggrs(pb.meta.Resolution)
	out := make([]aggrSeries, 0, len(pb.series))
	for i := range pb.series {
		s := &pb.series[i]
		as := aggrSeries{lset: s.lset, streams: make(map[AggrType][]model.Sample, len(aggrs))}
		for _, a := range aggrs {
			var stream []model.Sample
			for _, c := range s.chunks {
				if c.aggr != a {
					continue
				}
				ch, err := pb.decodeChunk(&c)
				if err != nil {
					return nil, err
				}
				// Sample by sample through Next, not the fused read loop
				// the code under test decodes with.
				it := ch.Iterator()
				for it.Next() {
					t, v := it.At()
					stream = append(stream, model.Sample{T: t, V: v})
				}
				if err := it.Err(); err != nil {
					return nil, err
				}
			}
			as.streams[a] = stream
		}
		out = append(out, as)
	}
	return out, nil
}

// diskSeriesFromAggr re-encodes per-aggregate streams into index entries,
// splitting chunks at maxPerChunk samples.
func diskSeriesFromAggr(in []aggrSeries, maxPerChunk int) ([]diskSeries, int64, int64, error) {
	mint, maxt := int64(1)<<62, -(int64(1) << 62)
	out := make([]diskSeries, 0, len(in))
	for _, as := range in {
		var ds diskSeries
		ds.lset = as.lset
		for _, a := range []AggrType{AggrRaw, AggrSum, AggrCount, AggrMin, AggrMax} {
			stream := as.streams[a]
			if len(stream) == 0 {
				continue
			}
			chunks, err := chunksFromSamples(stream, a, maxPerChunk)
			if err != nil {
				return nil, 0, 0, err
			}
			ds.chunks = append(ds.chunks, chunks...)
			if stream[0].T < mint {
				mint = stream[0].T
			}
			if t := stream[len(stream)-1].T; t > maxt {
				maxt = t
			}
		}
		if len(ds.chunks) == 0 {
			continue
		}
		out = append(out, ds)
	}
	sort.Slice(out, func(i, j int) bool { return labels.Compare(out[i].lset, out[j].lset) < 0 })
	return out, mint, maxt, nil
}

// chunksFromSamples encodes one sample stream into diskChunk entries.
func chunksFromSamples(samples []model.Sample, aggr AggrType, maxPerChunk int) ([]diskChunk, error) {
	if maxPerChunk <= 0 {
		maxPerChunk = 120
	}
	var out []diskChunk
	for len(samples) > 0 {
		n := min(len(samples), maxPerChunk)
		c := chunkenc.NewChunk()
		for _, smp := range samples[:n] {
			if err := c.Append(smp.T, smp.V); err != nil {
				return nil, err
			}
		}
		out = append(out, diskChunk{aggr: aggr, minT: samples[0].T, maxT: samples[n-1].T, numSamples: n, payload: c.Bytes()})
		samples = samples[n:]
	}
	return out, nil
}

// withoutDeleted drops from as's streams the points at or before the
// newest maxt of the tombstones whose matchers lset satisfies.
func withoutDeleted(as aggrSeries, tombs []TombstoneRec) aggrSeries {
	floor, del := int64(math.MinInt64), false
	for _, t := range tombs {
		if len(t.Matchers) > 0 && labels.MatchLabels(as.lset, t.Matchers...) {
			floor, del = max(floor, t.MaxT), true
		}
	}
	if !del {
		return as
	}
	out := aggrSeries{lset: as.lset, streams: map[AggrType][]model.Sample{}}
	for a, st := range as.streams {
		for _, smp := range st {
			if smp.T > floor {
				out.streams[a] = append(out.streams[a], smp)
			}
		}
	}
	return out
}

// mergeAggrSeriesLists merges per-block series lists (each label-sorted)
// into one label-sorted list; the earliest list wins a timestamp.
func mergeAggrSeriesLists(lists [][]aggrSeries) []aggrSeries {
	return model.MergeSorted(lists,
		func(a, b aggrSeries) int { return labels.Compare(a.lset, b.lset) },
		func(run []aggrSeries) aggrSeries {
			byAggr := map[AggrType][][]model.Sample{}
			for _, as := range run {
				for a, st := range as.streams {
					byAggr[a] = append(byAggr[a], st)
				}
			}
			acc := aggrSeries{lset: run[0].lset, streams: make(map[AggrType][]model.Sample, len(byAggr))}
			for a, streams := range byAggr {
				acc.streams[a] = model.MergeSamples(streams)
			}
			return acc
		})
}

// oracleFinish is the old tail of both builds: in memory, or written and
// reopened.
func oracleFinish(parent string, meta *BlockMeta, series []diskSeries) (*PersistentBlock, error) {
	if parent == "" {
		return newMemPersistentBlock(meta, series)
	}
	dir, err := writeBlockDir(parent, meta, series)
	if err != nil {
		return nil, err
	}
	return OpenBlockDir(dir)
}

// oracleCompact is CompactPersistentBlocks as it was.
func oracleCompact(parent string, blocks []*PersistentBlock, tombs []TombstoneRec) (*PersistentBlock, error) {
	res := blocks[0].meta.Resolution
	level := blocks[0].meta.Level
	inMin, inMax := blocks[0].meta.MinTime, blocks[0].meta.MaxTime
	sources := make([]string, 0, len(blocks))
	for _, b := range blocks {
		if b.meta.Resolution != res {
			return nil, fmt.Errorf("tsdb: compact: mixed resolutions (%d vs %d)", res, b.meta.Resolution)
		}
		level = max(level, b.meta.Level)
		inMin, inMax = min(inMin, b.meta.MinTime), max(inMax, b.meta.MaxTime)
		sources = append(sources, b.meta.ULID)
	}
	lists := make([][]aggrSeries, len(blocks))
	for i, b := range blocks {
		var err error
		if lists[i], err = b.allAggrSeries(); err != nil {
			return nil, err
		}
	}
	merged := mergeAggrSeriesLists(lists)
	kept := merged[:0]
	for _, as := range merged {
		if as = withoutDeleted(as, tombs); len(as.streams) > 0 {
			kept = append(kept, as)
		}
	}
	series, mint, maxt, err := diskSeriesFromAggr(kept, 0)
	if err != nil {
		return nil, err
	}
	if mint > maxt || res > 0 { // a downsampled block's bounds are the ranges it holds
		mint, maxt = inMin, inMax
	}
	return oracleFinish(parent, &BlockMeta{MinTime: mint, MaxTime: maxt, Level: level + 1, Resolution: res, Sources: sources}, series)
}

// bucketAggr accumulates one resolution bucket.
type bucketAggr struct {
	start         int64
	sum, min, max float64
	count         float64
	some          bool
}

// downsampleRaw buckets a raw sample stream, dropping staleness markers.
func downsampleRaw(raw []model.Sample, res int64) map[AggrType][]model.Sample {
	streams := map[AggrType][]model.Sample{}
	var cur bucketAggr
	flush := func() {
		if !cur.some {
			return
		}
		t := cur.start + res - 1
		streams[AggrSum] = append(streams[AggrSum], model.Sample{T: t, V: cur.sum})
		streams[AggrCount] = append(streams[AggrCount], model.Sample{T: t, V: cur.count})
		streams[AggrMin] = append(streams[AggrMin], model.Sample{T: t, V: cur.min})
		streams[AggrMax] = append(streams[AggrMax], model.Sample{T: t, V: cur.max})
		cur = bucketAggr{}
	}
	for _, smp := range raw {
		if model.IsStaleNaN(smp.V) {
			continue
		}
		bs := floorDiv(smp.T, res) * res
		if !cur.some || bs != cur.start {
			flush()
			cur = bucketAggr{start: bs, sum: smp.V, count: 1, min: smp.V, max: smp.V, some: true}
			continue
		}
		cur.sum += smp.V
		cur.count++
		if smp.V < cur.min {
			cur.min = smp.V
		}
		if smp.V > cur.max {
			cur.max = smp.V
		}
	}
	flush()
	return streams
}

// downsampleAggr re-buckets already-downsampled streams to a coarser
// multiple. It reads as many points as the shortest stream holds.
func downsampleAggr(src map[AggrType][]model.Sample, srcRes, res int64) map[AggrType][]model.Sample {
	sums, counts := src[AggrSum], src[AggrCount]
	mins, maxs := src[AggrMin], src[AggrMax]
	streams := map[AggrType][]model.Sample{}
	var cur bucketAggr
	flush := func() {
		if !cur.some {
			return
		}
		t := cur.start + res - 1
		streams[AggrSum] = append(streams[AggrSum], model.Sample{T: t, V: cur.sum})
		streams[AggrCount] = append(streams[AggrCount], model.Sample{T: t, V: cur.count})
		streams[AggrMin] = append(streams[AggrMin], model.Sample{T: t, V: cur.min})
		streams[AggrMax] = append(streams[AggrMax], model.Sample{T: t, V: cur.max})
		cur = bucketAggr{}
	}
	n := min(len(sums), len(counts), len(mins), len(maxs))
	for i := 0; i < n; i++ {
		srcStart := sums[i].T - srcRes + 1
		bs := floorDiv(srcStart, res) * res
		if !cur.some || bs != cur.start {
			flush()
			cur = bucketAggr{start: bs, sum: sums[i].V, count: counts[i].V, min: mins[i].V, max: maxs[i].V, some: true}
			continue
		}
		cur.sum += sums[i].V
		cur.count += counts[i].V
		if mins[i].V < cur.min {
			cur.min = mins[i].V
		}
		if maxs[i].V > cur.max {
			cur.max = maxs[i].V
		}
	}
	flush()
	return streams
}

// oracleDownsample is DownsamplePersistentBlock as it was — every bucket of
// one block, emitted at its end — but for the bounds, which are now the
// range derived (downsampleWhole's); a source with no non-stale sample
// still yields a block, with no series.
func oracleDownsample(parent string, b *PersistentBlock, resolution int64) (*PersistentBlock, error) {
	srcRes := b.meta.Resolution
	in, err := b.allAggrSeries()
	if err != nil {
		return nil, err
	}
	out := make([]aggrSeries, 0, len(in))
	for _, as := range in {
		var streams map[AggrType][]model.Sample
		if srcRes == 0 {
			streams = downsampleRaw(as.streams[AggrRaw], resolution)
		} else {
			streams = downsampleAggr(as.streams, srcRes, resolution)
		}
		if len(streams[AggrCount]) == 0 {
			continue
		}
		out = append(out, aggrSeries{lset: as.lset, streams: streams})
	}
	series, _, _, err := diskSeriesFromAggr(out, 0)
	if err != nil {
		return nil, err
	}
	mint, maxt := floorDiv(b.meta.MinTime, resolution)*resolution, (floorDiv(b.meta.MaxTime, resolution)+1)*resolution-1
	return oracleFinish(parent, &BlockMeta{MinTime: mint, MaxTime: maxt, Level: b.meta.Level, Resolution: resolution, Sources: []string{b.meta.ULID}}, series)
}

// blockFilesHash is the sha256 of a block's index and chunks bytes: the
// files of a directory block, what they would hold for an in-memory one.
func blockFilesHash(t *testing.T, pb *PersistentBlock) [sha256.Size]byte {
	t.Helper()
	if pb.Dir() == "" {
		return sha256.Sum256(append(encodeIndex(pb.series), pb.chunks...))
	}
	var data []byte
	for _, f := range []string{IndexFilename, ChunksFilename} {
		b, err := os.ReadFile(filepath.Join(pb.Dir(), f))
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, b...)
	}
	return sha256.Sum256(data)
}

// assertSameBlock fails unless got and want carry the same bytes and the
// same meta.json fields but for ULID.
func assertSameBlock(t *testing.T, got, want *PersistentBlock, what string) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: block %v, oracle %v", what, got, want)
	}
	if blockFilesHash(t, got) != blockFilesHash(t, want) {
		t.Fatalf("%s: index+chunks differ from the oracle's (%d vs %d series, stats %+v vs %+v)", what, len(got.series), len(want.series), got.meta.Stats, want.meta.Stats)
	}
	g, w := got.Meta(), want.Meta()
	if g.MinTime != w.MinTime || g.MaxTime != w.MaxTime || g.Level != w.Level || g.Resolution != w.Resolution ||
		!reflect.DeepEqual(g.Sources, w.Sources) || g.Stats != w.Stats || g.Version != w.Version {
		t.Fatalf("%s: meta %+v, oracle %+v", what, g, w)
	}
}

// randMaintenanceHead fills a head with samples of some of the label sets
// in pool over [start, start+span): random chunk size, stale markers, and
// out-of-order appends when the head accepts them. Values carry tag so
// blocks holding the same timestamp disagree on its value.
func randMaintenanceHead(t *testing.T, rng *rand.Rand, pool []labels.Labels, start, span int64, tag float64) *DB {
	t.Helper()
	opts := Options{Shards: 1 << rng.Intn(3), MaxSamplesPerChunk: 1 + rng.Intn(150)}
	if rng.Intn(2) == 0 {
		opts.OutOfOrderWindow = span
	}
	db := MustOpen(opts)
	step := int64(1000 * (1 + rng.Intn(20)))
	for _, lset := range pool {
		if rng.Intn(10) < 3 { // series present in only some blocks
			continue
		}
		staleOnly := rng.Intn(12) == 0
		for ts := start + int64(rng.Intn(int(step))); ts < start+span; ts += step * int64(1+rng.Intn(2)) {
			v := tag + float64(rng.Intn(1000))/8
			if staleOnly || rng.Intn(15) == 0 {
				v = model.StaleNaN()
			}
			at := ts
			if opts.OutOfOrderWindow > 0 && rng.Intn(6) == 0 {
				at -= step * int64(1+rng.Intn(5)) // lands behind the head's newest sample
			}
			if err := db.Append(lset, at, v); err != nil && !errors.Is(err, ErrOutOfOrder) {
				t.Fatal(err)
			}
		}
	}
	return db
}

// randTombstones draws up to two tombstones — equality, negation, regexps
// and {name=""}, through a time within the span of the inputs or through
// the end of time — and one without matchers, which deletes nothing.
func randTombstones(rng *rand.Rand, span int64) []TombstoneRec {
	tombs := []TombstoneRec{{Seq: 1, MaxT: math.MaxInt64}}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		ms := randPostingsMatchers(rng)[:1]
		if rng.Intn(2) == 0 { // narrowed to one metric, so the output is seldom empty
			ms = append(ms, labels.MustMatcher(labels.MatchEqual, labels.MetricName, fmt.Sprintf("m%d", rng.Intn(4))))
		}
		maxt := int64(math.MaxInt64)
		if rng.Intn(3) > 0 {
			maxt = rng.Int63n(4 * span)
		}
		tombs = append(tombs, TombstoneRec{Seq: uint64(i + 2), MaxT: maxt, Matchers: ms})
	}
	rng.Shuffle(len(tombs), func(i, j int) { tombs[i], tombs[j] = tombs[j], tombs[i] })
	return tombs
}

// TestCompactMatchesOracleRandom: over random inputs — cuts with random
// chunk sizes, out-of-order samples and stale markers; overlapping and
// disjoint windows; series only some blocks hold; raw blocks and 2-hop
// downsampled ones; random time-bounded tombstones, the one that deletes
// everything among them — compaction writes the block the old whole-block
// path wrote, without the deleted samples, byte for byte, with the same
// meta.
func TestCompactMatchesOracleRandom(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(0xC0DE + trial)))
		parent := ""
		if rng.Intn(2) == 0 {
			parent = t.TempDir()
		}
		pool := make([]labels.Labels, 3+rng.Intn(30))
		for i := range pool {
			pool[i] = randPostingsLabels(rng)
		}
		span := int64(60_000 * (5 + rng.Intn(60)))
		disjoint := rng.Intn(2) == 0
		fine := int64(10_000 * (1 + rng.Intn(6)))
		coarse := fine * int64(2+rng.Intn(4))
		downsampled := rng.Intn(3) == 0
		var blocks []*PersistentBlock
		for bi, k := 0, 2+rng.Intn(3); bi < k; bi++ {
			start := int64(bi) * span
			if !disjoint {
				start = int64(rng.Intn(int(span)))
			}
			b, err := randMaintenanceHead(t, rng, pool, start, span, float64(bi)*1e6).CutPersistentBlock(parent, -1<<60, 1<<60)
			if err != nil {
				t.Fatal(err)
			}
			if b != nil && downsampled {
				if b, err = downsampleWhole(parent, b, fine); err != nil {
					t.Fatal(err)
				}
				if b, err = downsampleWhole(parent, b, coarse); err != nil {
					t.Fatal(err)
				}
			}
			if b != nil {
				blocks = append(blocks, b)
			}
		}
		if len(blocks) == 0 {
			continue
		}
		tombs := randTombstones(rng, span)
		if rng.Intn(8) == 0 {
			tombs = append(tombs, TombstoneRec{Seq: 9, MaxT: math.MaxInt64, Matchers: []*labels.Matcher{labels.MustMatcher(labels.MatchRegexp, labels.MetricName, ".+")}})
		}
		what := fmt.Sprintf("trial %d (%d blocks, disjoint %v, downsampled %v, tombstones %v, dir %v)", trial, len(blocks), disjoint, downsampled, tombs, parent != "")
		want, err := oracleCompact(parent, blocks, tombs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CompactPersistentBlocks(parent, blocks, tombs)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		assertSameBlock(t, got, want, what)
		for _, b := range append(blocks, got, want) {
			b.Close()
		}
	}
}

// TestDownsampleMatchesOracleRandom: downsampling random raw blocks — cut
// or compacted, with out-of-order samples, stale markers and stale-only
// series — to a fine resolution and on to a coarse one writes the blocks
// the old path wrote, byte for byte, a block with no series included: it
// records that the range is derived.
func TestDownsampleMatchesOracleRandom(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(0xD05A + trial)))
		parent := ""
		if rng.Intn(2) == 0 {
			parent = t.TempDir()
		}
		pool := make([]labels.Labels, 1+rng.Intn(25))
		for i := range pool {
			pool[i] = randPostingsLabels(rng)
		}
		span := int64(60_000 * (5 + rng.Intn(120)))
		start := int64(rng.Intn(int(span))) - span/2 // may start negative
		src, err := randMaintenanceHead(t, rng, pool, start, span, 0).CutPersistentBlock(parent, -1<<60, 1<<60)
		if err != nil {
			t.Fatal(err)
		}
		if src == nil {
			continue
		}
		if rng.Intn(3) == 0 {
			more, err := randMaintenanceHead(t, rng, pool, start+span/2, span, 1e6).CutPersistentBlock(parent, -1<<60, 1<<60)
			if err != nil {
				t.Fatal(err)
			}
			if more != nil {
				if src, err = CompactPersistentBlocks(parent, []*PersistentBlock{src, more}, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		fine := int64(1000 * (1 + rng.Intn(60)))
		for hop, res := range []int64{fine, fine * int64(2+rng.Intn(5))} {
			what := fmt.Sprintf("trial %d hop %d: res %d from %d, dir %v", trial, hop, res, src.meta.Resolution, parent != "")
			want, err := oracleDownsample(parent, src, res)
			if err != nil {
				t.Fatal(err)
			}
			got, err := downsampleWhole(parent, src, res)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			assertSameBlock(t, got, want, what)
			if want.meta.Stats.NumSeries == 0 {
				break
			}
			src = got
		}
	}
}

// aggrChunk encodes pts as one chunk of aggr.
func aggrChunk(t *testing.T, aggr AggrType, pts []model.Sample) diskChunk {
	t.Helper()
	chunks, err := chunksFromSamples(pts, aggr, len(pts))
	if err != nil || len(chunks) != 1 {
		t.Fatalf("encode %s: %d chunks, err %v", aggr, len(chunks), err)
	}
	return chunks[0]
}

// TestDownsampleRejectsUnalignedAggregates: a downsampled block whose four
// streams disagree — a stream one point short, a point's timestamp shifted
// — is an error naming the block and the series, not a block built from the
// shortest stream. The read path is unchanged: it still refuses an average
// over sum and count streams that disagree, and serves the rest as stored.
func TestDownsampleRejectsUnalignedAggregates(t *testing.T) {
	const res = 10_000
	lset := labels.FromStrings(labels.MetricName, "ds", "s", "broken")
	for _, tc := range []struct {
		name     string
		aggr     AggrType // the stream that is broken
		short    bool     // its last point is missing, else its second is shifted
		avgFails bool     // the read path notices: count is broken
	}{
		{"min_short", AggrMin, true, false},
		{"min_shifted", AggrMin, false, false},
		{"count_short", AggrCount, true, true},
		{"count_shifted", AggrCount, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var chunks []diskChunk
			for a := AggrSum; a <= AggrMax; a++ {
				pts := []model.Sample{{T: res - 1, V: 4}, {T: 2*res - 1, V: 2}, {T: 3*res - 1, V: 1}}
				if a == tc.aggr {
					if tc.short {
						pts = pts[:2]
					} else {
						pts[1].T++
					}
				}
				chunks = append(chunks, aggrChunk(t, a, pts))
			}
			pb, err := newMemPersistentBlock(&BlockMeta{MinTime: res - 1, MaxTime: 3*res - 1, Level: 1, Resolution: res}, []diskSeries{{lset: lset, chunks: chunks}})
			if err != nil {
				t.Fatal(err)
			}
			_, err = downsampleWhole("", pb, 6*res)
			if err == nil || !strings.Contains(err.Error(), pb.meta.ULID) || !strings.Contains(err.Error(), lset.String()) {
				t.Fatalf("downsample: err %v, want one naming block %s and series %s", err, pb.meta.ULID, lset)
			}
			if _, err := readBlock(pb, model.SelectHints{Start: -1 << 60, End: 1 << 60}, AggrAvg, matchAll()); (err != nil) != tc.avgFails {
				t.Fatalf("avg select: err %v, want an error %v", err, tc.avgFails)
			}
			got, err := readBlock(pb, model.SelectHints{Start: -1 << 60, End: 1 << 60}, tc.aggr, matchAll())
			if err != nil || len(got) != 1 {
				t.Fatalf("%s select: %v, err %v; want the stream as stored", tc.aggr, got, err)
			}
		})
	}
}
