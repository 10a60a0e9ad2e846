package tsdb

// Compaction and downsampling over persistent blocks.
//
// CompactPersistentBlocks merges same-resolution blocks into one
// next-level block: series are k-way merged by labels, overlapping samples
// deduplicated per timestamp (the earliest block in the caller's order
// wins, matching the store's read-path dedup), and matcher-level tombstones
// drop whole series so a delete eventually propagates into cold storage.
// The new block is published durably BEFORE any source is deleted — a crash
// between the two leaves overlapping duplicates, which the read path dedups
// and a later compaction folds away, never data loss.
//
// DownsamplePersistentBlock derives a lower-resolution sibling: for every
// resolution bucket [bs, bs+res) it stores the sum, count, min and max of
// the bucket's non-stale samples, each as its own Gorilla chunk stream,
// emitted at timestamp bs+res-1. Aggregating an already-downsampled block
// to a coarser multiple combines aggregates-of-aggregates (sum of sums,
// sum of counts, min of mins, max of maxes), which preserves exactness.
// Staleness markers never enter aggregates; a bucket holding only markers
// emits nothing.

import (
	"fmt"

	"repro/internal/labels"
	"repro/internal/model"
)

// CompactPersistentBlocks merges blocks (all of one resolution) into a new
// persistent block under parent (in memory when parent == ""), applying the
// tombstones. Sources are NOT deleted — the caller deletes them after the
// returned block is durably published. On a timestamp collision within a
// series the earliest block in blocks order wins.
func CompactPersistentBlocks(parent string, blocks []*PersistentBlock, tombs []TombstoneRec) (*PersistentBlock, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("tsdb: compact: no input blocks")
	}
	res := blocks[0].meta.Resolution
	level := blocks[0].meta.Level
	inMin, inMax := blocks[0].meta.MinTime, blocks[0].meta.MaxTime
	sources := make([]string, 0, len(blocks))
	for _, b := range blocks {
		if b.meta.Resolution != res {
			return nil, fmt.Errorf("tsdb: compact: mixed resolutions (%d vs %d)", res, b.meta.Resolution)
		}
		if b.meta.Level > level {
			level = b.meta.Level
		}
		if b.meta.MinTime < inMin {
			inMin = b.meta.MinTime
		}
		if b.meta.MaxTime > inMax {
			inMax = b.meta.MaxTime
		}
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
	if len(tombs) > 0 {
		kept := merged[:0]
		for _, as := range merged {
			if !tombstoned(as.lset, tombs) {
				kept = append(kept, as)
			}
		}
		merged = kept
	}
	series, mint, maxt, err := diskSeriesFromAggr(merged, 0)
	if err != nil {
		return nil, err
	}
	if mint > maxt { // everything tombstoned or empty inputs
		mint, maxt = inMin, inMax
	}
	meta := &BlockMeta{
		MinTime:    mint,
		MaxTime:    maxt,
		Level:      level + 1,
		Resolution: res,
		Sources:    sources,
	}
	if parent == "" {
		return newMemPersistentBlock(meta, series)
	}
	dir, err := writeBlockDir(parent, meta, series)
	if err != nil {
		return nil, err
	}
	return OpenBlockDir(dir)
}

// tombstoned reports whether lset matches any tombstone's matcher set.
func tombstoned(lset labels.Labels, tombs []TombstoneRec) bool {
	for _, t := range tombs {
		if len(t.Matchers) > 0 && labels.MatchLabels(lset, t.Matchers...) {
			return true
		}
	}
	return false
}

// mergeAggrSeriesLists merges per-block series lists (each label-sorted)
// into one label-sorted list. A label set several blocks hold gets, per
// aggregate, the merge of its streams; the earliest list wins a timestamp.
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

// floorDiv is integer division rounding toward negative infinity, so bucket
// assignment is correct for negative timestamps too.
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// bucketAggr accumulates one resolution bucket.
type bucketAggr struct {
	start         int64
	sum, min, max float64
	count         float64
	some          bool
}

// DownsamplePersistentBlock derives a block at the given resolution (ms)
// from b, under parent (in memory when parent == ""). b may be raw or a
// finer downsampled block whose resolution divides the target. The source
// block is left in place — multi-resolution stores keep raw and downsampled
// siblings side by side and pick per query.
func DownsamplePersistentBlock(parent string, b *PersistentBlock, resolution int64) (*PersistentBlock, error) {
	if resolution <= 0 {
		return nil, fmt.Errorf("tsdb: downsample: resolution must be positive")
	}
	srcRes := b.meta.Resolution
	if srcRes >= resolution {
		return nil, fmt.Errorf("tsdb: downsample: target %dms not coarser than source %dms", resolution, srcRes)
	}
	if srcRes > 0 && resolution%srcRes != 0 {
		return nil, fmt.Errorf("tsdb: downsample: target %dms not a multiple of source %dms", resolution, srcRes)
	}
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
	series, mint, maxt, err := diskSeriesFromAggr(out, 0)
	if err != nil {
		return nil, err
	}
	if mint > maxt {
		mint, maxt = b.meta.MinTime, b.meta.MaxTime
	}
	meta := &BlockMeta{
		MinTime:    mint,
		MaxTime:    maxt,
		Level:      b.meta.Level,
		Resolution: resolution,
		Sources:    []string{b.meta.ULID},
	}
	if parent == "" {
		return newMemPersistentBlock(meta, series)
	}
	dir, err := writeBlockDir(parent, meta, series)
	if err != nil {
		return nil, err
	}
	return OpenBlockDir(dir)
}

// downsampleRaw buckets a raw sample stream. Staleness markers are dropped
// before aggregation; a bucket of only markers emits nothing.
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
// multiple, combining aggregates of aggregates (exactness-preserving).
// The four streams share timestamps by construction.
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
	n := len(sums)
	if len(counts) < n {
		n = len(counts)
	}
	if len(mins) < n {
		n = len(mins)
	}
	if len(maxs) < n {
		n = len(maxs)
	}
	for i := 0; i < n; i++ {
		// The source point was emitted at its bucket's end; recover the
		// bucket start to assign the output bucket.
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
