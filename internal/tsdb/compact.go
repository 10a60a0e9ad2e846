package tsdb

// Compaction and downsampling over persistent blocks.
//
// Both build their block as the cut does: series by series, in label order,
// every chunk written by a seriesCutter, the result opened by finishBlock.
// What is resident is one series' decoded samples plus the output block's
// encoded chunks — never a decoded input block.
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
	"slices"

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
	meta := &BlockMeta{
		MinTime:    blocks[0].meta.MinTime,
		MaxTime:    blocks[0].meta.MaxTime,
		Resolution: blocks[0].meta.Resolution,
		Sources:    make([]string, 0, len(blocks)),
	}
	n := 0
	for _, b := range blocks {
		if b.meta.Resolution != meta.Resolution {
			return nil, fmt.Errorf("tsdb: compact: mixed resolutions (%d vs %d)", meta.Resolution, b.meta.Resolution)
		}
		// The inputs' bounds stand when every series is tombstoned.
		meta.MinTime = min(meta.MinTime, b.meta.MinTime)
		meta.MaxTime = max(meta.MaxTime, b.meta.MaxTime)
		meta.Level = max(meta.Level, b.meta.Level+1)
		meta.Sources = append(meta.Sources, b.meta.ULID)
		n += len(b.series)
	}
	// With a nil combine the merge keeps every series, equal label sets next
	// to each other in block order: a run of equal neighbours is one output
	// series, its first member from the block that wins a timestamp.
	refs := make([]blockSeriesRef, 0, n)
	parts := make([][]blockSeriesRef, len(blocks))
	for bi, b := range blocks {
		lo := len(refs)
		for pos := range b.series {
			refs = append(refs, blockSeriesRef{s: &b.series[pos], blk: uint32(bi), pos: uint32(pos)})
		}
		parts[bi] = refs[lo:]
	}
	all := model.MergeSorted(parts, func(a, b blockSeriesRef) int { return labels.Compare(a.s.lset, b.s.lset) }, nil)
	dead := deadSeries(blocks, tombs)
	var (
		series  []diskSeries
		streams = make([][]model.Sample, len(blocks)) // one per run member, reused
		sc      = seriesCutter{maxPerChunk: defaultSamplesPerChunk}
	)
	for lo := 0; lo < len(all); {
		hi := lo + 1
		for hi < len(all) && all[hi].s.lset.Equal(all[lo].s.lset) {
			hi++
		}
		run := all[lo:hi]
		lo = hi
		// Tombstones match labels, so one member's verdict is the run's.
		if dead != nil && dead[run[0].blk][run[0].pos] {
			continue
		}
		for sc.aggr = AggrRaw; sc.aggr <= AggrMax; sc.aggr++ {
			for j, r := range run {
				var err error
				if streams[j], err = blocks[r.blk].appendStream(streams[j][:0], r.s, sc.aggr); err != nil {
					return nil, err
				}
			}
			for _, smp := range model.MergeSamples(streams[:len(run)]) {
				if err := sc.add(smp.T, smp.V); err != nil {
					return nil, err
				}
			}
			sc.flush()
		}
		if len(sc.chunks) > 0 {
			series = append(series, diskSeries{lset: run[0].s.lset, chunks: slices.Clone(sc.chunks)})
			sc.chunks = sc.chunks[:0]
		}
	}
	return finishBlock(parent, meta, series)
}

// blockSeriesRef is one series of one compaction input.
type blockSeriesRef struct {
	s        *diskSeries
	blk, pos uint32
}

// deadSeries marks, per block, the positions of the series some tombstone
// deletes, each tombstone resolved once per block through its index. A
// tombstone without matchers deletes nothing; nil means nothing is dead.
func deadSeries(blocks []*PersistentBlock, tombs []TombstoneRec) [][]bool {
	var dead [][]bool
	for _, t := range tombs {
		if len(t.Matchers) == 0 {
			continue
		}
		if dead == nil {
			dead = make([][]bool, len(blocks))
			for bi, b := range blocks {
				dead[bi] = make([]bool, len(b.series))
			}
		}
		for bi, b := range blocks {
			b.forMatching(t.Matchers, func(pos uint32) bool {
				dead[bi][pos] = true
				return true
			})
		}
	}
	return dead
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

// downsampler folds one series' points into resolution buckets and writes
// every closed bucket straight into its four aggregate cutters.
type downsampler struct {
	res  int64
	cuts [4]seriesCutter // AggrSum, AggrCount, AggrMin, AggrMax

	// The open bucket, [start, start+res).
	start                int64
	sum, count, min, max float64
	open                 bool
}

// add folds the point (sum, count, min, max) into the bucket starting at
// bs, closing the open bucket first when bs starts another. A raw sample v
// is the point (v, 1, v, v).
func (d *downsampler) add(bs int64, sum, count, min, max float64) error {
	if d.open && bs == d.start {
		d.sum += sum
		d.count += count
		if min < d.min {
			d.min = min
		}
		if max > d.max {
			d.max = max
		}
		return nil
	}
	if err := d.close(); err != nil {
		return err
	}
	d.start, d.sum, d.count, d.min, d.max, d.open = bs, sum, count, min, max, true
	return nil
}

// close emits the open bucket, if any, at its last timestamp.
func (d *downsampler) close() error {
	if !d.open {
		return nil
	}
	d.open = false
	t := d.start + d.res - 1
	for k, v := range [4]float64{d.sum, d.count, d.min, d.max} {
		if err := d.cuts[k].add(t, v); err != nil {
			return err
		}
	}
	return nil
}

// finish closes the series' last bucket and returns its chunks, sum stream
// first, leaving the cutters empty for the next series.
func (d *downsampler) finish() ([]diskChunk, error) {
	if err := d.close(); err != nil {
		return nil, err
	}
	n := 0
	for k := range d.cuts {
		d.cuts[k].flush()
		n += len(d.cuts[k].chunks)
	}
	if n == 0 {
		return nil, nil
	}
	chunks := make([]diskChunk, 0, n)
	for k := range d.cuts {
		chunks = append(chunks, d.cuts[k].chunks...)
		d.cuts[k].chunks = d.cuts[k].chunks[:0]
	}
	return chunks, nil
}

// DownsamplePersistentBlock derives a block at the given resolution (ms)
// from b, under parent (in memory when parent == ""). b may be raw or a
// finer downsampled block whose resolution divides the target. The source
// block is left in place — multi-resolution stores keep raw and downsampled
// siblings side by side and pick per query. A block with no non-stale
// sample writes nothing and returns (nil, nil); one whose aggregate streams
// disagree is an error naming the block and the series.
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
	d := downsampler{res: resolution}
	for k := range d.cuts {
		d.cuts[k] = seriesCutter{aggr: AggrSum + AggrType(k), maxPerChunk: defaultSamplesPerChunk}
	}
	var (
		series []diskSeries
		src    [4][]model.Sample // the source streams, reused: raw alone, or sum, count, min, max
		err    error
	)
	for i := range b.series {
		s := &b.series[i]
		if srcRes == 0 {
			if src[0], err = b.appendStream(src[0][:0], s, AggrRaw); err != nil {
				return nil, err
			}
			for _, smp := range src[0] {
				if model.IsStaleNaN(smp.V) {
					continue
				}
				if err := d.add(floorDiv(smp.T, resolution)*resolution, smp.V, 1, smp.V, smp.V); err != nil {
					return nil, err
				}
			}
		} else {
			for k := range src {
				if src[k], err = b.appendStream(src[k][:0], s, AggrSum+AggrType(k)); err != nil {
					return nil, err
				}
			}
			if err := alignedAggrs(&src); err != nil {
				return nil, fmt.Errorf("tsdb: downsample: block %s: series %s: %w", b.meta.ULID, s.lset, err)
			}
			sums, counts, mins, maxs := src[0], src[1], src[2], src[3]
			for j := range sums {
				// A source point sits at its bucket's end; the bucket's start
				// places it in the output bucket.
				bs := floorDiv(sums[j].T-srcRes+1, resolution) * resolution
				if err := d.add(bs, sums[j].V, counts[j].V, mins[j].V, maxs[j].V); err != nil {
					return nil, err
				}
			}
		}
		chunks, err := d.finish()
		if err != nil {
			return nil, err
		}
		if len(chunks) > 0 {
			series = append(series, diskSeries{lset: s.lset, chunks: chunks})
		}
	}
	if len(series) == 0 {
		return nil, nil
	}
	return finishBlock(parent, &BlockMeta{Level: b.meta.Level, Resolution: resolution, Sources: []string{b.meta.ULID}}, series)
}

// alignedAggrs checks that the sum, count, min and max streams of one
// downsampled series hold points at the same timestamps, as the buckets
// that wrote them did.
func alignedAggrs(src *[4][]model.Sample) error {
	sums := src[0]
	for k, st := range src[1:] {
		aggr := AggrCount + AggrType(k)
		if len(st) != len(sums) {
			return fmt.Errorf("%s stream has %d points, sum stream %d", aggr, len(st), len(sums))
		}
		for j := range st {
			if st[j].T != sums[j].T {
				return fmt.Errorf("%s point %d at %d, sum point at %d", aggr, j, st[j].T, sums[j].T)
			}
		}
	}
	return nil
}
