package tsdb

// Compaction and downsampling over persistent blocks: one walk, two folds.
//
// Both k-way merge their inputs' series by labels (walker.walk), each run of
// equal label sets one output series whose members' streams merge per
// timestamp, the earliest block winning as on the read path, without the
// samples a tombstone deletes (those at or before its maxt). The copy fold
// (CompactPersistentBlocks, RewritePersistentBlock) writes the merged
// streams as they are; the bucket fold (DownsamplePersistentBlocks)
// stores, per whole bucket [bs, bs+res) of a range, the sum, count, min and
// max of its non-stale samples — or of a finer block's aggregates, which
// preserves exactness — each its own chunk stream, at bs+res-1. What is
// resident is one series' decoded samples plus the output's encoded chunks.

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/labels"
	"repro/internal/model"
)

// CompactPersistentBlocks merges blocks (all of one resolution) into a new
// persistent block under parent (in memory when parent == ""), one level
// up, without the samples tombs delete. Sources are NOT deleted — the caller
// deletes them after the returned block is durably published. On a
// timestamp collision within a series the earliest block in blocks order
// wins.
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
	for _, b := range blocks {
		if b.meta.Resolution != meta.Resolution {
			return nil, fmt.Errorf("tsdb: compact: mixed resolutions (%d vs %d)", meta.Resolution, b.meta.Resolution)
		}
		// A downsampled block's bounds are its inputs' ranges; a raw
		// block's stand when every series is tombstoned.
		meta.MinTime = min(meta.MinTime, b.meta.MinTime)
		meta.MaxTime = max(meta.MaxTime, b.meta.MaxTime)
		meta.Level = max(meta.Level, b.meta.Level+1)
		meta.Sources = append(meta.Sources, b.meta.ULID)
	}
	return copyBlocks(parent, meta, blocks, tombs)
}

// RewritePersistentBlock writes b again under parent without the samples
// tombs delete: the same resolution, level and (for a downsampled block, or
// one left without series) bounds, with b its one source.
func RewritePersistentBlock(parent string, b *PersistentBlock, tombs []TombstoneRec) (*PersistentBlock, error) {
	meta := b.meta
	meta.ULID, meta.Sources = "", []string{b.meta.ULID}
	return copyBlocks(parent, &meta, []*PersistentBlock{b}, tombs)
}

// copyBlocks is the copy fold: blocks' merged streams, every aggregate of
// every series, written as the block meta describes.
func copyBlocks(parent string, meta *BlockMeta, blocks []*PersistentBlock, tombs []TombstoneRec) (*PersistentBlock, error) {
	w := &walker{blocks: blocks, mint: math.MinInt64, maxt: math.MaxInt64}
	sc := seriesCutter{maxPerChunk: defaultSamplesPerChunk}
	series, err := w.walk(tombs, func(run []blockSeriesRef) ([]diskChunk, error) {
		for sc.aggr = AggrRaw; sc.aggr <= AggrMax; sc.aggr++ {
			smps, err := w.merged(run, sc.aggr)
			if err != nil {
				return nil, err
			}
			for _, smp := range smps {
				if err := sc.add(smp.T, smp.V); err != nil {
					return nil, err
				}
			}
			sc.flush()
		}
		chunks := slices.Clone(sc.chunks)
		sc.chunks = sc.chunks[:0]
		return chunks, nil
	})
	if err != nil {
		return nil, err
	}
	return finishBlock(parent, meta, series)
}

// DownsamplePersistentBlocks derives the block meta describes — the whole
// buckets of meta.Resolution over [meta.MinTime, meta.MaxTime], at
// meta.Level — under parent (in memory when parent == "") from that range
// of blocks, all raw or all of one finer resolution dividing the target,
// without the samples (or the finer buckets, by their end) tombs delete;
// they stay in place, and its sources are them. A range with no non-stale
// sample is a block with no series, which records that the range is
// derived; sources whose aggregate streams disagree are an error naming
// them and the series.
func DownsamplePersistentBlocks(parent string, meta BlockMeta, blocks []*PersistentBlock, tombs []TombstoneRec) (*PersistentBlock, error) {
	res := meta.Resolution
	if res <= 0 || floorDiv(meta.MinTime, res)*res != meta.MinTime || floorDiv(meta.MaxTime+1, res)*res != meta.MaxTime+1 || meta.MinTime > meta.MaxTime {
		return nil, fmt.Errorf("tsdb: downsample: [%d, %d] is not whole buckets of a positive resolution %d", meta.MinTime, meta.MaxTime, res)
	}
	var srcRes int64
	if len(blocks) > 0 {
		srcRes = blocks[0].meta.Resolution
	}
	meta.Sources = make([]string, 0, len(blocks))
	for _, b := range blocks {
		if r := b.meta.Resolution; r != srcRes || r >= res || r > 0 && res%r != 0 {
			return nil, fmt.Errorf("tsdb: downsample: block %s: resolution %d is not that of every source, or does not divide %d", b.meta.ULID, r, res)
		}
		meta.Sources = append(meta.Sources, b.meta.ULID)
	}
	w := &walker{blocks: blocks, mint: meta.MinTime, maxt: meta.MaxTime}
	d := downsampler{res: res}
	for k := range d.cuts {
		d.cuts[k] = seriesCutter{aggr: AggrSum + AggrType(k), maxPerChunk: defaultSamplesPerChunk}
	}
	var src [4][]model.Sample // raw alone, or sum, count, min, max
	series, err := w.walk(tombs, func(run []blockSeriesRef) ([]diskChunk, error) {
		if srcRes == 0 {
			raw, err := w.merged(run, AggrRaw)
			if err != nil {
				return nil, err
			}
			for _, smp := range raw {
				if model.IsStaleNaN(smp.V) {
					continue
				}
				if err := d.add(floorDiv(smp.T, res)*res, smp.V, 1, smp.V, smp.V); err != nil {
					return nil, err
				}
			}
			return d.finish()
		}
		for k := range src {
			var err error
			if src[k], err = w.merged(run, AggrSum+AggrType(k)); err != nil {
				return nil, err
			}
		}
		if err := alignedAggrs(&src); err != nil {
			return nil, fmt.Errorf("tsdb: downsample: blocks %s: series %s: %w", meta.Sources, run[0].s.lset, err)
		}
		sums, counts, mins, maxs := src[0], src[1], src[2], src[3]
		for j := range sums {
			// A source point sits at its bucket's end; the bucket's start
			// places it in the output bucket.
			bs := floorDiv(sums[j].T-srcRes+1, res) * res
			if err := d.add(bs, sums[j].V, counts[j].V, mins[j].V, maxs[j].V); err != nil {
				return nil, err
			}
		}
		return d.finish()
	})
	if err != nil {
		return nil, err
	}
	return finishBlock(parent, &meta, series)
}

// walker walks blocks' series, reading the samples in [mint, maxt].
type walker struct {
	blocks     []*PersistentBlock
	mint, maxt int64
	from       int64                         // the folded run is read from here: past what a tombstone deletes of it
	streams    [AggrMax + 1][][]model.Sample // per aggregate, a run member's scratch
}

// blockSeriesRef is one series of one walked block.
type blockSeriesRef struct {
	s        *diskSeries
	blk, pos uint32
}

// walk merges the blocks' series by labels and calls fold once per output
// series: a run of equal label sets in block order (a block holds a label
// set once), so that its first member is from the block that wins a shared
// timestamp. The run is read past the newest sample a tombstone deletes of
// it (w.from); a series fold returns no chunks for is left out.
func (w *walker) walk(tombs []TombstoneRec, fold func(run []blockSeriesRef) ([]diskChunk, error)) ([]diskSeries, error) {
	n := 0
	for _, b := range w.blocks {
		n += len(b.series)
	}
	refs := make([]blockSeriesRef, 0, n)
	parts := make([][]blockSeriesRef, len(w.blocks))
	for bi, b := range w.blocks {
		lo := len(refs)
		for pos := range b.series {
			refs = append(refs, blockSeriesRef{s: &b.series[pos], blk: uint32(bi), pos: uint32(pos)})
		}
		parts[bi] = refs[lo:]
	}
	// With a nil combine the merge keeps every series, equal label sets next
	// to each other in block order.
	all := model.MergeSorted(parts, func(a, b blockSeriesRef) int { return labels.Compare(a.s.lset, b.s.lset) }, nil)
	dels := make([][]deletion, len(w.blocks))
	for bi, b := range w.blocks {
		dels[bi] = deletions(b, tombs)
	}
	var series []diskSeries
	for lo := 0; lo < len(all); {
		hi := lo + 1
		for hi < len(all) && all[hi].s.lset.Equal(all[lo].s.lset) {
			hi++
		}
		run := all[lo:hi]
		lo = hi
		w.from = w.mint
		for _, r := range run {
			if t, ok := deletedThrough(dels[r.blk], r.pos); ok {
				w.from = max(w.from, after(t))
			}
		}
		if w.from > w.maxt {
			continue
		}
		chunks, err := fold(run)
		if err != nil {
			return nil, err
		}
		if len(chunks) > 0 {
			series = append(series, diskSeries{lset: run[0].s.lset, chunks: chunks})
		}
	}
	return series, nil
}

// merged decodes the run members' aggr streams into their scratch and
// merges them, the earliest member winning a timestamp. The result may be
// scratch the next call for aggr reuses.
func (w *walker) merged(run []blockSeriesRef, aggr AggrType) ([]model.Sample, error) {
	if w.streams[aggr] == nil {
		w.streams[aggr] = make([][]model.Sample, len(w.blocks))
	}
	st := w.streams[aggr][:len(run)]
	for j, r := range run {
		var err error
		if st[j], err = w.blocks[r.blk].appendStream(st[j][:0], r.s, aggr, w.from, w.maxt); err != nil {
			return nil, err
		}
	}
	return model.MergeSamples(st), nil
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

// deletion is what tombstones delete of the series at pos of a block: its
// samples through maxt.
type deletion struct {
	pos  uint32
	maxt int64
}

// deletions lists, sorted by position, every series of b that holds a sample
// a tombstone deletes, with the newest time any of them deletes through; each
// tombstone is resolved once through the block's index. A tombstone without
// matchers, or older than the block, deletes nothing.
func deletions(b *PersistentBlock, tombs []TombstoneRec) []deletion {
	var through map[uint32]int64
	for _, t := range tombs {
		if len(t.Matchers) == 0 || t.MaxT < b.meta.MinTime {
			continue
		}
		b.forMatching(t.Matchers, func(pos uint32) bool {
			if !slices.ContainsFunc(b.series[pos].chunks, func(c diskChunk) bool { return c.minT <= t.MaxT }) {
				return true
			}
			if through == nil {
				through = make(map[uint32]int64)
			}
			if cur, ok := through[pos]; !ok || t.MaxT > cur {
				through[pos] = t.MaxT
			}
			return true
		})
	}
	var del []deletion
	for pos, t := range through {
		del = append(del, deletion{pos, t})
	}
	slices.SortFunc(del, func(a, b deletion) int { return cmp.Compare(a.pos, b.pos) })
	return del
}

// deletedThrough returns the time del deletes the series at pos through, and
// false when it deletes none of its samples.
func deletedThrough(del []deletion, pos uint32) (int64, bool) {
	i, ok := slices.BinarySearchFunc(del, pos, func(d deletion, pos uint32) int { return cmp.Compare(d.pos, pos) })
	if !ok {
		return 0, false
	}
	return del[i].maxt, true
}

// mergeDeletions returns the deletions of a and b, sorted by position; it
// may be b.
func mergeDeletions(a, b []deletion) []deletion {
	if len(a) == 0 {
		return b
	}
	out := make([]deletion, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].pos < b[0].pos:
			out, a = append(out, a[0]), a[1:]
		case b[0].pos < a[0].pos:
			out, b = append(out, b[0]), b[1:]
		default:
			out = append(out, deletion{a[0].pos, max(a[0].maxt, b[0].maxt)})
			a, b = a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// after is the first time past t, or math.MaxInt64 when there is none.
func after(t int64) int64 {
	if t == math.MaxInt64 {
		return t
	}
	return t + 1
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
