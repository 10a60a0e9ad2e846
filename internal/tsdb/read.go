package tsdb

// One reader over the head and blocks (docs/ARCHITECTURE.md, "One reader"):
// a read of the head, of blocks or of both is one plan on the caller, one
// fill through workpool.DoRange and one sample budget.

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb/chunkenc"
	"repro/internal/workpool"
)

// ErrNoMatchers is returned by a read without matchers, before any source is
// touched: it would decode every series of every source.
var ErrNoMatchers = errors.New("tsdb: a read needs at least one matcher")

// Sources are what one read covers: the head, blocks, or both. Blocks are the
// raw and the admitted downsampled ones, in a store's order (by MinTime), each
// retained by the caller until Select returns.
type Sources struct {
	Head   *DB // nil reads blocks alone
	Blocks []*PersistentBlock
	Aggr   AggrType // what a downsampled block serves (newBlockPart)
	// Fenced, with a head, says that from Fence on the head holds every
	// sample the raw blocks hold (thanos.Store: its first cut from the head
	// and DB.WholeFrom), so they serve only what is older than Fence and
	// than where the head's read starts. Unset, they serve the whole window.
	Fenced bool
	Fence  int64
}

// Select returns the series matching ms with samples in [hints.Start,
// hints.End], sorted by labels — with hints.Lookback set, only the samples
// the step filter keeps (model.StepFilter); a series left with none is
// omitted. With a head, a block's samples that a tombstone of the head's
// log deletes are skipped. The read fails with model.ErrSampleLimit as soon
// as the series it returns hold more than hints.SampleLimit samples, when
// that is set. A read that no block part is left of after planning (the
// fence) reads the head alone.
func (src Sources) Select(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	if len(ms) == 0 {
		return nil, ErrNoMatchers
	}
	if hints.End < hints.Start {
		return nil, nil // an inverted window holds no samples; sizing assumes one that is not
	}
	r := newReader(hints.Start, hints.End, hints.SampleLimit, hints.StepFilter())
	fence, rawFence := int64(math.MaxInt64), int64(math.MaxInt64) // block data ends before them
	var heads []*memSeries
	if db := src.Head; db != nil {
		r.grain = db.selectGrain
		if hmin, ok := db.MinTime(); ok && len(src.Blocks) > 0 {
			// Truncation keeps the chunks straddling the head's minimum time;
			// what they hold before it was shipped to the blocks.
			fence, r.headMin = hmin, max(r.headMin, hmin)
		}
		if src.Fenced {
			rawFence = max(src.Fence, r.headMin)
		}
		for _, sh := range db.shards {
			sh.mu.RLock()
			heads = sh.selectLocked(heads, ms)
			sh.mu.RUnlock()
		}
	}
	if len(src.Blocks) > 0 {
		r.parts = planParts(r.parts, src.Blocks, hints.Start, hints.End, fence, rawFence, src.Aggr)
	}
	if len(r.parts) == 0 {
		r.heads = heads
		return r.release(r.fill(len(heads)))
	}
	if src.Head != nil {
		if log := src.Head.tombs.log.Load(); log != nil && len(log.recs) > 0 {
			for k := range r.parts {
				r.parts[k].dels = r.parts[k].b.deletedBy(log)
			}
		}
	}
	return r.release(r.fill(r.join(heads, ms)))
}

// reader is one read from its plan to its result. Readers are pooled: made
// afresh, it and the func handed to DoRange would cost a narrow read more than
// it returns (BenchmarkBlockSelect/one_job_of_2k).
type reader struct {
	headMin, maxt int64             // head series are read over [headMin, maxt]
	steps         *model.StepFilter // nil keeps every sample
	limited       bool              // left counts a sample limit down; an unlimited read touches no atomic
	left          atomic.Int64
	grain         int // DoRange's, in series

	heads  []*memSeries // the plan of a read without blocks, in no order
	parts  []blockPart
	pieces []piece // the plan of a read with blocks, in label order

	out  []model.Series
	mu   sync.Mutex
	runs []fillRun // one per range of the fill, sorted
	err  error

	partBuf  [1]blockPart     // where parts, pieces and runs start: a read
	pieceBuf [4]piece         // of a few series of one block part in one
	runBuf   [1]fillRun       // range allocates none of them
	rangeFn  func(lo, hi int) // fillRange, bound once
}

var readers = sync.Pool{New: func() any {
	r := new(reader)
	r.rangeFn = r.fillRange
	return r
}}

func newReader(mint, maxt, limit int64, steps *model.StepFilter) *reader {
	r := readers.Get().(*reader)
	r.headMin, r.maxt, r.steps, r.grain, r.limited = mint, maxt, steps, selectGrain, limit > 0
	r.left.Store(limit)
	r.parts, r.runs = r.partBuf[:0], r.runBuf[:0]
	return r
}

// release pools r, cleared, and passes the read's result through; a read that
// panics leaves r to the collector, as a range of its fill may be running.
func (r *reader) release(out []model.Series, err error) ([]model.Series, error) {
	*r = reader{rangeFn: r.rangeFn}
	readers.Put(r)
	return out, err
}

// blockPart is one block serving one sub-window of a read.
type blockPart struct {
	b      *PersistentBlock
	lo, hi int64
	want   AggrType   // the stream the part reads
	avg    bool       // want is the sum stream, divided by the count stream
	dels   []deletion // b.deletedBy the head's tombstone log
}

// window is the sub-window the part serves of its series at pos: [lo, hi]
// past what a tombstone deletes of it; ok is false when nothing is left.
func (pt *blockPart) window(pos uint32) (lo, hi int64, ok bool) {
	if t, del := deletedThrough(pt.dels, pos); del {
		if t >= pt.hi {
			return 0, 0, false
		}
		return max(pt.lo, t+1), pt.hi, true
	}
	return pt.lo, pt.hi, true
}

// newBlockPart is b serving [lo, hi] for aggr: a raw block serves raw samples
// (exact for every aggregate), a downsampled one a stored aggregate or, for
// AggrAvg and AggrRaw (a caller unaware of the resolution), sum/count.
func newBlockPart(b *PersistentBlock, lo, hi int64, aggr AggrType) blockPart {
	p := blockPart{b: b, lo: lo, hi: hi}
	switch {
	case b.meta.Resolution == 0:
		p.want = AggrRaw
	case aggr >= AggrSum && aggr <= AggrMax:
		p.want = aggr
	default:
		p.want, p.avg = AggrSum, true
	}
	return p
}

// planParts appends to parts the blocks serving [mint, maxt], coarsest
// resolution first: each claims the sub-windows no coarser one covers, a
// downsampled one whole buckets only (a partial one at an edge of the window
// would bring in samples from outside it) and nothing from fence on, a raw
// one nothing from rawFence on. Parts come in the order they win a shared
// timestamp; overlapping blocks of one resolution hold the same values
// (uploads overlap only on re-ship, and a compaction's output equals its
// sources).
func planParts(parts []blockPart, blocks []*PersistentBlock, mint, maxt, fence, rawFence int64, aggr AggrType) []blockPart {
	// A read over a few blocks plans in these, allocating nothing.
	var (
		buf                    [8]*PersistentBlock
		coverBuf, gBuf, subBuf [4]span
	)
	byRes := append(buf[:0], blocks...)
	slices.SortStableFunc(byRes, func(a, b *PersistentBlock) int { return cmp.Compare(b.meta.Resolution, a.meta.Resolution) })
	covered := coverBuf[:0]
	for len(byRes) > 0 {
		res, n := byRes[0].meta.Resolution, 1
		for n < len(byRes) && byRes[n].meta.Resolution == res {
			n++
		}
		group := byRes[:n]
		byRes = byRes[n:]
		gmax, end := maxt, fence
		if res == 0 {
			end = rawFence
		}
		if end <= gmax {
			if end <= mint {
				continue
			}
			gmax = end - 1
		}
		gspans := gBuf[:0]
		for _, b := range group {
			lo, hi := max(b.meta.MinTime, mint), min(b.meta.MaxTime, gmax)
			if res != 0 {
				lo = floorDiv(lo+res-1, res) * res // round up to a bucket start
				hi = floorDiv(hi+1, res)*res - 1   // round down to a bucket end
			}
			if lo <= hi {
				gspans = addSpan(gspans, span{lo, hi})
			}
		}
		for _, gs := range gspans {
			for _, u := range subtractSpans(subBuf[:0], gs, covered) {
				for _, b := range group {
					if b.meta.MinTime <= u.hi && b.meta.MaxTime >= u.lo {
						parts = append(parts, newBlockPart(b, u.lo, u.hi, aggr))
					}
				}
			}
			covered = addSpan(covered, gs)
		}
	}
	return parts
}

// piece is one source's part of a series in a read: a head series, or the
// series at pos of a block part.
type piece struct {
	head *memSeries
	part int32
	pos  uint32
}

// view returns the labels of piece p as its source keeps them.
func (r *reader) view(p piece) labelView {
	if p.head != nil {
		return labelView{ls: p.head.lset}
	}
	return r.parts[p.part].b.view(p.pos)
}

// same reports whether pieces i and j are of one series. Two pieces of one
// source are not: a block part and the head each hold a label set once.
func (r *reader) same(i, j int) bool {
	a, b := r.pieces[i], r.pieces[j]
	if (a.head == nil) == (b.head == nil) && a.part == b.part {
		return false
	}
	return equalLabels(r.view(a), r.view(b))
}

// blockLabels counts the labels of the planned series from piece lo, the
// first of its run, up to the run that ends past hi, that have no head
// series among their pieces: what a range of the fill builds at most.
func (r *reader) blockLabels(lo, hi int) int {
	n := 0
	for i := lo; i < hi; {
		j := r.runEnd(i)
		if r.pieces[j-1].head == nil {
			n += r.view(r.pieces[i]).len()
		}
		i = j
	}
	return n
}

// runEnd returns the end of the run of pieces of piece i's series.
func (r *reader) runEnd(i int) int {
	j := i + 1
	for j < len(r.pieces) && r.same(j, i) {
		j++
	}
	return j
}

// join lines up the parts' series matching ms and the head's by labels into
// r.pieces, equal label sets together in part order, the head's last, and
// returns how many pieces there are.
func (r *reader) join(heads []*memSeries, ms []*labels.Matcher) int {
	var buf [8][]piece
	runs := buf[:0] // one per part, then the head's
	flat := r.pieceBuf[:0]
	for k := range r.parts {
		lo := len(flat)
		r.parts[k].b.forMatching(ms, func(pos uint32) bool {
			flat = append(flat, piece{part: int32(k), pos: pos})
			return true
		})
		runs = append(runs, flat[lo:]) // still what it holds after flat moves
	}
	slices.SortFunc(heads, func(a, b *memSeries) int { return labels.Compare(a.lset, b.lset) })
	lo := len(flat)
	for _, s := range heads {
		flat = append(flat, piece{head: s})
	}
	r.pieces = model.MergeSorted(append(runs, flat[lo:]), func(a, b piece) int { return compareLabels(r.view(a), r.view(b)) }, nil)
	return len(r.pieces)
}

// fill reads the n planned series into one label-sorted list through one
// DoRange.
func (r *reader) fill(n int) ([]model.Series, error) {
	r.out = make([]model.Series, n)
	workpool.DoRange(n, r.grain, r.rangeFn)
	if r.err != nil {
		return nil, r.err
	} else if r.limited && r.left.Load() < 0 {
		return nil, model.ErrSampleLimit
	}
	if len(r.runs) == 1 { // the usual case
		return r.runs[0].series, nil
	}
	if r.heads == nil {
		return r.layRuns(), nil
	}
	// A head-only read's runs each sorted their own series, which are
	// distinct, so the order they arrived in does not matter.
	var buf [8][]model.Series // one per range: as many as the pool has workers
	parts := buf[:0]
	for _, run := range r.runs {
		parts = append(parts, run.series)
	}
	return model.MergeSorted(parts, byLabels, nil), nil
}

// fillRun is what one range of the fill read: its series, from where the
// range starts in r.out on.
type fillRun struct {
	lo     int
	series []model.Series
}

// layRuns lays the runs of a read with blocks end to end in r.out, in the
// order their ranges start. The plan is in label order and each run holds
// its range's series in plan order, so the result is sorted without a
// label set compared.
func (r *reader) layRuns() []model.Series {
	slices.SortFunc(r.runs, func(a, b fillRun) int { return cmp.Compare(a.lo, b.lo) })
	out := r.out[:0]
	for _, run := range r.runs {
		out = append(out, run.series...) // moves down, never past where the run starts
	}
	return out
}

func byLabels(a, b model.Series) int { return labels.Compare(a.Labels, b.Labels) }

// fillRange fills the series that start in [lo, hi) of the plan, the last
// one with its pieces past hi.
func (r *reader) fillRange(lo, hi int) {
	sf := seriesFiller{r: r, slab: sampleSlab{left: hi - lo}}
	run := fillRun{lo: lo, series: r.out[lo:lo:hi]}
	for r.heads == nil && lo > 0 && lo < hi && r.same(lo, lo-1) {
		lo++
	}
	if r.heads == nil {
		if n := r.blockLabels(lo, hi); n > 0 {
			sf.lsets = make(labels.Labels, n)
		}
	}
	var err error
	for i := lo; i < hi && err == nil && !(r.limited && r.left.Load() < 0); {
		var one [1]piece
		ps := one[:]
		if r.heads != nil {
			one[0].head = r.heads[i]
			i++
		} else {
			j := r.runEnd(i)
			ps, i = r.pieces[i:j], j
		}
		h := ps[len(ps)-1].head // the head's piece is last
		if h != nil {
			h.mu.Lock()
		}
		var samples []model.Sample
		samples, err = sf.series(ps)
		if h != nil {
			h.mu.Unlock()
		}
		if len(samples) > 0 && (!r.limited || r.left.Add(-int64(len(samples))) >= 0) {
			run.series = append(run.series, model.Series{Labels: sf.labels(ps), Samples: samples})
		}
	}
	if r.heads != nil {
		slices.SortFunc(run.series, byLabels)
	}
	r.mu.Lock()
	r.runs = append(r.runs, run)
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// seriesFiller fills the series of one range of a read.
type seriesFiller struct {
	r       *reader
	slab    sampleSlab
	scratch []model.Sample // a count stream, or a piece that reached back
	lsets   labels.Labels  // where the range's block label sets are built
}

// labels returns the label set of the series of pieces ps: its head
// series', or one built from its first block's pair ids into lsets, which
// the range sized for every one it builds (blockLabels).
func (sf *seriesFiller) labels(ps []piece) labels.Labels {
	if h := ps[len(ps)-1].head; h != nil {
		return h.lset
	}
	v := sf.r.view(ps[0])
	n := v.len()
	out := v.ix.appendLabels(sf.lsets[:0:n], v.ids)
	sf.lsets = sf.lsets[n:]
	return out
}

// series decodes one planned series into a slot of the slab sized once from
// its pieces' bounds, the pieces merged in order, the earlier sample kept on
// a tie. The caller holds the lock of the head series among ps, if any.
func (sf *seriesFiller) series(ps []piece) ([]model.Sample, error) {
	n := 0
	for _, p := range ps {
		n += sf.r.bound(p)
	}
	out := sf.slab.take(n)
	var err error
	for _, p := range ps {
		if out, err = sf.appendPiece(out, p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// lastOnly reports whether the read keeps only the newest sample of head
// series s, held in lastT/lastV (out-of-order samples are older): a bare
// selector read at one step. The caller holds s.mu.
func (r *reader) lastOnly(s *memSeries) bool {
	f := r.steps
	return f != nil && f.One() && s.lastT >= r.headMin && s.lastT <= r.maxt && s.holdsLastLocked()
}

// bound is how many samples to reserve for piece p.
func (r *reader) bound(p piece) int {
	if s := p.head; s != nil {
		if r.lastOnly(s) {
			return 1
		}
		_, n, _ := stream{head: s}.read(nil, r.headMin, r.maxt, r.steps, true)
		if len(s.ooo) > 0 {
			n += len(s.oooBetween(r.headMin, r.maxt))
		}
		return n
	}
	pt := &r.parts[p.part]
	lo, hi, ok := pt.window(p.pos)
	if !ok {
		return 0
	}
	_, n, _ := pt.b.stream(p.pos, pt.want).read(nil, lo, hi, r.steps, true)
	return n
}

// appendPiece decodes piece p onto dst, merging it in where it reaches back.
func (sf *seriesFiller) appendPiece(dst []model.Sample, p piece) ([]model.Sample, error) {
	r, b := sf.r, len(dst)
	if s := p.head; s != nil {
		if r.lastOnly(s) {
			return sf.settle(append(dst, model.Sample{T: s.lastT, V: s.lastV}), b), nil
		}
		dst, _, _ = stream{head: s}.read(dst, r.headMin, r.maxt, r.steps, false) // head chunks are well-formed by construction
		if len(s.ooo) == 0 {
			return sf.settle(dst, b), nil
		}
		// The out-of-order buffer follows the in-order chunks, so that they
		// win a tie: replay can park a checkpoint-duplicated sample in it.
		dst = sf.settle(dst, b)
		b = len(dst)
		if ooo := s.oooBetween(r.headMin, r.maxt); r.steps == nil {
			dst = append(dst, ooo...)
		} else {
			pos := *r.steps
			for _, smp := range ooo {
				dst = pos.Append(dst, smp.T, smp.V)
			}
		}
		return sf.settle(dst, b), nil
	}
	pt := &r.parts[p.part]
	lo, hi, ok := pt.window(p.pos)
	if !ok {
		return dst, nil
	}
	dst, _, err := pt.b.stream(p.pos, pt.want).read(dst, lo, hi, r.steps, false)
	if err != nil || !pt.avg {
		return sf.settle(dst, b), err
	}
	// The count stream carries the sum stream's timestamps, so the step filter
	// keeps the same of each.
	cs := pt.b.stream(p.pos, AggrCount)
	if sf.scratch, _, err = cs.read(sf.scratch[:0], lo, hi, r.steps, false); err != nil {
		return dst, err
	}
	sums, counts := dst[b:], sf.scratch
	if len(sums) != len(counts) {
		return dst, fmt.Errorf("tsdb: block %s: sum/count streams disagree (%d vs %d points)", pt.b.meta.ULID, len(sums), len(counts))
	}
	for i := range sums {
		if sums[i].T != counts[i].T || counts[i].V == 0 {
			return dst, fmt.Errorf("tsdb: block %s: sum/count streams misaligned at %d", pt.b.meta.ULID, sums[i].T)
		}
		sums[i].V /= counts[i].V
	}
	return sf.settle(dst, b), nil
}

// settle merges the run appended to dst at b into dst[:b] when it reaches
// back, keeping dst's sample on a tie.
func (sf *seriesFiller) settle(dst []model.Sample, b int) []model.Sample {
	if b == 0 || b == len(dst) || dst[b].T > dst[b-1].T {
		return dst
	}
	sf.scratch = append(sf.scratch[:0], dst[b:]...)
	return model.MergeInto(dst[:b], sf.scratch)
}

// headReader reads head series over [mint, maxt], one at a time.
func headReader(mint, maxt int64) *seriesFiller {
	return &seriesFiller{r: &reader{headMin: mint, maxt: maxt}}
}

// samplesLocked returns a copy of s's samples; the caller holds s.mu.
func (sf *seriesFiller) samplesLocked(s *memSeries) []model.Sample {
	out, _ := sf.series([]piece{{head: s}})
	return out
}

// oooBetween returns a view of the out-of-order samples in [mint, maxt].
func (s *memSeries) oooBetween(mint, maxt int64) []model.Sample {
	lo := sort.Search(len(s.ooo), func(i int) bool { return s.ooo[i].T >= mint })
	hi := sort.Search(len(s.ooo), func(i int) bool { return s.ooo[i].T > maxt })
	return s.ooo[lo:max(lo, hi)]
}

// holdsLastLocked reports whether the chunk holding lastT is still kept:
// retention drops closed chunks while the out-of-order buffer can keep the
// series alive. The caller holds s.mu.
func (s *memSeries) holdsLastLocked() bool {
	return s.head != nil || len(s.chunks) > 0 && s.chunks[len(s.chunks)-1].max == s.lastT
}

// stream is one stored stream of a series, its chunks in time order: a head
// series' closed chunks and then its open one, or a block series' chunks of
// one aggregate.
type stream struct {
	head  *memSeries
	block *PersistentBlock
	disk  []diskChunk
}

func (st stream) len() int {
	if s := st.head; s == nil {
		return len(st.disk)
	} else if s.head != nil {
		return len(s.chunks) + 1
	}
	return len(st.head.chunks)
}

// meta returns chunk i's time bounds and sample count.
func (st stream) meta(i int) (minT, maxT int64, n int) {
	if s := st.head; s != nil {
		cr := s.chunkAt(i)
		return cr.min, cr.max, cr.chunk.NumSamples()
	}
	c := &st.disk[i]
	return c.minT, c.maxT, st.block.sampleHint(c)
}

// read is the one loop over a stream's chunks, head and block alike: the
// chunks in [mint, maxt] that f keeps something of (all when f is nil) are
// decoded onto dst or, with size set, counted: each chunk's samples cut down
// to its share of the window and to what f keeps. A chunk's decode stops at
// f.Until, the newest of its samples f can keep.
func (st stream) read(dst []model.Sample, mint, maxt int64, f *model.StepFilter, size bool) ([]model.Sample, int, error) {
	if f != nil {
		pos := *f // this stream's own position in the steps
		f = &pos
	}
	n, end := 0, st.len()
	for i := 0; i < end; i++ {
		minT, maxT, k := st.meta(i)
		if maxT < mint || minT > maxt {
			continue
		}
		lo, hi := max(minT, mint), min(maxT, maxt)
		if f != nil {
			next := int64(math.MaxInt64) // where the stream goes on in the window
			if i+1 < end {
				if m, _, _ := st.meta(i + 1); m <= maxt {
					next = m
				}
			}
			if hi = f.Until(hi, next); hi < lo {
				continue
			}
		}
		var err error
		if !size {
			if dst, err = st.appendChunk(dst, i, mint, hi, f); err != nil {
				return dst, 0, err
			}
		} else if k = samplesInWindow(minT, maxT, k, mint, maxt); f != nil {
			n += max(0, f.Bound(k, lo, hi))
		} else {
			n += k
		}
	}
	return dst, n, nil
}

func (st stream) appendChunk(dst []model.Sample, i int, mint, maxt int64, f *model.StepFilter) ([]model.Sample, error) {
	if s := st.head; s != nil {
		cr := s.chunkAt(i)
		return appendChunk(dst, cr.chunk, cr.marks, mint, maxt, f)
	}
	ch, err := st.block.decodeChunk(&st.disk[i])
	if err != nil {
		return dst, err
	}
	return appendChunk(dst, &ch, nil, mint, maxt, f)
}

// appendChunk decodes onto dst the samples of c in [mint, maxt] that f keeps
// (all of them when f is nil), starting at the last of c's seek marks before
// mint: a head chunk has them, a block chunk none.
func appendChunk(dst []model.Sample, c *chunkenc.Chunk, marks []chunkenc.Mark, mint, maxt int64, f *model.StepFilter) ([]model.Sample, error) {
	it := c.Iterator()
	seekBefore(it, marks, mint)
	return it.AppendWindow(dst, mint, maxt, f)
}

// samplesInWindow estimates how many of a chunk's num samples, spanning
// [cmin, cmax], fall in the window [mint, maxt]: its share of the span at
// even spacing, rounded up. A low guess only costs an append growth.
func samplesInWindow(cmin, cmax int64, num int, mint, maxt int64) int {
	lo, hi := max(cmin, mint), min(cmax, maxt)
	if lo == cmin && hi == cmax {
		return num
	}
	return max(0, min(num, int(float64(num)*float64(hi-lo)/float64(cmax-cmin))+1))
}

const slabSamples = 4096 // bounds one allocation of a sampleSlab (64 KB)

// sampleSlab hands the series of one range of a read their sample slices
// out of shared allocations: one per slabSamples samples, not one per
// series. A slice is capped at the size asked for, so an append past it, by
// anyone, moves that slice out instead of into its neighbour.
type sampleSlab struct {
	free []model.Sample
	left int // series of the range still to take from it
}

// take returns an empty slice with room for n samples. A new allocation is
// sized for the series still to come (none: this slice alone), guessing their
// windows as long as this one.
func (sl *sampleSlab) take(n int) []model.Sample {
	if n > len(sl.free) {
		sl.free = make([]model.Sample, max(n, min(n*sl.left, slabSamples)))
	}
	sl.left--
	out := sl.free[:0:n]
	sl.free = sl.free[n:]
	return out
}
