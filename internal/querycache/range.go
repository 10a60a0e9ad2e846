package querycache

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
)

// RangeEval evaluates the query this lookup is for over a sub-window; the
// cache calls it with grid-aligned bounds and the original step. promapi
// passes a closure over Engine.RangeCtx. Like the engine, it must return its
// series sorted by labels with no label set repeated: splices merge on that
// order.
type RangeEval func(ctx context.Context, start, end time.Time, step time.Duration) (promql.Matrix, error)

// headState is one consistent-enough snapshot of append progress. gen and
// epoch are read before the time bounds so a racing append can only make
// the snapshot look staler than it is, never fresher.
type headState struct {
	gen       uint64
	epoch     uint64
	pruned    int64
	hasPruned bool
	maxT      int64
}

func (c *Cache) snapshot() headState {
	h := c.opts.Head
	st := headState{gen: h.MutationGen(), epoch: h.AppendEpoch(), maxT: math.MinInt64}
	st.pruned, st.hasPruned = h.PrunedThrough()
	if maxT, ok := h.MaxTime(); ok {
		st.maxT = maxT
	}
	return st
}

// RangeQuery serves a range query through the cache. Repeats of a cached
// window are answered without evaluation; windows overlapping a cached
// entry re-evaluate only the uncovered steps via eval and splice them onto
// the cached part; everything else evaluates cold and is stored.
//
// The answer is shared: a miss returns the matrix it stored, a hit the
// entry's own arrays, a splice the new entry it stored. Callers read it and
// never write it (in Paranoid mode a write is caught on the next lookup).
//
// render, when not nil, is the wire form of one sample. An entry is rendered
// on its first reuse and keeps its rendering: a hit returns the kept bytes,
// a splice copies the bytes of the steps it keeps and renders only the steps
// it evaluated. A cold miss renders nothing and returns Rendered nil. Every
// call on one Cache must pass the same render, or nil.
func (c *Cache) RangeQuery(ctx context.Context, query string, start, end time.Time, step time.Duration, eval RangeEval, render Render) (Range, Outcome, error) {
	bypass := func() (Range, Outcome, error) {
		m, err := eval(ctx, start, end, step)
		return Range{Matrix: m}, OutcomeBypass, err
	}
	if c == nil || c.opts.Head == nil || step <= 0 || start.After(end) {
		return bypass()
	}
	expr, norm, err := promql.ParseNormalized(query)
	if err != nil {
		// Let the evaluator produce its own (identical) parse error.
		return bypass()
	}
	stepMs := model.DurationMillis(step)
	if stepMs <= 0 {
		// A sub-millisecond step truncates to 0 on the millisecond grid;
		// evaluate cold rather than divide by zero below.
		return bypass()
	}
	var (
		startMs = model.TimeToMillis(start)
		endMs   = model.TimeToMillis(end)
		lastMs  = startMs + (endMs-startMs)/stepMs*stepMs // last grid step
		phase   = floorMod(startMs, stepMs)
		padMs   = maxPadMs(expr, c.opts.Lookback)
		key     = fmt.Sprintf("r\x00%s\x00%d\x00%d\x00%d", norm, stepMs, phase, padMs)
	)
	if steps := (endMs-startMs)/stepMs + 1; steps > c.maxSteps() {
		// Beyond the engine's step guardrail: evaluate cold so the request
		// gets the engine's own LimitError. Splicing here could assemble a
		// union window the engine would have refused to evaluate.
		return bypass()
	}
	q := rangeReq{key: key, startMs: startMs, lastMs: lastMs, stepMs: stepMs, phase: phase, padMs: padMs,
		start: start, end: end, step: step, eval: eval, render: render}
	return c.rangeLookup(ctx, &q, true)
}

// rangeReq is one RangeQuery call as the lookup sees it.
type rangeReq struct {
	key                                   string
	startMs, lastMs, stepMs, phase, padMs int64
	start, end                            time.Time
	step                                  time.Duration
	eval                                  RangeEval
	render                                Render
}

// rangeLookup probes the cache once and serves the hit/splice/miss result.
// latch controls whether a full cold miss goes through the singleflight
// latch; the follower retry passes false so a failed leader cannot convoy
// followers behind one another forever.
func (c *Cache) rangeLookup(ctx context.Context, q *rangeReq, latch bool) (Range, Outcome, error) {
	st := c.snapshot()
	sh := c.shardFor(q.key)
	ent, err := c.lookup(sh, q.key)
	if err != nil {
		return Range{}, OutcomeBypass, err
	}
	if ent != nil && ent.fillGen != st.gen {
		// A destructive mutation (DeleteSeries) ran since fill: any cached
		// step may now be wrong. Drop the entry.
		sh.remove(q.key, ent)
		c.invalidations.Add(1)
		ent = nil
	}
	if ent == nil {
		return c.rangeColdFlight(ctx, q, st, latch)
	}
	if ent.kind == kindNegative {
		// A cached limit error is replayed only when a cold evaluation
		// would provably fail identically: same window, no append past the
		// window since fill (appends never land strictly behind the
		// watermark, so a settled window's sample count cannot grow), and
		// retention has not reached into the window's read padding (pruning
		// can only SHRINK the count back under the limit). Gen mismatch was
		// already handled above, like every entry kind.
		switch {
		case ent.startMs != q.startMs || ent.lastMs != q.lastMs:
			// A different window under the same key: evaluate it, leave the
			// entry for repeats of the original window.
		case st.epoch != ent.fillEpoch && ent.lastMs >= c.settledBefore(ent.fillMax):
			sh.remove(q.key, ent)
			c.invalidations.Add(1)
		case st.hasPruned && q.startMs-q.padMs < st.pruned:
			sh.remove(q.key, ent)
			c.invalidations.Add(1)
		default:
			c.negHits.Add(1)
			return Range{}, OutcomeHit, ent.negErr
		}
		return c.rangeColdFlight(ctx, q, st, latch)
	}

	// Reusable sub-window of the cached grid.
	lo := max(q.startMs, ent.startMs)
	hi := min(q.lastMs, ent.lastMs)
	if st.epoch != ent.fillEpoch {
		// Samples landed since fill: only steps settled at fill time — read
		// window complete strictly below the fill watermark — are still
		// provably identical to a cold evaluation. The step AT the watermark
		// is never settled: appends can legally land at MaxTime itself (the
		// scrape pass commits synthetics in a second commit at the same
		// timestamp, and parallel targets can share a millisecond), so a fill
		// racing between two same-timestamp commits may have seen a partial
		// boundary step.
		if ent.fillMax == math.MinInt64 {
			// Filled against an empty head; nothing was settled.
			return c.rangeColdFlight(ctx, q, st, latch)
		}
		// settledBefore widens the mutable tail by the head's out-of-order
		// window: with the window on, appends may land up to window behind
		// the watermark, so only steps strictly below fillMax − window were
		// provably complete at fill.
		hi = min(hi, alignDown(c.settledBefore(ent.fillMax)-1, q.phase, q.stepMs))
	}
	if st.hasPruned {
		// Steps whose padded read window reaches below the pruned watermark
		// are trimmed: a cold evaluation may no longer see their data.
		lo = max(lo, alignUp(st.pruned+q.padMs, q.phase, q.stepMs))
	}
	if lo > hi {
		return c.rangeColdFlight(ctx, q, st, latch)
	}
	if lo == q.startMs && hi == q.lastMs {
		if q.render != nil && ent.rendered.off == nil {
			// First reuse: render the entry once and keep the rendering.
			ent = c.renderEntry(sh, ent, q.render)
		}
		c.hits.Add(1)
		return extractRange(ent.part(), lo, hi).answer(q.render), OutcomeHit, nil
	}

	// Splice: evaluate only the uncovered head and tail of the grid.
	var headM, tailM promql.Matrix
	if q.startMs < lo {
		m, err := q.eval(ctx, model.MillisToTime(q.startMs), model.MillisToTime(lo-q.stepMs), q.step)
		if err != nil {
			return Range{}, OutcomeBypass, err
		}
		headM = m
	}
	if hi < q.lastMs {
		m, err := q.eval(ctx, model.MillisToTime(hi+q.stepMs), model.MillisToTime(q.lastMs), q.step)
		if err != nil {
			return Range{}, OutcomeBypass, err
		}
		tailM = m
	}
	out := spliceMerge(q.render, sh.budget, part{m: headM}, extractRange(ent.part(), lo, hi), part{m: tailM})
	if c.opts.Paranoid {
		cold, err := q.eval(ctx, q.start, q.end, q.step)
		if err != nil {
			return Range{}, OutcomeBypass, err
		}
		if !EqualMatrix(out.m, cold) || !sameRendering(q.render, out, cold) {
			c.spliceFails.Add(1)
			return Range{}, OutcomeBypass, fmt.Errorf(
				"querycache: spliced result differs from cold evaluation for key %q [%d..%d] step %dms", q.key, q.startMs, q.lastMs, q.stepMs)
		}
	}
	c.splices.Add(1)
	c.storeRange(sh, q, st, out)
	return out.answer(q.render), OutcomeSplice, nil
}

// rangeColdFlight funnels a full cold miss through the per-key latch: one
// leader evaluates and fills; followers park until it finishes, then retry
// the lookup once — which normally hits what the leader stored. A retry
// that still misses (leader errored, entry too large to store, fresh
// invalidation) evaluates unlatched rather than queueing behind a new
// leader.
func (c *Cache) rangeColdFlight(ctx context.Context, q *rangeReq, st headState, latch bool) (Range, Outcome, error) {
	if !latch {
		return c.rangeMiss(ctx, q, st)
	}
	leader, f := c.flights.begin(q.key)
	if leader {
		defer c.flights.end(q.key)
		return c.rangeMiss(ctx, q, st)
	}
	select {
	case <-f.done:
	case <-ctx.Done():
		return Range{}, OutcomeBypass, ctx.Err()
	}
	c.coalesced.Add(1)
	return c.rangeLookup(ctx, q, false)
}

// rangeMiss evaluates cold and stores the evaluator's matrix as it is — no
// copy, no rendering — including a negative entry when the evaluation
// tripped an engine guardrail, so dashboard refreshes of an over-budget
// panel stop re-paying the full limit's worth of evaluation for the same
// 422.
func (c *Cache) rangeMiss(ctx context.Context, q *rangeReq, st headState) (Range, Outcome, error) {
	m, err := q.eval(ctx, q.start, q.end, q.step)
	if err != nil {
		if promql.IsLimitError(err) {
			c.storeNegative(q, st, err)
		}
		return Range{}, OutcomeMiss, err
	}
	c.misses.Add(1)
	c.storeRange(c.shardFor(q.key), q, st, part{m: m})
	return Range{Matrix: m}, OutcomeMiss, nil
}

// storeNegative caches a limit error under the same key (and staleness
// contract) a positive result would use.
func (c *Cache) storeNegative(q *rangeReq, st headState, err error) {
	e := &entry{
		key: q.key, kind: kindNegative,
		fillMax: st.maxT, fillEpoch: st.epoch, fillGen: st.gen,
		negErr: err, startMs: q.startMs, lastMs: q.lastMs, stepMs: q.stepMs,
		cost: int64(len(q.key)+len(err.Error())) + entryOverhead,
	}
	c.put(c.shardFor(q.key), e, nil)
	c.negStores.Add(1)
}

// storeRange stores p as the entry for q's window. The entry keeps p's
// slices themselves: they are read-only from here on.
func (c *Cache) storeRange(sh *cacheShard, q *rangeReq, st headState, p part) {
	c.put(sh, &entry{
		key: q.key, kind: kindRange,
		fillMax: st.maxT, fillEpoch: st.epoch, fillGen: st.gen,
		matrix: p.m, rendered: p.r, startMs: q.startMs, lastMs: q.lastMs, stepMs: q.stepMs,
		cost: matrixCost(p.m) + p.r.cost() + int64(len(q.key)),
	}, nil)
}

// renderEntry renders ent on its first reuse and puts the rendered entry in
// its place, unless ent was replaced meanwhile. A rendering that would not
// fit the shard is not made: ent is returned as it is.
func (c *Cache) renderEntry(sh *cacheShard, ent *entry, render Render) *entry {
	r := renderMatrix(render, sh.budget, ent.matrix)
	if r.off == nil {
		return ent
	}
	e := &entry{
		key: ent.key, kind: kindRange,
		fillMax: ent.fillMax, fillEpoch: ent.fillEpoch, fillGen: ent.fillGen,
		matrix: ent.matrix, rendered: r, startMs: ent.startMs, lastMs: ent.lastMs, stepMs: ent.stepMs,
		cost: ent.cost + r.cost(),
	}
	c.put(sh, e, ent)
	return e
}

// --- grid math ------------------------------------------------------------

func floorMod(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// alignDown returns the largest grid time (== phase mod step) <= t.
func alignDown(t, phase, step int64) int64 {
	return t - floorMod(t-phase, step)
}

// alignUp returns the smallest grid time (== phase mod step) >= t.
func alignUp(t, phase, step int64) int64 {
	if d := floorMod(t-phase, step); d != 0 {
		return t + step - d
	}
	return t
}

// maxPadMs returns how far below its evaluation time a step of expr reads:
// the maximum over selectors of offset + lookback (instant) or offset +
// range (matrix). It is part of the cache key — an engine with a different
// lookback must not share entries — and of the retention floor.
func maxPadMs(expr promql.Expr, lookback time.Duration) int64 {
	pad := model.DurationMillis(lookback)
	promql.WalkSelectors(expr, func(node promql.Expr, vs *promql.VectorSelector) {
		reach := lookback
		if ms, ok := node.(*promql.MatrixSelector); ok {
			reach = ms.Range
		}
		pad = max(pad, model.DurationMillis(vs.Offset+reach))
	})
	return pad
}

// --- matrix splicing and rendering ---------------------------------------

// Render appends one sample's wire form to b. The cache keeps what it
// appends for each sample and hands the bytes back on reuse; it never looks
// inside them.
type Render func(b []byte, t int64, v float64) []byte

// Range is a range answer. Everything reachable from it may be the cache's
// own memory, shared with other callers and later lookups: read-only.
type Range struct {
	Matrix promql.Matrix
	// Rendered is nil, or holds for each series of Matrix its samples as
	// Render wrote them, back to back.
	Rendered [][]byte
}

// rendering is a matrix's samples as Render wrote them, series after series,
// in one slab b. off[k] lists where each sample of series k starts in b and,
// last, where its final one ends (len(off[k]) is its sample count + 1), so
// any run of samples is one sub-slice of b. A nil off means not rendered.
type rendering struct {
	b   []byte
	off [][]uint32
}

// bytes returns series k's rendered samples.
func (r rendering) bytes(k int) []byte {
	o := r.off[k]
	from, to := o[0], o[len(o)-1]
	return r.b[from:to:to]
}

func (r rendering) cost() int64 {
	if r.off == nil {
		return 0
	}
	n := int64(cap(r.b)) + 24*int64(len(r.off))
	for _, o := range r.off {
		n += 4 * int64(len(o))
	}
	return n
}

// part is a matrix and, when its samples are rendered, their rendering.
type part struct {
	m promql.Matrix
	r rendering
}

func (e *entry) part() part { return part{m: e.matrix, r: e.rendered} }

// answer hands p out: its matrix and, when the caller renders and p is
// rendered, each series' bytes.
func (p part) answer(render Render) Range {
	ans := Range{Matrix: p.m}
	if render != nil && p.r.off != nil {
		ans.Rendered = make([][]byte, len(p.m))
		for k := range p.m {
			ans.Rendered[k] = p.r.bytes(k)
		}
	}
	return ans
}

// extractRange returns the sub-matrix of p with sample times in [lo, hi],
// with the matching run of each rendered series. Series left empty are
// dropped. Nothing is copied: sample and offset slices are sub-slices of p,
// capped so an append cannot reach p's memory. Range-query sample timestamps
// are always the step evaluation times (every evaluator path stamps T with
// the step time), so selecting by T selects whole steps.
func extractRange(p part, lo, hi int64) part {
	out := part{m: make(promql.Matrix, 0, len(p.m)), r: rendering{b: p.r.b}}
	if p.r.off != nil {
		out.r.off = make([][]uint32, 0, len(p.m))
	}
	for k, s := range p.m {
		a := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].T >= lo })
		b := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].T > hi })
		if a == b {
			continue
		}
		out.m = append(out.m, model.Series{Labels: s.Labels, Samples: s.Samples[a:b:b]})
		if p.r.off != nil {
			out.r.off = append(out.r.off, p.r.off[k][a:b+1:b+1])
		}
	}
	return out
}

// renderGuess is the bytes reserved for a sample not yet rendered when
// nothing rendered is there to average: a dashboard sample,
// `,[1700000000.123,"12.345678901"]`, is about that long.
const renderGuess = 40

// renderWriter builds one rendering series by series: a part's rendered
// samples are copied, an unrendered part's are rendered.
type renderWriter struct {
	render Render
	r      rendering
	offs   []uint32 // every series' offsets back to back, sized exactly, so sub-slices stay valid
	from   int      // index in offs where the current series' first sample starts
}

// newRenderWriter sizes a writer for about series series holding samples
// samples, of which fresh are rendered anew and the rest copy kept bytes.
// It returns nil when the rendering would not fit in budget bytes — one no
// entry could keep is not made — or could outgrow the uint32 offsets.
func newRenderWriter(render Render, budget int64, series, samples, fresh, kept int) *renderWriter {
	guess := renderGuess
	if n := samples - fresh; n > 0 {
		guess = kept/n + 1
	}
	size := int64(kept) + int64(fresh)*int64(guess)
	if size+4*int64(samples) > budget || size > math.MaxUint32/2 {
		return nil
	}
	return &renderWriter{
		render: render,
		r:      rendering{b: make([]byte, 0, size), off: make([][]uint32, 0, series)},
		offs:   make([]uint32, 1, samples+1),
	}
}

// add appends the samples of series i of p to the current series.
func (w *renderWriter) add(p part, i int) {
	if p.r.off == nil {
		for _, s := range p.m[i].Samples {
			w.r.b = w.render(w.r.b, s.T, s.V)
			w.offs = append(w.offs, uint32(len(w.r.b)))
		}
		return
	}
	o := p.r.off[i]
	shift := uint32(len(w.r.b)) - o[0] // modular: the sums below are exact
	w.r.b = append(w.r.b, p.r.b[o[0]:o[len(o)-1]]...)
	for _, x := range o[1:] {
		w.offs = append(w.offs, x+shift)
	}
}

// endSeries closes the current series.
func (w *renderWriter) endSeries() {
	n := len(w.offs)
	w.r.off = append(w.r.off, w.offs[w.from:n:n])
	w.from = n - 1
}

// renderMatrix renders every sample of m, or returns an unrendered
// rendering when it would not fit in budget bytes.
func renderMatrix(render Render, budget int64, m promql.Matrix) rendering {
	n := 0
	for _, s := range m {
		n += len(s.Samples)
	}
	w := newRenderWriter(render, budget, len(m), n, n, 0)
	if w == nil {
		return rendering{}
	}
	p := part{m: m}
	for k := range m {
		w.add(p, k)
		w.endSeries()
	}
	return w.r
}

// sameRendering reports whether got's rendering, when it has one, is what
// render makes of want: the same bytes and the same sample boundaries.
func sameRendering(render Render, got part, want promql.Matrix) bool {
	if got.r.off == nil {
		return true
	}
	fresh := renderMatrix(render, math.MaxInt64, want)
	if len(got.r.off) != len(fresh.off) {
		return false
	}
	for k := range fresh.off {
		g, f := got.r.off[k], fresh.off[k]
		if !bytes.Equal(got.r.bytes(k), fresh.bytes(k)) || len(g) != len(f) {
			return false
		}
		for i := range f {
			if g[i]-g[0] != f[i]-f[0] {
				return false
			}
		}
	}
	return true
}

// spliceMerge concatenates per-series samples across parts covering
// disjoint, increasing time windows, producing exactly what one cold
// evaluation of the union window produces: series union, samples in time
// order, sorted by labels. Every part is itself sorted by labels with no
// label set repeated — evaluations return that, and cached entries are
// stored evaluations or earlier merges — so this is a k-way merge that
// compares label sets and never hashes them. The result's samples are one
// new slab; its label sets are the parts' own (read-only, like every cached
// answer). With render set the result is rendered too — a rendered part's
// bytes copied, an unrendered part's samples rendered — unless the
// rendering would not fit in budget bytes.
func spliceMerge(render Render, budget int64, parts ...part) part {
	var (
		next = make([]int, len(parts)) // cursor into each part
		same = make([]int, 0, len(parts))
		size int // most series any one part holds: the result has at least that many
		n    int // samples: each lands in exactly one result series
		w    *renderWriter
	)
	for _, p := range parts {
		size = max(size, len(p.m))
		for _, s := range p.m {
			n += len(s.Samples)
		}
	}
	if render != nil {
		fresh, kept := 0, 0
		for _, p := range parts {
			if p.r.off == nil {
				for _, s := range p.m {
					fresh += len(s.Samples)
				}
				continue
			}
			for k := range p.m {
				kept += len(p.r.bytes(k))
			}
		}
		w = newRenderWriter(render, budget, size, n, fresh, kept)
	}
	out := part{m: make(promql.Matrix, 0, size)}
	slab := make([]model.Sample, 0, n)
	for {
		// The parts whose next series carries the smallest label set.
		same = same[:0]
		var least labels.Labels
		for k, p := range parts {
			if next[k] == len(p.m) {
				continue
			}
			ls, c := p.m[next[k]].Labels, -1
			if len(same) > 0 {
				c = labels.Compare(ls, least)
			}
			if c < 0 {
				least, same = ls, append(same[:0], k)
			} else if c == 0 {
				same = append(same, k)
			}
		}
		if len(same) == 0 {
			if w != nil {
				out.r = w.r
			}
			return out
		}
		from := len(slab)
		for _, k := range same { // ascending k: time order
			slab = append(slab, parts[k].m[next[k]].Samples...)
			if w != nil {
				w.add(parts[k], next[k])
			}
			next[k]++
		}
		to := len(slab)
		out.m = append(out.m, model.Series{Labels: least, Samples: slab[from:to:to]})
		if w != nil {
			w.endSeries()
		}
	}
}

// EqualMatrix reports byte-for-byte equality of two matrices: same series
// in the same order, same labels, and per-sample identical timestamps and
// bit-identical values (NaNs with equal payloads compare equal, unlike ==).
func EqualMatrix(a, b promql.Matrix) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Labels.Equal(b[i].Labels) || len(a[i].Samples) != len(b[i].Samples) {
			return false
		}
		for j := range a[i].Samples {
			x, y := a[i].Samples[j], b[i].Samples[j]
			if x.T != y.T || math.Float64bits(x.V) != math.Float64bits(y.V) {
				return false
			}
		}
	}
	return true
}
