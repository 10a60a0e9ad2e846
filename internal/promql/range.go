package promql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/workpool"
)

// evaluator is the engine's one evaluator. It is series-major: instead of
// walking the expression tree once per step and building a vector of
// labelled samples each time, it
//
//  1. walks the tree once and registers every selector,
//  2. prefetches each selector's series with ONE Select spanning the whole
//     padded window [start − lookback/range − offset, lastStep − offset],
//     charging a per-query sample budget inside the storage pass when the
//     Queryable is hint-aware,
//  3. evaluates every node exactly once into a colSet — per output series
//     its labels, one value per step and a presence bitmap — so anything
//     that depends only on labels (grouping, match keys, pairings, result
//     labels, output order) is decided once per query, not per step, and
//  4. emits the root's columns as the result.
//
// Selectors slide one monotonic cursor per series across the steps
// (staleness markers are interpreted here); range functions fold each
// window straight from the prefetched samples; aggregations accumulate in
// input-series order so float sums carry the same bits as a per-step fold.
// An instant query is the same evaluation with one step. The result is
// byte-identical to the per-step reference (see oracle_test.go).
type evaluator struct {
	engine *Engine
	q      Queryable
	ctx    context.Context
	ts     []int64 // evaluation time of every step, ms
	stepMs int64
	// instant marks a one-step evaluation on behalf of Instant*: storage is
	// sent bounds and budget only, so cold tiers keep serving raw samples.
	instant bool
	// exactGrid holds when every step time is exactly ts[0] + i·stepMs, so
	// storage may trim each read to the samples its steps see
	// (SelectHints.Lookback): one step, or a whole-ms step from a whole-ms
	// start.
	exactGrid bool
	sels      []selectorData
	one       [1]int64 // backs ts for a one-step evaluation
}

// selectorData is one selector's prefetched window.
type selectorData struct {
	node     Expr // the *VectorSelector or *MatrixSelector it serves
	vs       *VectorSelector
	rangeMs  int64 // matrix selectors only
	offsetMs int64
	mint     int64 // prefetch bounds, inclusive ms
	maxt     int64
	// funcName is the PromQL function directly consuming this selector
	// ("" for a bare selector), forwarded as SelectHints.Func so
	// downsampling-aware storage knows whether an aggregate stream may
	// substitute for raw samples (rate and friends force raw).
	funcName string
	series   []model.Series
}

// newEvaluator lays out the step grid exactly as the per-step loop
// `for ts := start; !ts.After(end); ts = ts.Add(step)` walks it.
func newEvaluator(ctx context.Context, e *Engine, q Queryable, start time.Time, step time.Duration, steps int) *evaluator {
	if ctx == nil {
		ctx = context.Background()
	}
	ev := &evaluator{engine: e, q: q, ctx: ctx, stepMs: model.DurationMillis(step)}
	ev.exactGrid = steps == 1 || step%time.Millisecond == 0 && start.UnixNano()%int64(time.Millisecond) == 0
	ev.ts = ev.one[:]
	if steps > 1 {
		ev.ts = make([]int64, steps)
	}
	for i := range ev.ts {
		ev.ts[i] = model.TimeToMillis(start.Add(time.Duration(i) * step))
	}
	return ev
}

// collect registers every selector in the expression tree and computes its
// prefetch bounds. Matrix selectors are registered as a unit (their inner
// VectorSelector is not additionally registered as an instant selector).
// fn is the function whose call directly encloses e; any other intervening
// node resets it, which errs on the side of raw data.
func (ev *evaluator) collect(e Expr, fn string) {
	startMs, endMs := ev.ts[0], ev.ts[len(ev.ts)-1]
	switch t := e.(type) {
	case *VectorSelector:
		off := model.DurationMillis(t.Offset)
		ev.sels = append(ev.sels, selectorData{
			node: t, vs: t, offsetMs: off, funcName: fn,
			mint: startMs - off - model.DurationMillis(ev.engine.LookbackDelta),
			maxt: endMs - off,
		})
	case *MatrixSelector:
		off := model.DurationMillis(t.VS.Offset)
		rng := model.DurationMillis(t.Range)
		ev.sels = append(ev.sels, selectorData{
			node: t, vs: t.VS, rangeMs: rng, offsetMs: off, funcName: fn,
			mint: startMs - off - rng + 1, // windows are (t-range, t]
			maxt: endMs - off,
		})
	case *ParenExpr:
		ev.collect(t.Expr, fn)
	case *UnaryExpr:
		ev.collect(t.Expr, "")
	case *AggregateExpr:
		ev.collect(t.Expr, "")
		if t.Param != nil {
			ev.collect(t.Param, "")
		}
	case *BinaryExpr:
		ev.collect(t.LHS, "")
		ev.collect(t.RHS, "")
	case *Call:
		for _, a := range t.Args {
			ev.collect(a, t.Func.Name)
		}
	}
}

// prefetch issues exactly one Select per selector of expr, accounting every
// loaded sample against the engine's MaxSamples budget. The remaining budget
// goes to storage as hints.SampleLimit, so a store that honours it aborts an
// oversized query during the copy instead of after it. Every returned sample
// is charged again here: a store that ignores the limit or charges it per
// part (the ring's scatter-gather, per replica) still cannot carry an
// evaluation past the budget.
//
// On an exact step grid every read opts in to trimming (Lookback): storage
// may then return only the samples the steps look at — per step the newest
// sample for a bare selector, the window samples for a range function. An
// instant evaluation sends no Range, so there only bare selectors trim.
func (ev *evaluator) prefetch(expr Expr) error {
	ev.collect(expr, "")
	budget := int64(ev.engine.MaxSamples)
	lookback := model.DurationMillis(ev.engine.LookbackDelta)
	var used int64
	sq, bySelector := ev.q.(SelectorQueryable)
	for i := range ev.sels {
		sd := &ev.sels[i]
		if err := ev.ctx.Err(); err != nil {
			return err
		}
		hints := model.SelectHints{Start: sd.mint, End: sd.maxt}
		if !ev.instant {
			hints.Step, hints.Func, hints.Range = ev.stepMs, sd.funcName, sd.rangeMs
		}
		if ev.exactGrid && (!ev.instant || sd.rangeMs == 0) {
			hints.Lookback = lookback
		}
		if budget > 0 {
			// Budget exactly exhausted: 0 would mean "unlimited" to the
			// storage, so pass 1 — a selector matching nothing still
			// succeeds, any sample trips the limit.
			hints.SampleLimit = max(budget-used, 1)
		}
		var (
			series []model.Series
			err    error
		)
		if bySelector {
			series, err = sq.SelectSelector(sd.node, hints)
		} else {
			series, err = ev.q.SelectWithHints(hints, sd.vs.Matchers...)
		}
		if err != nil {
			if errors.Is(err, model.ErrSampleLimit) {
				return ev.sampleLimitErr()
			}
			return err
		}
		for _, s := range series {
			used += int64(len(s.Samples))
		}
		if budget > 0 && used > budget {
			return ev.sampleLimitErr()
		}
		sd.series = series
	}
	return nil
}

func (ev *evaluator) sampleLimitErr() error {
	return &LimitError{Msg: fmt.Sprintf(
		"promql: query exceeds the sample budget of %d (narrow the selectors or the range)",
		ev.engine.MaxSamples)}
}

// selector returns the prefetched window of a selector node. A query has a
// handful of selectors, so a scan beats a map.
func (ev *evaluator) selector(node Expr) (*selectorData, error) {
	for i := range ev.sels {
		if ev.sels[i].node == node {
			return &ev.sels[i], nil
		}
	}
	return nil, fmt.Errorf("promql: internal: selector %s missing from prefetch", node)
}

// colSet is one node's value over every step: column i is one output
// series — its labels, steps values (vals[i*steps:(i+1)*steps]) and a
// presence bitmap of `words` 64-bit words (pres[i*words:(i+1)*words]); a
// cleared bit means the series has no sample at that step, and its value
// slot is garbage. The bitmap is word-aligned per column so set logic is
// whole-word AND/OR and so workers that own disjoint column ranges never
// share a word. Bits past the last step stay clear.
//
// The vector a per-step evaluation would have produced at step s is the
// present columns in index order — or, when order is set, in order.at(s).
// Only operators that reorder by value (sort, topk) and label ties under
// an unstable sort need an order; everything else keeps it nil.
//
// A scalar is a one-column set, present at every step, flagged scalar.
type colSet struct {
	steps, words int
	lbls         []labels.Labels
	vals         []float64
	pres         []uint64
	order        *stepOrder
	scalar       bool
	// small backs vals and pres of a set of at most len(small.vals) cells —
	// the stat-panel instant query — so such a node costs one allocation.
	small struct {
		vals [4]float64
		pres [4]uint64
	}
}

// stepOrder lists, per step, column indices in vector order. A list may
// name absent columns (a later filter cleared them); readers skip those.
type stepOrder struct {
	off []int32 // step s is idx[off[s]:off[s+1]]
	idx []int32
}

func newStepOrder(steps int) *stepOrder {
	return &stepOrder{off: make([]int32, 1, steps+1)}
}

func (o *stepOrder) at(s int) []int32 { return o.idx[o.off[s]:o.off[s+1]] }

// push records cols as the next step's list.
func (o *stepOrder) push(cols []int32) {
	o.idx = append(o.idx, cols...)
	o.off = append(o.off, int32(len(o.idx)))
}

func (ev *evaluator) newCols(n int) *colSet {
	return ev.newColsFor(make([]labels.Labels, n))
}

// newColsFor returns an all-absent set with one column per label set.
func (ev *evaluator) newColsFor(lbls []labels.Labels) *colSet {
	steps := len(ev.ts)
	words := (steps + 63) >> 6
	c := &colSet{steps: steps, words: words, lbls: lbls}
	if cells := len(lbls) * steps; cells <= len(c.small.vals) {
		c.vals, c.pres = c.small.vals[:cells], c.small.pres[:len(lbls)*words]
	} else {
		c.vals, c.pres = make([]float64, cells), make([]uint64, len(lbls)*words)
	}
	return c
}

// newScalar returns a scalar set with every step present and value 0.
func (ev *evaluator) newScalar() *colSet {
	c := ev.newCols(1)
	c.scalar = true
	c.lbls[0] = labels.Labels{}
	setAll(c.pres, c.steps)
	return c
}

// setAll marks steps 0..steps-1 present in one column's bitmap.
func setAll(bm []uint64, steps int) {
	for w := range bm {
		bm[w] = ^uint64(0)
	}
	if r := uint(steps) & 63; r != 0 {
		bm[len(bm)-1] = 1<<r - 1
	}
}

func (c *colSet) n() int              { return len(c.lbls) }
func (c *colSet) col(i int) []float64 { return c.vals[i*c.steps : (i+1)*c.steps] }
func (c *colSet) bits(i int) []uint64 { return c.pres[i*c.words : (i+1)*c.words] }
func (c *colSet) has(i, s int) bool   { return c.pres[i*c.words+s>>6]&(1<<(uint(s)&63)) != 0 }

// setBit and clearBit mark step s present / absent in one column's bitmap.
func setBit(bm []uint64, s int)   { bm[s>>6] |= 1 << (uint(s) & 63) }
func clearBit(bm []uint64, s int) { bm[s>>6] &^= 1 << (uint(s) & 63) }

// gather is the adapter under every operator with no column form: it
// returns, in vector order, the columns present at step s — the inputs a
// per-step kernel would have been handed. buf is reused.
func (c *colSet) gather(s int, buf []int32) []int32 {
	buf = buf[:0]
	if c.order != nil {
		for _, i := range c.order.at(s) {
			if c.has(int(i), s) {
				buf = append(buf, i)
			}
		}
		return buf
	}
	w, bit := s>>6, uint64(1)<<(uint(s)&63)
	for i, n := 0, c.n(); i < n; i++ {
		if c.pres[i*c.words+w]&bit != 0 {
			buf = append(buf, int32(i))
		}
	}
	return buf
}

// parallelCells is the size, in (series, step) cells, from which a node's
// independent per-series work is split over more than one core. A cell costs
// tens of nanoseconds, so below it a goroutine hand-off costs more than it
// saves and the node runs on the caller's goroutine.
const parallelCells = 1 << 15

// forCols runs fn over the column range [0, n); fn checks ev.ctx once per
// column and returns early when it is done, which forCols then reports.
// Column ranges are independent by construction (disjoint values, disjoint
// bitmap words). Whether the work fans out is workpool.DoRange's decision: it
// is handed the node in cells, a column being len(ev.ts) of them and the
// least a range may hold; a range covers the columns that start inside it.
func (ev *evaluator) forCols(n int, fn func(lo, hi int)) error {
	steps := len(ev.ts)
	workpool.DoRange(n*steps, max(parallelCells/2, steps), func(lo, hi int) {
		fn((lo+steps-1)/steps, (hi+steps-1)/steps)
	})
	return ev.ctx.Err()
}

// eval evaluates one node into its columns. Every node is consumed by
// exactly one parent, so operators that keep their input's shape rewrite
// it in place.
func (ev *evaluator) eval(expr Expr) (*colSet, error) {
	switch e := expr.(type) {
	case *NumberLiteral:
		c := ev.newScalar()
		for s := range c.vals {
			c.vals[s] = e.Val
		}
		return c, nil
	case *StringLiteral:
		return nil, fmt.Errorf("promql: unexpected %s result in range query", ValueString)
	case *ParenExpr:
		return ev.eval(e.Expr)
	case *UnaryExpr:
		return ev.mapCols(e.Expr, func(_ int, v float64) float64 { return -v })
	case *VectorSelector:
		return ev.vectorSelector(e)
	case *MatrixSelector:
		return nil, fmt.Errorf("promql: range selector %s outside a range function", e)
	case *Call:
		return e.Func.Call(ev, e.Args)
	case *AggregateExpr:
		return ev.aggregate(e)
	case *BinaryExpr:
		return ev.binary(e)
	}
	return nil, fmt.Errorf("promql: unhandled expression %T", expr)
}

// unparen strips enclosing parentheses.
func unparen(e Expr) Expr {
	for {
		p, ok := e.(*ParenExpr)
		if !ok {
			return e
		}
		e = p.Expr
	}
}

// instantValue evaluates expr at the evaluator's single step and shapes
// the result as Instant* returns it.
func (ev *evaluator) instantValue(expr Expr) (Value, error) {
	inner := unparen(expr)
	if s, ok := inner.(*StringLiteral); ok {
		return String{V: s.Val}, nil
	}
	if err := ev.prefetch(expr); err != nil {
		return nil, err
	}
	if ms, ok := inner.(*MatrixSelector); ok {
		return ev.matrixSelector(ms)
	}
	c, err := ev.eval(expr)
	if err != nil {
		return nil, err
	}
	ts := ev.ts[0]
	if c.scalar {
		return Scalar{T: ts, V: c.vals[0]}, nil
	}
	out := make(Vector, 0, c.n())
	if c.order == nil {
		for i, lbls := range c.lbls {
			if c.has(i, 0) {
				out = append(out, Sample{Labels: lbls, T: ts, V: c.vals[i]})
			}
		}
		return out, nil
	}
	for _, i := range c.gather(0, nil) {
		out = append(out, Sample{Labels: c.lbls[i], T: ts, V: c.vals[i]})
	}
	return out, nil
}

// matrixSelector is the value of a bare range selector in an instant
// query: every sample in (t−range, t] per series — which is exactly what
// was prefetched — minus staleness markers, emptied series dropped.
func (ev *evaluator) matrixSelector(ms *MatrixSelector) (Matrix, error) {
	sd, err := ev.selector(ms)
	if err != nil {
		return nil, err
	}
	out := make(Matrix, 0, len(sd.series))
	for _, s := range sd.series {
		kept := dropStaleMarkers(s.Samples)
		if len(kept) == 0 {
			continue
		}
		out = append(out, model.Series{Labels: s.Labels, Samples: kept})
	}
	return out, nil
}

// vectorSelector fills, per matching series, the most recent sample at or
// before each (offset-adjusted) step time; the cell stays absent when that
// sample has fallen out of the lookback window or is a staleness marker.
// One cursor per series only ever moves forward.
func (ev *evaluator) vectorSelector(vs *VectorSelector) (*colSet, error) {
	sd, err := ev.selector(vs)
	if err != nil {
		return nil, err
	}
	lookback := model.DurationMillis(ev.engine.LookbackDelta)
	out := ev.newCols(len(sd.series))
	err = ev.forCols(len(sd.series), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if ev.ctx.Err() != nil {
				return
			}
			out.lbls[i] = sd.series[i].Labels
			samples := sd.series[i].Samples
			vals, bm := out.col(i), out.bits(i)
			k := 0
			for s, ts := range ev.ts {
				t := ts - sd.offsetMs
				for k < len(samples) && samples[k].T <= t {
					k++
				}
				if k == 0 {
					continue
				}
				last := samples[k-1]
				if last.T < t-lookback || model.IsStaleNaN(last.V) {
					// Out of lookback, or the series went stale: invisible.
					continue
				}
				vals[s] = last.V
				setBit(bm, s)
			}
		}
	})
	return out, err
}

// rangeKernel folds one non-empty window of samples into a value; false
// means the window yields no sample. param is the function's per-step
// scalar argument (quantile_over_time's φ), 0 for functions without one.
type rangeKernel func(win []model.Sample, param float64) (float64, bool)

// rangeCols evaluates a range-vector function: per series, two cursors
// slide the window (t−range, t] across the steps and fn folds it straight
// from the prefetched samples. Staleness markers are dropped once per
// series, not once per window.
func (ev *evaluator) rangeCols(arg Expr, param *colSet, fn rangeKernel) (*colSet, error) {
	ms, ok := unparen(arg).(*MatrixSelector)
	if !ok {
		return nil, fmt.Errorf("promql: range function requires a range selector argument")
	}
	sd, err := ev.selector(ms)
	if err != nil {
		return nil, err
	}
	out := ev.newCols(len(sd.series))
	err = ev.forCols(len(sd.series), func(from, to int) {
		for i := from; i < to; i++ {
			if ev.ctx.Err() != nil {
				return
			}
			out.lbls[i] = dropName(sd.series[i].Labels)
			samples := dropStaleMarkers(sd.series[i].Samples)
			vals, bm := out.col(i), out.bits(i)
			lo, hi := 0, 0
			for s, ts := range ev.ts {
				t := ts - sd.offsetMs
				mint := t - sd.rangeMs // window is (mint, t]
				for hi < len(samples) && samples[hi].T <= t {
					hi++
				}
				for lo < hi && samples[lo].T <= mint {
					lo++
				}
				if lo == hi {
					continue
				}
				p := 0.0
				if param != nil {
					p = param.vals[s]
				}
				v, keep := fn(samples[lo:hi], p)
				if !keep {
					continue
				}
				vals[s] = v
				setBit(bm, s)
			}
		}
	})
	return out, err
}

// mapCols applies fn to every present cell of a vector expression and drops
// the metric name, in place.
func (ev *evaluator) mapCols(arg Expr, fn func(step int, v float64) float64) (*colSet, error) {
	c, err := ev.eval(arg)
	if err != nil {
		return nil, err
	}
	if c.scalar {
		for s, v := range c.vals {
			c.vals[s] = fn(s, v)
		}
		return c, nil
	}
	err = ev.forCols(c.n(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if ev.ctx.Err() != nil {
				return
			}
			c.lbls[i] = dropName(c.lbls[i])
			vals := c.col(i)
			for w, word := range c.bits(i) {
				for ; word != 0; word &= word - 1 {
					s := w<<6 + bits.TrailingZeros64(word)
					vals[s] = fn(s, vals[s])
				}
			}
		}
	})
	return c, err
}

// aggregate implements sum/avg/min/max/count/group/stddev/stdvar/quantile/
// topk/bottomk with by/without grouping. Every input series is assigned to
// its group once; group labels and the output order (sorted by labels, as
// the per-step sort leaves them) are fixed once.
func (ev *evaluator) aggregate(agg *AggregateExpr) (*colSet, error) {
	in, err := ev.eval(agg.Expr)
	if err != nil {
		return nil, err
	}
	if in.scalar {
		return nil, fmt.Errorf("promql: aggregation over %s not allowed", ValueScalar)
	}
	var param *colSet
	if agg.Param != nil {
		if param, err = ev.eval(agg.Param); err != nil {
			return nil, err
		}
		if !param.scalar {
			return nil, fmt.Errorf("promql: aggregation parameter must be scalar")
		}
	}

	n := in.n()
	idx := ev.engine.newKeyIndex(groupingSpec(agg), n)
	ints := make([]int32, 2*n)
	grp := ints[:n]    // input column -> group
	first := ints[n:n] // group -> its first member
	for c := 0; c < n; c++ {
		if err := ev.ctx.Err(); err != nil {
			return nil, err
		}
		g, isNew := idx.intern(in.lbls[c])
		grp[c] = g
		if isNew {
			first = append(first, int32(c))
		}
	}
	if agg.Op == TOPK || agg.Op == BOTTOMK {
		return ev.topk(agg.Op == TOPK, in, param, grp, len(first))
	}

	// One output column per group, in label order; grp is remapped to it.
	out := ev.newCols(len(first))
	for g, c := range first {
		if agg.Without {
			out.lbls[g] = in.lbls[c].WithoutNames(agg.Grouping...)
		} else {
			out.lbls[g] = in.lbls[c].KeepNames(agg.Grouping...)
		}
	}
	if slot := sortLabels(out.lbls); slot != nil {
		for c := range grp {
			grp[c] = slot[grp[c]]
		}
	}

	switch agg.Op {
	case SUM, AVG, MIN, MAX, COUNT, GROUP:
		if in.order == nil {
			return out, ev.accumulate(agg.Op, in, out, grp)
		}
	}
	return out, ev.foldGathered(agg.Op, in, param, out, grp)
}

// sortLabels sorts lbls (stably) and returns where each element went —
// slot[old] = new — or nil if they were sorted already.
func sortLabels(lbls []labels.Labels) (slot []int32) {
	if len(lbls) < 2 {
		return nil
	}
	less := func(i, j int) bool { return labels.Compare(lbls[i], lbls[j]) < 0 }
	if sort.SliceIsSorted(lbls, less) {
		return nil
	}
	byLabel := make([]int32, len(lbls))
	for i := range byLabel {
		byLabel[i] = int32(i)
	}
	orig := append([]labels.Labels(nil), lbls...)
	sort.SliceStable(byLabel, func(i, j int) bool {
		return labels.Compare(orig[byLabel[i]], orig[byLabel[j]]) < 0
	})
	slot = make([]int32, len(lbls))
	for pos, i := range byLabel {
		slot[i] = int32(pos)
		lbls[pos] = orig[i]
	}
	return slot
}

// accumulate folds the running aggregations series-major: input columns
// are visited in index order — the order a per-step fold meets them — and
// each adds its present cells to its group's column, so every cell sees
// the same operands in the same order as aggValue would and float results
// are bit-identical.
func (ev *evaluator) accumulate(op ItemType, in, out *colSet, grp []int32) error {
	var counts []float64 // AVG only
	switch op {
	case AVG:
		counts = make([]float64, len(out.vals))
	case MIN:
		for i := range out.vals {
			out.vals[i] = math.Inf(1)
		}
	case MAX:
		for i := range out.vals {
			out.vals[i] = math.Inf(-1)
		}
	}
	steps := in.steps
	for c, n := 0, in.n(); c < n; c++ {
		if err := ev.ctx.Err(); err != nil {
			return err
		}
		g := int(grp[c])
		iv, ov, ob := in.col(c), out.col(g), out.bits(g)
		for w, word := range in.bits(c) {
			ob[w] |= word
			switch op {
			case SUM:
				for ; word != 0; word &= word - 1 {
					s := w<<6 + bits.TrailingZeros64(word)
					ov[s] += iv[s]
				}
			case AVG:
				cnt := counts[g*steps : (g+1)*steps]
				for ; word != 0; word &= word - 1 {
					s := w<<6 + bits.TrailingZeros64(word)
					ov[s] += iv[s]
					cnt[s]++
				}
			case MIN:
				for ; word != 0; word &= word - 1 {
					s := w<<6 + bits.TrailingZeros64(word)
					if v := iv[s]; v < ov[s] || math.IsNaN(ov[s]) {
						ov[s] = v
					}
				}
			case MAX:
				for ; word != 0; word &= word - 1 {
					s := w<<6 + bits.TrailingZeros64(word)
					if v := iv[s]; v > ov[s] || math.IsNaN(ov[s]) {
						ov[s] = v
					}
				}
			case COUNT:
				for ; word != 0; word &= word - 1 {
					ov[w<<6+bits.TrailingZeros64(word)]++
				}
			case GROUP:
				for ; word != 0; word &= word - 1 {
					ov[w<<6+bits.TrailingZeros64(word)] = 1
				}
			}
		}
	}
	if op == AVG {
		for i, cnt := range counts {
			if cnt != 0 {
				out.vals[i] /= cnt
			}
		}
	}
	return nil
}

// foldGathered serves the aggregations with no running form (stddev,
// stdvar, quantile) and any aggregation over an input whose vector order
// varies by step: per step it gathers each group's values in vector order
// and hands them to aggValue.
func (ev *evaluator) foldGathered(op ItemType, in, param, out *colSet, grp []int32) error {
	groups := make([][]float64, out.n())
	var cols []int32
	for s := 0; s < in.steps; s++ {
		if err := ev.ctx.Err(); err != nil {
			return err
		}
		cols = in.gather(s, cols)
		for _, c := range cols {
			g := grp[c]
			groups[g] = append(groups[g], in.vals[int(c)*in.steps+s])
		}
		p := 0.0
		if param != nil {
			p = param.vals[s]
		}
		for g, vals := range groups {
			if len(vals) == 0 {
				continue
			}
			v, err := aggValue(op, vals, p)
			if err != nil {
				return err
			}
			out.vals[g*out.steps+s] = v
			setBit(out.bits(g), s)
			groups[g] = vals[:0]
		}
	}
	return nil
}

// topk keeps, per step and group, the k largest (or smallest) input
// samples under their own labels. Selection depends on the step's values,
// so it runs per step on the gathered columns: groups in order of first
// appearance, each sorted by value, the picks then sorted by labels — the
// same unstable sorts over the same sequences as a per-step evaluation, so
// even label ties land in the same order. The result is the input narrowed
// to the picked cells, with an explicit per-step order.
func (ev *evaluator) topk(largest bool, in, param *colSet, grp []int32, groups int) (*colSet, error) {
	picked := make([]uint64, len(in.pres))
	order := newStepOrder(in.steps)
	members := make([][]int32, groups)
	var cols, seen, picks []int32
	for s := 0; s < in.steps; s++ {
		if err := ev.ctx.Err(); err != nil {
			return nil, err
		}
		cols = in.gather(s, cols)
		seen = seen[:0]
		for _, c := range cols {
			g := grp[c]
			if len(members[g]) == 0 {
				seen = append(seen, g)
			}
			members[g] = append(members[g], c)
		}
		k := 0
		if param != nil {
			k = int(param.vals[s])
		}
		val := func(c int32) float64 { return in.vals[int(c)*in.steps+s] }
		picks = picks[:0]
		for _, g := range seen {
			mem := members[g]
			members[g] = mem[:0]
			if k <= 0 {
				continue
			}
			sort.Slice(mem, func(i, j int) bool {
				if largest {
					return val(mem[i]) > val(mem[j])
				}
				return val(mem[i]) < val(mem[j])
			})
			if k < len(mem) {
				mem = mem[:k]
			}
			picks = append(picks, mem...)
		}
		sort.Slice(picks, func(i, j int) bool {
			return labels.Compare(in.lbls[picks[i]], in.lbls[picks[j]]) < 0
		})
		for _, c := range picks {
			setBit(picked[int(c)*in.words:], s)
		}
		order.push(picks)
	}
	in.pres, in.order = picked, order
	return in, nil
}

// binary evaluates a binary operator expression.
func (ev *evaluator) binary(b *BinaryExpr) (*colSet, error) {
	l, err := ev.eval(b.LHS)
	if err != nil {
		return nil, err
	}
	r, err := ev.eval(b.RHS)
	if err != nil {
		return nil, err
	}
	switch {
	case l.scalar && r.scalar:
		for s := range l.vals {
			v, keep := binOp(b.Op, l.vals[s], r.vals[s], b.ReturnBool)
			if !keep {
				v = 0 // scalar comparisons always use bool (checked at parse)
			}
			l.vals[s] = v
		}
		return l, nil
	case l.scalar:
		return r, ev.scalarVector(b, l, r, true)
	case r.scalar:
		return l, ev.scalarVector(b, r, l, false)
	case isSetOp(b.Op):
		return ev.setOp(b, l, r)
	}
	return ev.vectorVector(b, l, r)
}

// scalarVector applies op between a scalar and each cell of vec, in place.
// scalarLeft indicates the scalar was the left operand.
func (ev *evaluator) scalarVector(b *BinaryExpr, sc, vec *colSet, scalarLeft bool) error {
	filter := isComparison(b.Op) && !b.ReturnBool
	return ev.forCols(vec.n(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if ev.ctx.Err() != nil {
				return
			}
			vec.lbls[i] = dropName(vec.lbls[i])
			vals, bm := vec.col(i), vec.bits(i)
			for w, word := range bm {
				for ; word != 0; word &= word - 1 {
					s := w<<6 + bits.TrailingZeros64(word)
					l, r := sc.vals[s], vals[s]
					if !scalarLeft {
						l, r = r, l
					}
					v, keep := binOp(b.Op, l, r, b.ReturnBool)
					if filter {
						// Filter semantics: a match keeps the original value.
						if !keep {
							clearBit(bm, s)
						}
						continue
					}
					vals[s] = v
				}
			}
		}
	})
}

// vectorVector applies an arithmetic or comparison operator between two
// vectors. Match keys are resolved once per series; each (many-side,
// one-side) series pair that shares a key becomes one output column whose
// labels are built once, and per step only presence decides whether the
// pair produces a sample. The cardinality errors a per-step evaluation
// raises — two one-side series with one key at one step, or two many-side
// series matching at one step under one-to-one — are found as overlaps
// between presence bitmaps.
func (ev *evaluator) vectorVector(b *BinaryExpr, lhs, rhs *colSet) (*colSet, error) {
	vm := b.Matching
	one, many := rhs, lhs
	oneIsLeft := vm != nil && vm.Card == CardOneToMany
	if oneIsLeft {
		one, many = lhs, rhs
	}
	oneToOne := vm == nil || vm.Card == CardOneToOne
	words := one.words

	// One side: columns chained per key in column order; union[k] is the
	// steps at which key k has a one-side sample.
	no := one.n()
	idx := ev.engine.newKeyIndex(matchingSpec(vm), no)
	ints := make([]int32, 3*no)
	link := ints[:no]                    // column -> next column with its key, -1 at the end
	head := ints[no:no]                  // key -> first column
	tail := ints[2*no : 2*no]            // key -> last column
	union := make([]uint64, 0, no*words) // key -> presence, words each
	for o := 0; o < no; o++ {
		if err := ev.ctx.Err(); err != nil {
			return nil, err
		}
		k, isNew := idx.intern(one.lbls[o])
		link[o] = -1
		if isNew {
			head, tail = append(head, int32(o)), append(tail, int32(o))
			union = union[:len(union)+words]
		} else {
			link[tail[k]], tail[k] = int32(o), int32(o)
		}
		u := union[int(k)*words : (int(k)+1)*words]
		for w, word := range one.bits(o) {
			if u[w]&word != 0 {
				return nil, fmt.Errorf("promql: many-to-many matching: duplicate series %s and %s on 'one' side",
					one.lbls[head[k]], one.lbls[o])
			}
			u[w] |= word
		}
	}

	// Many side: one pair per one-side column sharing the key, in many-side
	// column order.
	type pair struct{ m, o int32 }
	pairs := make([]pair, 0, many.n())
	var matched []uint64 // key -> steps already matched (one-to-one only)
	if oneToOne {
		matched = make([]uint64, len(union))
	}
	for m, n := 0, many.n(); m < n; m++ {
		if err := ev.ctx.Err(); err != nil {
			return nil, err
		}
		k := idx.lookup(many.lbls[m])
		if k < 0 {
			continue
		}
		if oneToOne {
			u, seen := union[int(k)*words:(int(k)+1)*words], matched[int(k)*words:(int(k)+1)*words]
			for w, word := range many.bits(m) {
				word &= u[w]
				if seen[w]&word != 0 {
					return nil, fmt.Errorf("promql: one-to-one matching: multiple matches for %s; use group_left/group_right", many.lbls[m])
				}
				seen[w] |= word
			}
		}
		for o := head[k]; o >= 0; o = link[o] {
			pairs = append(pairs, pair{int32(m), o})
		}
	}

	// Output columns are the pairs sorted by result labels — the order the
	// per-step sort leaves them in; cols[c] is the pair behind column c.
	lbls := make([]labels.Labels, len(pairs))
	for p, pr := range pairs {
		lbls[p] = resultLabels(vm, many.lbls[pr.m], one.lbls[pr.o])
	}
	cols := pairs
	slot := sortLabels(lbls)
	if slot != nil {
		cols = make([]pair, len(pairs))
		for p, c := range slot {
			cols[c] = pairs[p]
		}
	}

	out := ev.newColsFor(lbls)
	filter := isComparison(b.Op) && !b.ReturnBool
	err := ev.forCols(len(cols), func(lo, hi int) {
		for c := lo; c < hi; c++ {
			if ev.ctx.Err() != nil {
				return
			}
			pr := cols[c]
			mv, ov := many.col(int(pr.m)), one.col(int(pr.o))
			mb, ob := many.bits(int(pr.m)), one.bits(int(pr.o))
			vals, bm := out.col(c), out.bits(c)
			for w := range bm {
				both := mb[w] & ob[w]
				bm[w] = both
				for word := both; word != 0; word &= word - 1 {
					s := w<<6 + bits.TrailingZeros64(word)
					l, r := mv[s], ov[s]
					if oneIsLeft {
						l, r = r, l
					}
					v, keep := binOp(b.Op, l, r, b.ReturnBool)
					if filter {
						if !keep {
							clearBit(bm, s)
							continue
						}
						v = l
					}
					vals[s] = v
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}

	// Distinct labels leave the sorted order beyond doubt. Where two output
	// series share a label set and a step, the per-step sort (unstable)
	// decides their order from the sequence it was given, so replay it:
	// the step's outputs in many-side vector order, sorted the same way.
	if !out.hasLabelTies() {
		return out, nil
	}
	pairsOf := make([]int32, many.n()+1) // many column m owns pairs[pairsOf[m]:pairsOf[m+1]]
	for _, pr := range pairs {
		pairsOf[pr.m+1]++
	}
	for m := range pairsOf[1:] {
		pairsOf[m+1] += pairsOf[m]
	}
	out.order = newStepOrder(out.steps)
	var ms, step []int32
	for s := 0; s < out.steps; s++ {
		ms = many.gather(s, ms)
		step = step[:0]
		for _, m := range ms {
			for p := pairsOf[m]; p < pairsOf[m+1]; p++ {
				c := p
				if slot != nil {
					c = slot[p]
				}
				if out.has(int(c), s) {
					step = append(step, c)
				}
			}
		}
		sort.Slice(step, func(i, j int) bool {
			return labels.Compare(out.lbls[step[i]], out.lbls[step[j]]) < 0
		})
		out.order.push(step)
	}
	return out, nil
}

// hasLabelTies reports whether two columns, sorted by labels, carry equal
// label sets and are both present at some step.
func (c *colSet) hasLabelTies() bool {
	run := make([]uint64, c.words) // presence of the current run of equal labels
	for i, n := 0, c.n(); i < n; i++ {
		if i == 0 || labels.Compare(c.lbls[i-1], c.lbls[i]) != 0 {
			copy(run, c.bits(i))
			continue
		}
		for w, word := range c.bits(i) {
			if run[w]&word != 0 {
				return true
			}
			run[w] |= word
		}
	}
	return false
}

// setOp implements and/or/unless. A cell's fate depends only on whether
// the other side has any sample under its match key at that step, so each
// key's presence is OR-ed once and applied to whole bitmap words. Values
// and labels pass through untouched.
func (ev *evaluator) setOp(b *BinaryExpr, lhs, rhs *colSet) (*colSet, error) {
	probe, against := lhs, rhs // AND, UNLESS: lhs cells tested against rhs keys
	if b.Op == OR {
		probe, against = rhs, lhs
	}
	words := lhs.words
	idx := ev.engine.newKeyIndex(matchingSpec(b.Matching), against.n())
	var union []uint64 // key -> presence, words each
	for i, n := 0, against.n(); i < n; i++ {
		if err := ev.ctx.Err(); err != nil {
			return nil, err
		}
		k, isNew := idx.intern(against.lbls[i])
		if isNew {
			union = append(union, make([]uint64, words)...)
		}
		u := union[int(k)*words : (int(k)+1)*words]
		for w, word := range against.bits(i) {
			u[w] |= word
		}
	}
	for i, n := 0, probe.n(); i < n; i++ {
		if err := ev.ctx.Err(); err != nil {
			return nil, err
		}
		bm := probe.bits(i)
		k := idx.lookup(probe.lbls[i])
		switch {
		case k >= 0 && b.Op == AND:
			for w := range bm {
				bm[w] &= union[int(k)*words+w]
			}
		case k >= 0: // OR, UNLESS: the other side's sample wins
			for w := range bm {
				bm[w] &^= union[int(k)*words+w]
			}
		case b.Op == AND:
			for w := range bm {
				bm[w] = 0
			}
		}
	}
	if b.Op != OR {
		return lhs, nil
	}

	// or: every lhs sample, then the rhs samples that survived.
	nl, nr := lhs.n(), rhs.n()
	out := ev.newCols(nl + nr)
	copy(out.lbls, lhs.lbls)
	copy(out.lbls[nl:], rhs.lbls)
	copy(out.vals, lhs.vals)
	copy(out.vals[len(lhs.vals):], rhs.vals)
	copy(out.pres, lhs.pres)
	copy(out.pres[len(lhs.pres):], rhs.pres)
	if lhs.order != nil || rhs.order != nil {
		out.order = newStepOrder(out.steps)
		var cols, rcols []int32
		for s := 0; s < out.steps; s++ {
			cols = lhs.gather(s, cols)
			rcols = rhs.gather(s, rcols)
			for _, c := range rcols {
				cols = append(cols, c+int32(nl))
			}
			out.order.push(cols)
		}
	}
	return out, nil
}

// matrix emits the columns as a range-query result: one series per
// distinct label set, sorted by labels, each with one sample per present
// step. All samples share one backing array. Columns that carry the same
// label set collapse into one series whose samples follow step order and,
// within a step, vector order — as accumulating per-step vectors would.
//
// Aliasing: the Labels values may alias storage-owned label sets (a bare
// selector hands out the head's memSeries labels). Results are safe to
// read and to append samples to, but their label slices must not be
// mutated in place, and anything retaining a result beyond the request
// must snapshot it with Matrix.Clone — the query-result cache does this on
// every insert and hit.
func (c *colSet) matrix(ts []int64) Matrix {
	n := c.n()
	ints := make([]int32, 3*n)
	byLabel, counts, series := ints[:n], ints[n:2*n], ints[2*n:]
	total := 0
	for i := range byLabel {
		byLabel[i] = int32(i)
		for _, word := range c.bits(i) {
			counts[i] += int32(bits.OnesCount64(word))
		}
		total += int(counts[i])
	}
	less := func(i, j int) bool { return labels.Compare(c.lbls[byLabel[i]], c.lbls[byLabel[j]]) < 0 }
	if !sort.SliceIsSorted(byLabel, less) {
		sort.SliceStable(byLabel, less)
	}
	buf := make([]model.Sample, total)
	out := make(Matrix, 0, n)

	// One series per run of equal label sets; cut its samples from buf.
	// series[i] is the output series column i feeds, -1 if it stays empty.
	shared := false // some series is fed by several columns
	for lo := 0; lo < n; {
		hi, size := lo+1, int(counts[byLabel[lo]])
		for hi < n && labels.Compare(c.lbls[byLabel[lo]], c.lbls[byLabel[hi]]) == 0 {
			size += int(counts[byLabel[hi]])
			hi++
		}
		for _, i := range byLabel[lo:hi] {
			series[i] = -1
			if size > 0 {
				series[i] = int32(len(out))
			}
		}
		if size > 0 {
			shared = shared || hi-lo > 1
			out = append(out, model.Series{Labels: c.lbls[byLabel[lo]], Samples: buf[:0:size]})
			buf = buf[size:]
		}
		lo = hi
	}

	if !shared {
		for i := 0; i < n; i++ {
			if series[i] < 0 {
				continue
			}
			sr := &out[series[i]]
			vals := c.col(i)
			for w, word := range c.bits(i) {
				for ; word != 0; word &= word - 1 {
					s := w<<6 + bits.TrailingZeros64(word)
					sr.Samples = append(sr.Samples, model.Sample{T: ts[s], V: vals[s]})
				}
			}
		}
		return out
	}
	var cols []int32
	for s := 0; s < c.steps; s++ {
		cols = c.gather(s, cols)
		for _, i := range cols {
			sr := &out[series[i]]
			sr.Samples = append(sr.Samples, model.Sample{T: ts[s], V: c.vals[int(i)*c.steps+s]})
		}
	}
	return out
}
