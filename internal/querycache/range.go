package querycache

import (
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

// InstantEval evaluates the query at its instant timestamp.
type InstantEval func(ctx context.Context) (promql.Value, error)

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
// the cached part; everything else evaluates cold and is stored. The
// returned Matrix never shares sample or label slices with the cache.
func (c *Cache) RangeQuery(ctx context.Context, query string, start, end time.Time, step time.Duration, eval RangeEval) (promql.Matrix, Outcome, error) {
	if c == nil || c.opts.Head == nil || step <= 0 || start.After(end) {
		m, err := eval(ctx, start, end, step)
		return m, OutcomeBypass, err
	}
	expr, err := promql.ParseExprCached(query)
	if err != nil {
		// Let the evaluator produce its own (identical) parse error.
		m, err := eval(ctx, start, end, step)
		return m, OutcomeBypass, err
	}
	stepMs := model.DurationMillis(step)
	if stepMs <= 0 {
		// A sub-millisecond step truncates to 0 on the millisecond grid;
		// evaluate cold rather than divide by zero below.
		m, err := eval(ctx, start, end, step)
		return m, OutcomeBypass, err
	}
	var (
		startMs = model.TimeToMillis(start)
		endMs   = model.TimeToMillis(end)
		lastMs  = startMs + (endMs-startMs)/stepMs*stepMs // last grid step
		phase   = floorMod(startMs, stepMs)
		padMs   = maxPadMs(expr, c.opts.Lookback)
		key     = fmt.Sprintf("r\x00%s\x00%d\x00%d\x00%d", NormalizeQuery(query), stepMs, phase, padMs)
	)
	if steps := (endMs-startMs)/stepMs + 1; steps > c.maxSteps() {
		// Beyond the engine's step guardrail: evaluate cold so the request
		// gets the engine's own LimitError. Splicing here could assemble a
		// union window the engine would have refused to evaluate.
		m, err := eval(ctx, start, end, step)
		return m, OutcomeBypass, err
	}
	return c.rangeLookup(ctx, key, startMs, lastMs, stepMs, phase, padMs, start, end, step, eval, true)
}

// rangeLookup probes the cache once and serves the hit/splice/miss result.
// latch controls whether a full cold miss goes through the singleflight
// latch; the follower retry passes false so a failed leader cannot convoy
// followers behind one another forever.
func (c *Cache) rangeLookup(ctx context.Context, key string, startMs, lastMs, stepMs, phase, padMs int64, start, end time.Time, step time.Duration, eval RangeEval, latch bool) (promql.Matrix, Outcome, error) {
	st := c.snapshot()
	sh := c.shardFor(key)
	ent := sh.get(key)
	if ent != nil && ent.fillGen != st.gen {
		// A destructive mutation (DeleteSeries) ran since fill: any cached
		// step may now be wrong. Drop the entry.
		sh.remove(key, ent)
		c.invalidations.Add(1)
		ent = nil
	}
	if ent == nil {
		return c.rangeColdFlight(ctx, key, st, startMs, lastMs, stepMs, phase, padMs, start, end, step, eval, latch)
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
		case ent.startMs != startMs || ent.lastMs != lastMs:
			// A different window under the same key: evaluate it, leave the
			// entry for repeats of the original window.
		case st.epoch != ent.fillEpoch && ent.lastMs >= c.settledBefore(ent.fillMax):
			sh.remove(key, ent)
			c.invalidations.Add(1)
		case st.hasPruned && startMs-padMs < st.pruned:
			sh.remove(key, ent)
			c.invalidations.Add(1)
		default:
			c.negHits.Add(1)
			return nil, OutcomeHit, ent.negErr
		}
		return c.rangeColdFlight(ctx, key, st, startMs, lastMs, stepMs, phase, padMs, start, end, step, eval, latch)
	}

	// Reusable sub-window of the cached grid.
	lo := max(startMs, ent.startMs)
	hi := min(lastMs, ent.lastMs)
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
			return c.rangeColdFlight(ctx, key, st, startMs, lastMs, stepMs, phase, padMs, start, end, step, eval, latch)
		}
		// settledBefore widens the mutable tail by the head's out-of-order
		// window: with the window on, appends may land up to window behind
		// the watermark, so only steps strictly below fillMax − window were
		// provably complete at fill.
		hi = min(hi, alignDown(c.settledBefore(ent.fillMax)-1, phase, stepMs))
	}
	if st.hasPruned {
		// Steps whose padded read window reaches below the pruned watermark
		// are trimmed: a cold evaluation may no longer see their data.
		lo = max(lo, alignUp(st.pruned+padMs, phase, stepMs))
	}
	if lo > hi {
		return c.rangeColdFlight(ctx, key, st, startMs, lastMs, stepMs, phase, padMs, start, end, step, eval, latch)
	}
	mid := extractRange(ent.matrix, lo, hi)
	if lo == startMs && hi == lastMs {
		c.hits.Add(1)
		return cloneMatrix(mid), OutcomeHit, nil
	}

	// Splice: evaluate only the uncovered head and tail of the grid.
	var headM, tailM promql.Matrix
	if startMs < lo {
		m, err := eval(ctx, model.MillisToTime(startMs), model.MillisToTime(lo-stepMs), step)
		if err != nil {
			return nil, OutcomeBypass, err
		}
		headM = m
	}
	if hi < lastMs {
		m, err := eval(ctx, model.MillisToTime(hi+stepMs), model.MillisToTime(lastMs), step)
		if err != nil {
			return nil, OutcomeBypass, err
		}
		tailM = m
	}
	out := spliceMerge(headM, mid, tailM)
	if c.opts.Paranoid {
		cold, err := eval(ctx, start, end, step)
		if err != nil {
			return nil, OutcomeBypass, err
		}
		if !EqualMatrix(out, cold) {
			c.spliceFails.Add(1)
			return nil, OutcomeBypass, fmt.Errorf(
				"querycache: spliced result differs from cold evaluation for key %q [%d..%d] step %dms", key, startMs, lastMs, stepMs)
		}
	}
	c.splices.Add(1)
	c.storeRange(key, st, out, startMs, lastMs, stepMs)
	return out, OutcomeSplice, nil
}

// rangeColdFlight funnels a full cold miss through the per-key latch: one
// leader evaluates and fills; followers park until it finishes, then retry
// the lookup once — which normally hits what the leader stored. A retry
// that still misses (leader errored, entry too large to store, fresh
// invalidation) evaluates unlatched rather than queueing behind a new
// leader.
func (c *Cache) rangeColdFlight(ctx context.Context, key string, st headState, startMs, lastMs, stepMs, phase, padMs int64, start, end time.Time, step time.Duration, eval RangeEval, latch bool) (promql.Matrix, Outcome, error) {
	if !latch {
		return c.rangeMiss(ctx, key, st, startMs, lastMs, stepMs, padMs, start, end, step, eval)
	}
	leader, f := c.flights.begin(key)
	if leader {
		defer c.flights.end(key)
		return c.rangeMiss(ctx, key, st, startMs, lastMs, stepMs, padMs, start, end, step, eval)
	}
	select {
	case <-f.done:
	case <-ctx.Done():
		return nil, OutcomeBypass, ctx.Err()
	}
	c.coalesced.Add(1)
	return c.rangeLookup(ctx, key, startMs, lastMs, stepMs, phase, padMs, start, end, step, eval, false)
}

// rangeMiss evaluates cold and stores the result — including a negative
// entry when the evaluation tripped an engine guardrail, so dashboard
// refreshes of an over-budget panel stop re-paying the full limit's worth
// of evaluation for the same 422.
func (c *Cache) rangeMiss(ctx context.Context, key string, st headState, startMs, lastMs, stepMs, padMs int64, start, end time.Time, step time.Duration, eval RangeEval) (promql.Matrix, Outcome, error) {
	m, err := eval(ctx, start, end, step)
	if err != nil {
		if promql.IsLimitError(err) {
			c.storeNegative(key, st, err, startMs, lastMs, stepMs, padMs)
		}
		return nil, OutcomeMiss, err
	}
	c.misses.Add(1)
	c.storeRange(key, st, m, startMs, lastMs, stepMs)
	return m, OutcomeMiss, nil
}

// storeNegative caches a limit error under the same key (and staleness
// contract) a positive result would use.
func (c *Cache) storeNegative(key string, st headState, err error, startMs, lastMs, stepMs, padMs int64) {
	e := &entry{
		key: key, kind: kindNegative,
		fillMax: st.maxT, fillEpoch: st.epoch, fillGen: st.gen,
		negErr: err, startMs: startMs, lastMs: lastMs, stepMs: stepMs, padMs: padMs,
		cost: int64(len(key)+len(err.Error())) + entryOverhead,
	}
	evicted, _ := c.shardFor(key).put(e)
	c.evictions.Add(uint64(evicted))
	c.negStores.Add(1)
}

// storeRange inserts a deep clone of m, so later caller mutations of the
// returned matrix cannot corrupt the entry.
func (c *Cache) storeRange(key string, st headState, m promql.Matrix, startMs, lastMs, stepMs int64) {
	snap := cloneMatrix(m)
	e := &entry{
		key: key, kind: kindRange,
		fillMax: st.maxT, fillEpoch: st.epoch, fillGen: st.gen,
		matrix: snap, startMs: startMs, lastMs: lastMs, stepMs: stepMs,
		cost: matrixCost(snap) + int64(len(key)),
	}
	evicted, _ := c.shardFor(key).put(e)
	c.evictions.Add(uint64(evicted))
}

// InstantQuery serves an instant query through the cache. Only Vector and
// Scalar results are cached; the returned value never shares slices with
// the cache.
func (c *Cache) InstantQuery(ctx context.Context, query string, ts time.Time, eval InstantEval) (promql.Value, Outcome, error) {
	if c == nil || c.opts.Head == nil {
		v, err := eval(ctx)
		return v, OutcomeBypass, err
	}
	expr, err := promql.ParseExprCached(query)
	if err != nil {
		v, err := eval(ctx)
		return v, OutcomeBypass, err
	}
	var (
		tsMs  = model.TimeToMillis(ts)
		padMs = maxPadMs(expr, c.opts.Lookback)
		key   = fmt.Sprintf("i\x00%s\x00%d\x00%d", NormalizeQuery(query), tsMs, padMs)
	)
	return c.instantLookup(ctx, key, tsMs, padMs, eval, true)
}

// instantLookup probes the cache once; cold evaluations go through the
// singleflight latch when latch is set (follower retries pass false, same
// discipline as rangeLookup).
func (c *Cache) instantLookup(ctx context.Context, key string, tsMs, padMs int64, eval InstantEval, latch bool) (promql.Value, Outcome, error) {
	st := c.snapshot()
	sh := c.shardFor(key)
	if ent := sh.get(key); ent != nil {
		switch {
		case ent.fillGen != st.gen:
			sh.remove(key, ent)
			c.invalidations.Add(1)
		case st.epoch != ent.fillEpoch && tsMs >= c.settledBefore(ent.fillMax):
			// The result was mutable at fill and the head has advanced:
			// re-evaluate. A timestamp AT the fill watermark counts as
			// mutable too — appends can land at MaxTime itself (same-ts
			// second commit, parallel targets sharing a millisecond). Keep
			// the entry; a repeat of the same timestamp after yet more
			// appends would fail the same test anyway, and the fresh fill
			// below replaces it.
		case st.hasPruned && tsMs-padMs < st.pruned:
			sh.remove(key, ent)
			c.invalidations.Add(1)
		default:
			if ent.kind == kindNegative {
				c.negHits.Add(1)
				return nil, OutcomeHit, ent.negErr
			}
			c.hits.Add(1)
			return cloneValue(ent.value), OutcomeHit, nil
		}
	}
	if latch {
		leader, f := c.flights.begin(key)
		if !leader {
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, OutcomeBypass, ctx.Err()
			}
			c.coalesced.Add(1)
			return c.instantLookup(ctx, key, tsMs, padMs, eval, false)
		}
		defer c.flights.end(key)
	}
	v, err := eval(ctx)
	if err != nil {
		if promql.IsLimitError(err) {
			c.storeNegative(key, st, err, tsMs, tsMs, 0, padMs)
		}
		return nil, OutcomeMiss, err
	}
	c.misses.Add(1)
	switch v.(type) {
	case promql.Vector, promql.Scalar:
		snap := cloneValue(v)
		e := &entry{
			key: key, kind: kindInstant,
			fillMax: st.maxT, fillEpoch: st.epoch, fillGen: st.gen,
			value: snap, cost: valueCost(snap) + int64(len(key)),
		}
		evicted, _ := sh.put(e)
		c.evictions.Add(uint64(evicted))
	}
	return v, OutcomeMiss, nil
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

// --- matrix splicing ------------------------------------------------------

// extractRange returns the sub-matrix of m with sample times in [lo, hi].
// Series left empty are dropped. Sample slices are sub-slices of m (no
// copy); callers that hand the result out clone it first. Range-query
// sample timestamps are always the step evaluation times (every evaluator
// path stamps T with the step time), so selecting by T selects whole steps.
func extractRange(m promql.Matrix, lo, hi int64) promql.Matrix {
	out := make(promql.Matrix, 0, len(m))
	for _, s := range m {
		a := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].T >= lo })
		b := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].T > hi })
		if a == b {
			continue
		}
		out = append(out, model.Series{Labels: s.Labels, Samples: s.Samples[a:b]})
	}
	return out
}

// spliceMerge concatenates per-series samples across matrices covering
// disjoint, increasing time windows, producing exactly what one cold
// evaluation of the union window produces: series union, samples in time
// order, sorted by labels. Every part is itself sorted by labels with no
// label set repeated — evaluations return that, and cached entries are
// stored evaluations or earlier merges — so this is a k-way merge that
// compares label sets and never hashes them. The result shares no label or
// sample slice with any part (the middle part aliases the cache entry).
func spliceMerge(parts ...promql.Matrix) promql.Matrix {
	var (
		next = make([]int, len(parts)) // cursor into each part
		same = make([]int, 0, len(parts))
		size int // most series any one part holds: the result has at least that many
	)
	for _, part := range parts {
		size = max(size, len(part))
	}
	out := make(promql.Matrix, 0, size)
	for {
		// The parts whose next series carries the smallest label set.
		same = same[:0]
		var least labels.Labels
		for k, part := range parts {
			if next[k] == len(part) {
				continue
			}
			ls, c := part[next[k]].Labels, -1
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
			return out
		}
		n := 0
		for _, k := range same {
			n += len(parts[k][next[k]].Samples)
		}
		samples := make([]model.Sample, 0, n)
		for _, k := range same { // ascending k: time order
			samples = append(samples, parts[k][next[k]].Samples...)
			next[k]++
		}
		out = append(out, model.Series{Labels: least.Copy(), Samples: samples})
	}
}

// cloneMatrix deep-copies a matrix via promql's cloning discipline.
func cloneMatrix(m promql.Matrix) promql.Matrix { return m.Clone() }

func cloneValue(v promql.Value) promql.Value {
	switch tv := v.(type) {
	case promql.Vector:
		return tv.Clone()
	case promql.Matrix:
		return tv.Clone()
	default: // Scalar, String: value types, already copies
		return v
	}
}

func valueCost(v promql.Value) int64 {
	switch tv := v.(type) {
	case promql.Vector:
		return vectorCost(tv)
	case promql.Matrix:
		return matrixCost(tv)
	default:
		return entryOverhead
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

// EqualValue is EqualMatrix's instant-vector counterpart.
func EqualValue(a, b promql.Value) bool {
	switch av := a.(type) {
	case promql.Vector:
		bv, ok := b.(promql.Vector)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !av[i].Labels.Equal(bv[i].Labels) || av[i].T != bv[i].T ||
				math.Float64bits(av[i].V) != math.Float64bits(bv[i].V) {
				return false
			}
		}
		return true
	case promql.Scalar:
		bv, ok := b.(promql.Scalar)
		return ok && av.T == bv.T && math.Float64bits(av.V) == math.Float64bits(bv.V)
	case promql.Matrix:
		bv, ok := b.(promql.Matrix)
		return ok && EqualMatrix(av, bv)
	}
	return false
}
