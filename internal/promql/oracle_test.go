package promql

// The per-step oracle. Until PR 20 this was the engine: one expression-tree
// walk per step, one live storage Select per selector per step, a vector of
// labelled samples per node per step. The series-major evaluator replaced it
// in production; it lives on here, verbatim but for the names, as the
// reference every equivalence test compares against. It shares only pure
// leaf helpers with production (binOp, aggValue, quantile, resultLabels,
// dropName, dropStaleMarkers and the rate-family window kernels); grouping,
// matching, the *_over_time folds and every function are its own.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
)

// oracleFunc is one entry of the oracle's function table.
type oracleFunc struct {
	Name string
	Call func(ev *stepEvaluator, args []Expr) (Value, error)
}

var oracleFuncs = map[string]func(ev *stepEvaluator, args []Expr) (Value, error){}

// rangeExprNaive is the original per-step reference implementation: a full
// InstantExpr evaluation — with one storage Select per selector — at every
// step. It is retained as the oracle for the equivalence tests and as the
// baseline the range benchmarks were recorded against; it enforces none of
// the engine guardrails.
// instantNaive is the original instant evaluation.
func (e *Engine) instantNaive(q Queryable, expr Expr, ts time.Time) (Value, error) {
	ev := &stepEvaluator{engine: e, q: q, ts: model.TimeToMillis(ts), ctx: context.Background()}
	return ev.eval(expr)
}

func (e *Engine) rangeExprNaive(q Queryable, expr Expr, start, end time.Time, step time.Duration) (Matrix, error) {
	if step <= 0 {
		return nil, fmt.Errorf("promql: step must be positive")
	}
	if expr.Type() == ValueMatrix {
		return nil, fmt.Errorf("promql: range queries require scalar or instant-vector expressions")
	}
	acc := map[uint64]*model.Series{}
	var order []uint64
	for ts := start; !ts.After(end); ts = ts.Add(step) {
		v, err := e.instantNaive(q, expr, ts)
		if err != nil {
			return nil, err
		}
		var vec Vector
		switch tv := v.(type) {
		case Vector:
			vec = tv
		case Scalar:
			vec = Vector{{Labels: labels.Labels{}, T: tv.T, V: tv.V}}
		default:
			return nil, fmt.Errorf("promql: unexpected %s result in range query", v.Type())
		}
		for _, s := range vec {
			h := s.Labels.Hash()
			sr, ok := acc[h]
			if !ok {
				sr = &model.Series{Labels: s.Labels}
				acc[h] = sr
				order = append(order, h)
			}
			sr.Samples = append(sr.Samples, model.Sample{T: s.T, V: s.V})
		}
	}
	out := make(Matrix, 0, len(order))
	for _, h := range order {
		out = append(out, *acc[h])
	}
	sort.Slice(out, func(i, j int) bool { return labels.Compare(out[i].Labels, out[j].Labels) < 0 })
	return out, nil
}

// stepEvaluator evaluates one expression tree at one timestamp, with one
// live storage Select per selector: the engine's original evaluator, kept
// verbatim as the oracle the series-major evaluator is proven against.
type stepEvaluator struct {
	engine *Engine
	q      Queryable
	ts     int64 // evaluation time in ms
	ctx    context.Context
	// loaded counts samples materialized by this evaluation's live
	// selectors, charged against Engine.MaxSamples. The range path budgets
	// during prefetch instead (its selectors never hit live storage).
	loaded int64
}

// selectSeries is the live selector storage access: one Select over
// [mint, maxt] with the engine's sample budget threaded through. A store
// that honours the budget (the TSDB head, the Thanos fan-in) enforces the
// remaining budget mid-pass, so an oversized instant query aborts during the
// copy instead of after materializing everything; what any store returns is
// charged after the fact, which still bounds what one evaluation can
// accumulate. A bare selector's read sends its lookback, which lets storage
// return just the newest sample of the window.
func (ev *stepEvaluator) selectSeries(mint, maxt, lookback int64, ms []*labels.Matcher) ([]model.Series, error) {
	budget := int64(ev.engine.MaxSamples)
	hints := model.SelectHints{Start: mint, End: maxt, Lookback: lookback}
	if budget > 0 {
		rem := budget - ev.loaded
		if rem <= 0 {
			// Exactly exhausted: 0 means "unlimited" to storage, so pass
			// 1 — an empty selector still succeeds, any sample trips.
			rem = 1
		}
		hints.SampleLimit = rem
	}
	series, err := ev.q.SelectWithHints(hints, ms...)
	if err != nil {
		if errors.Is(err, model.ErrSampleLimit) {
			return nil, ev.sampleLimitErr()
		}
		return nil, err
	}
	for _, s := range series {
		ev.loaded += int64(len(s.Samples))
	}
	if budget > 0 && ev.loaded > budget {
		return nil, ev.sampleLimitErr()
	}
	return series, nil
}

func (ev *stepEvaluator) sampleLimitErr() error {
	return &LimitError{Msg: fmt.Sprintf(
		"promql: query exceeds the sample budget of %d (narrow the selectors or the range)",
		ev.engine.MaxSamples)}
}

// ctxErr reports context cancellation; checked before storage accesses.
func (ev *stepEvaluator) ctxErr() error {
	if ev.ctx == nil {
		return nil
	}
	return ev.ctx.Err()
}

func (ev *stepEvaluator) eval(expr Expr) (Value, error) {
	switch e := expr.(type) {
	case *NumberLiteral:
		return Scalar{T: ev.ts, V: e.Val}, nil
	case *StringLiteral:
		return String{V: e.Val}, nil
	case *ParenExpr:
		return ev.eval(e.Expr)
	case *UnaryExpr:
		v, err := ev.eval(e.Expr)
		if err != nil {
			return nil, err
		}
		switch tv := v.(type) {
		case Scalar:
			return Scalar{T: tv.T, V: -tv.V}, nil
		case Vector:
			out := make(Vector, len(tv))
			for i, s := range tv {
				out[i] = Sample{Labels: dropName(s.Labels), T: s.T, V: -s.V}
			}
			return out, nil
		}
		return nil, fmt.Errorf("promql: unary minus undefined on %s", v.Type())
	case *VectorSelector:
		return ev.vectorSelector(e)
	case *MatrixSelector:
		return ev.matrixSelector(e)
	case *Call:
		return oracleFuncs[e.Func.Name](ev, e.Args)
	case *AggregateExpr:
		return ev.aggregate(e)
	case *BinaryExpr:
		return ev.binary(e)
	}
	return nil, fmt.Errorf("promql: unhandled expression %T", expr)
}

// vectorSelector returns, per matching series, the most recent sample
// within the lookback window ending at the (offset-adjusted) eval time.
func (ev *stepEvaluator) vectorSelector(vs *VectorSelector) (Vector, error) {
	if err := ev.ctxErr(); err != nil {
		return nil, err
	}
	ts := ev.ts - model.DurationMillis(vs.Offset)
	lookback := model.DurationMillis(ev.engine.LookbackDelta)
	series, err := ev.selectSeries(ts-lookback, ts, lookback, vs.Matchers)
	if err != nil {
		return nil, err
	}
	out := make(Vector, 0, len(series))
	for _, s := range series {
		if len(s.Samples) == 0 {
			continue
		}
		last := s.Samples[len(s.Samples)-1]
		if model.IsStaleNaN(last.V) {
			// The series disappeared from its source; staleness markers
			// end its visibility immediately.
			continue
		}
		out = append(out, Sample{Labels: s.Labels, T: ev.ts, V: last.V})
	}
	return out, nil
}

// matrixSelector returns all samples per series in the range window ending
// at the (offset-adjusted) eval time.
func (ev *stepEvaluator) matrixSelector(ms *MatrixSelector) (Matrix, error) {
	if err := ev.ctxErr(); err != nil {
		return nil, err
	}
	ts := ev.ts - model.DurationMillis(ms.VS.Offset)
	mint := ts - model.DurationMillis(ms.Range)
	series, err := ev.selectSeries(mint+1, ts, 0, ms.VS.Matchers) // window is (ts-range, ts]
	if err != nil {
		return nil, err
	}
	// Drop staleness markers: range functions must not see them as values.
	out := make(Matrix, 0, len(series))
	for _, s := range series {
		kept := dropStaleMarkers(s.Samples)
		if len(kept) == 0 {
			continue
		}
		out = append(out, model.Series{Labels: s.Labels, Samples: kept})
	}
	return out, nil
}

// aggregate implements sum/avg/min/max/count/stddev/stdvar/topk/bottomk/
// group/quantile with by/without grouping.
func (ev *stepEvaluator) aggregate(agg *AggregateExpr) (Value, error) {
	val, err := ev.eval(agg.Expr)
	if err != nil {
		return nil, err
	}
	vec, ok := val.(Vector)
	if !ok {
		return nil, fmt.Errorf("promql: aggregation over %s not allowed", val.Type())
	}
	var param float64
	if agg.Param != nil {
		pv, err := ev.eval(agg.Param)
		if err != nil {
			return nil, err
		}
		ps, ok := pv.(Scalar)
		if !ok {
			return nil, fmt.Errorf("promql: aggregation parameter must be scalar")
		}
		param = ps.V
	}

	type group struct {
		labels  labels.Labels
		values  []float64
		samples []Sample // retained for topk/bottomk only
	}
	// Pre-sort the "by" grouping once so HashFor never copies per sample.
	grouping := agg.Grouping
	if !agg.Without && !sort.StringsAreSorted(grouping) {
		grouping = append([]string(nil), grouping...)
		sort.Strings(grouping)
	}
	keepSamples := agg.Op == TOPK || agg.Op == BOTTOMK
	groups := map[uint64]*group{}
	var order []uint64
	for _, s := range vec {
		var h uint64
		if agg.Without {
			h = s.Labels.HashWithout(grouping...)
		} else {
			h = s.Labels.HashFor(grouping...)
		}
		g, ok := groups[h]
		if !ok {
			var gl labels.Labels
			if agg.Without {
				gl = s.Labels.WithoutNames(agg.Grouping...)
			} else {
				gl = s.Labels.KeepNames(agg.Grouping...)
			}
			g = &group{labels: gl, values: make([]float64, 0, 8)}
			groups[h] = g
			order = append(order, h)
		}
		g.values = append(g.values, s.V)
		if keepSamples {
			g.samples = append(g.samples, s)
		}
	}

	out := make(Vector, 0, len(groups))
	for _, h := range order {
		g := groups[h]
		switch agg.Op {
		case TOPK, BOTTOMK:
			k := int(param)
			if k <= 0 {
				continue
			}
			sorted := append([]Sample(nil), g.samples...)
			sort.Slice(sorted, func(i, j int) bool {
				if agg.Op == TOPK {
					return sorted[i].V > sorted[j].V
				}
				return sorted[i].V < sorted[j].V
			})
			if k > len(sorted) {
				k = len(sorted)
			}
			// topk keeps original series labels.
			out = append(out, sorted[:k]...)
			continue
		}
		v, err := aggValue(agg.Op, g.values, param)
		if err != nil {
			return nil, err
		}
		out = append(out, Sample{Labels: g.labels, T: ev.ts, V: v})
	}
	sort.Slice(out, func(i, j int) bool { return labels.Compare(out[i].Labels, out[j].Labels) < 0 })
	return out, nil
}

// binary evaluates a binary operator expression.
func (ev *stepEvaluator) binary(b *BinaryExpr) (Value, error) {
	lv, err := ev.eval(b.LHS)
	if err != nil {
		return nil, err
	}
	rv, err := ev.eval(b.RHS)
	if err != nil {
		return nil, err
	}
	switch l := lv.(type) {
	case Scalar:
		switch r := rv.(type) {
		case Scalar:
			v, keep := binOp(b.Op, l.V, r.V, b.ReturnBool)
			if !keep {
				v = 0 // scalar comparisons always use bool (checked at parse)
			}
			return Scalar{T: ev.ts, V: v}, nil
		case Vector:
			return ev.scalarVector(b, l.V, r, true)
		}
	case Vector:
		switch r := rv.(type) {
		case Scalar:
			return ev.scalarVector(b, r.V, l, false)
		case Vector:
			if isSetOp(b.Op) {
				return ev.setOp(b, l, r)
			}
			return ev.vectorVector(b, l, r)
		}
	}
	return nil, fmt.Errorf("promql: binary op %s undefined between %s and %s",
		itemName(b.Op), lv.Type(), rv.Type())
}

// scalarVector applies op between a scalar and each vector element.
// scalarLeft indicates the scalar was the left operand.
func (ev *stepEvaluator) scalarVector(b *BinaryExpr, sc float64, vec Vector, scalarLeft bool) (Vector, error) {
	out := make(Vector, 0, len(vec))
	for _, s := range vec {
		l, r := sc, s.V
		if !scalarLeft {
			l, r = s.V, sc
		}
		v, keep := binOp(b.Op, l, r, b.ReturnBool)
		if isComparison(b.Op) && !b.ReturnBool {
			if !keep {
				continue
			}
			v = s.V // filter semantics: keep original value
		}
		out = append(out, Sample{Labels: dropName(s.Labels), T: ev.ts, V: v})
	}
	return out, nil
}

// matchKey hashes the matching labels of a sample per the VectorMatching.
func oracleMatchKey(vm *VectorMatching, ls labels.Labels) uint64 {
	if vm == nil {
		return ls.HashWithout() // all labels except __name__
	}
	if vm.On {
		return ls.HashFor(vm.Labels...)
	}
	return ls.HashWithout(vm.Labels...)
}

// sortedMatching returns vm with its On-labels sorted so the per-sample
// HashFor calls never re-sort. The AST is shared (parse cache) and must not
// be mutated, so an unsorted spec is shallow-cloned once per evaluation.
func oracleSortedMatching(vm *VectorMatching) *VectorMatching {
	if vm == nil || !vm.On || sort.StringsAreSorted(vm.Labels) {
		return vm
	}
	ls := append([]string(nil), vm.Labels...)
	sort.Strings(ls)
	cp := *vm
	cp.Labels = ls
	return &cp
}

func (ev *stepEvaluator) vectorVector(b *BinaryExpr, lhs, rhs Vector) (Vector, error) {
	vm := oracleSortedMatching(b.Matching)
	// Identify the "one" side for many-to-one / one-to-many.
	oneSide, manySide := rhs, lhs
	swapped := false
	if vm != nil && vm.Card == CardOneToMany {
		oneSide, manySide = lhs, rhs
		swapped = true
	}
	oneByKey := make(map[uint64]Sample, len(oneSide))
	for _, s := range oneSide {
		k := oracleMatchKey(vm, s.Labels)
		if prev, dup := oneByKey[k]; dup {
			return nil, fmt.Errorf("promql: many-to-many matching: duplicate series %s and %s on 'one' side",
				prev.Labels, s.Labels)
		}
		oneByKey[k] = s
	}
	card := CardOneToOne
	if vm != nil {
		card = vm.Card
	}
	seen := map[uint64]bool{}
	out := make(Vector, 0, len(manySide))
	for _, ms := range manySide {
		k := oracleMatchKey(vm, ms.Labels)
		os, ok := oneByKey[k]
		if !ok {
			continue
		}
		if card == CardOneToOne {
			if seen[k] {
				return nil, fmt.Errorf("promql: one-to-one matching: multiple matches for %s; use group_left/group_right", ms.Labels)
			}
			seen[k] = true
		}
		l, r := ms.V, os.V
		if swapped != (vm != nil && vm.Card == CardOneToMany) {
			// unreachable; kept for clarity
		}
		if !swapped {
			// manySide is LHS
		} else {
			l, r = os.V, ms.V
		}
		v, keep := binOp(b.Op, l, r, b.ReturnBool)
		if isComparison(b.Op) && !b.ReturnBool {
			if !keep {
				continue
			}
			v = l
		}
		// Result labels: matching labels of the many side (minus name),
		// plus any group_left/right include labels from the one side.
		rl := resultLabels(vm, ms.Labels, os.Labels)
		out = append(out, Sample{Labels: rl, T: ev.ts, V: v})
	}
	sort.Slice(out, func(i, j int) bool { return labels.Compare(out[i].Labels, out[j].Labels) < 0 })
	return out, nil
}

// setOp implements and/or/unless.
func (ev *stepEvaluator) setOp(b *BinaryExpr, lhs, rhs Vector) (Vector, error) {
	vm := oracleSortedMatching(b.Matching)
	rkeys := make(map[uint64]bool, len(rhs))
	for _, s := range rhs {
		rkeys[oracleMatchKey(vm, s.Labels)] = true
	}
	var out Vector
	switch b.Op {
	case AND:
		for _, s := range lhs {
			if rkeys[oracleMatchKey(vm, s.Labels)] {
				out = append(out, s)
			}
		}
	case UNLESS:
		for _, s := range lhs {
			if !rkeys[oracleMatchKey(vm, s.Labels)] {
				out = append(out, s)
			}
		}
	case OR:
		lkeys := make(map[uint64]bool, len(lhs))
		for _, s := range lhs {
			lkeys[oracleMatchKey(vm, s.Labels)] = true
			out = append(out, s)
		}
		for _, s := range rhs {
			if !lkeys[oracleMatchKey(vm, s.Labels)] {
				out = append(out, s)
			}
		}
	}
	return out, nil
}

func init() {
	register := func(f *oracleFunc) { oracleFuncs[f.Name] = f.Call }
	// Range-vector functions.
	for _, def := range []struct {
		name string
		fn   rangeKernel
	}{
		{"rate", funcRate},
		{"irate", funcIrate},
		{"increase", funcIncrease},
		{"delta", funcDelta},
		{"idelta", funcIdelta},
		{"deriv", funcDeriv},
		{"changes", funcChanges},
		{"resets", funcResets},
		{"avg_over_time", oracleOverTime(func(vs []float64) float64 {
			s := 0.0
			for _, v := range vs {
				s += v
			}
			return s / float64(len(vs))
		})},
		{"sum_over_time", oracleOverTime(func(vs []float64) float64 {
			s := 0.0
			for _, v := range vs {
				s += v
			}
			return s
		})},
		{"min_over_time", oracleOverTime(func(vs []float64) float64 {
			m := math.Inf(1)
			for _, v := range vs {
				if v < m {
					m = v
				}
			}
			return m
		})},
		{"max_over_time", oracleOverTime(func(vs []float64) float64 {
			m := math.Inf(-1)
			for _, v := range vs {
				if v > m {
					m = v
				}
			}
			return m
		})},
		{"count_over_time", oracleOverTime(func(vs []float64) float64 { return float64(len(vs)) })},
		{"last_over_time", oracleOverTime(func(vs []float64) float64 { return vs[len(vs)-1] })},
		{"stddev_over_time", oracleOverTime(func(vs []float64) float64 {
			mean := 0.0
			for _, v := range vs {
				mean += v
			}
			mean /= float64(len(vs))
			acc := 0.0
			for _, v := range vs {
				acc += (v - mean) * (v - mean)
			}
			return math.Sqrt(acc / float64(len(vs)))
		})},
	} {
		fn := def.fn
		register(&oracleFunc{
			Name: def.name, Call: oracleRangeFunc(fn),
		})
	}

	register(&oracleFunc{
		Name: "quantile_over_time", Call: func(ev *stepEvaluator, args []Expr) (Value, error) {
			pv, err := ev.eval(args[0])
			if err != nil {
				return nil, err
			}
			phi := pv.(Scalar).V
			return oracleApplyRange(ev, args[1], func(samples []model.Sample, _ float64) (float64, bool) {
				vs := make([]float64, len(samples))
				for i, s := range samples {
					vs[i] = s.V
				}
				return quantile(phi, vs), true
			})
		},
	})

	// Instant-vector math functions.
	for _, def := range []struct {
		name string
		fn   func(float64) float64
	}{
		{"abs", math.Abs}, {"ceil", math.Ceil}, {"floor", math.Floor},
		{"exp", math.Exp}, {"ln", math.Log}, {"log2", math.Log2},
		{"log10", math.Log10}, {"sqrt", math.Sqrt},
	} {
		fn := def.fn
		register(&oracleFunc{
			Name: def.name, Call: oracleVectorMap(fn),
		})
	}

	register(&oracleFunc{
		Name: "round", Call: func(ev *stepEvaluator, args []Expr) (Value, error) {
			nearest := 1.0
			if len(args) == 2 {
				sv, err := ev.eval(args[1])
				if err != nil {
					return nil, err
				}
				nearest = sv.(Scalar).V
			}
			return oracleMapVector(ev, args[0], func(v float64) float64 {
				return math.Round(v/nearest) * nearest
			})
		},
	})
	register(&oracleFunc{
		Name: "clamp", Call: func(ev *stepEvaluator, args []Expr) (Value, error) {
			lo, err := oracleEvalScalar(ev, args[1])
			if err != nil {
				return nil, err
			}
			hi, err := oracleEvalScalar(ev, args[2])
			if err != nil {
				return nil, err
			}
			return oracleMapVector(ev, args[0], func(v float64) float64 {
				return math.Max(lo, math.Min(hi, v))
			})
		},
	})
	register(&oracleFunc{
		Name: "clamp_min", Call: func(ev *stepEvaluator, args []Expr) (Value, error) {
			lo, err := oracleEvalScalar(ev, args[1])
			if err != nil {
				return nil, err
			}
			return oracleMapVector(ev, args[0], func(v float64) float64 { return math.Max(lo, v) })
		},
	})
	register(&oracleFunc{
		Name: "clamp_max", Call: func(ev *stepEvaluator, args []Expr) (Value, error) {
			hi, err := oracleEvalScalar(ev, args[1])
			if err != nil {
				return nil, err
			}
			return oracleMapVector(ev, args[0], func(v float64) float64 { return math.Min(hi, v) })
		},
	})

	register(&oracleFunc{
		Name: "time", Call: func(ev *stepEvaluator, _ []Expr) (Value, error) {
			return Scalar{T: ev.ts, V: float64(ev.ts) / 1000}, nil
		},
	})
	register(&oracleFunc{
		Name: "timestamp", Call: func(ev *stepEvaluator, args []Expr) (Value, error) {
			v, err := ev.eval(args[0])
			if err != nil {
				return nil, err
			}
			vec := v.(Vector)
			out := make(Vector, len(vec))
			for i, s := range vec {
				out[i] = Sample{Labels: dropName(s.Labels), T: s.T, V: float64(s.T) / 1000}
			}
			return out, nil
		},
	})
	register(&oracleFunc{
		Name: "scalar", Call: func(ev *stepEvaluator, args []Expr) (Value, error) {
			v, err := ev.eval(args[0])
			if err != nil {
				return nil, err
			}
			vec := v.(Vector)
			if len(vec) != 1 {
				return Scalar{T: ev.ts, V: math.NaN()}, nil
			}
			return Scalar{T: ev.ts, V: vec[0].V}, nil
		},
	})
	register(&oracleFunc{
		Name: "vector", Call: func(ev *stepEvaluator, args []Expr) (Value, error) {
			s, err := oracleEvalScalar(ev, args[0])
			if err != nil {
				return nil, err
			}
			return Vector{{Labels: labels.Labels{}, T: ev.ts, V: s}}, nil
		},
	})
	register(&oracleFunc{
		Name: "absent", Call: func(ev *stepEvaluator, args []Expr) (Value, error) {
			v, err := ev.eval(args[0])
			if err != nil {
				return nil, err
			}
			if len(v.(Vector)) > 0 {
				return Vector{}, nil
			}
			return Vector{{Labels: labels.Labels{}, T: ev.ts, V: 1}}, nil
		},
	})
	register(&oracleFunc{
		Name: "sort", Call: oracleSortFunc(false),
	})
	register(&oracleFunc{
		Name: "sort_desc", Call: oracleSortFunc(true),
	})
	register(&oracleFunc{
		Name: "label_replace",
		Call: oracleLabelReplace,
	})
	register(&oracleFunc{
		Name: "label_join",
		Call: oracleLabelJoin,
	})
}

func oracleEvalScalar(ev *stepEvaluator, e Expr) (float64, error) {
	v, err := ev.eval(e)
	if err != nil {
		return 0, err
	}
	s, ok := v.(Scalar)
	if !ok {
		return 0, fmt.Errorf("promql: expected scalar, got %s", v.Type())
	}
	return s.V, nil
}

// rangeFunc adapts a per-series range computation into a Call.
func oracleRangeFunc(fn rangeKernel) func(*stepEvaluator, []Expr) (Value, error) {
	return func(ev *stepEvaluator, args []Expr) (Value, error) {
		return oracleApplyRange(ev, args[0], fn)
	}
}

func oracleApplyRange(ev *stepEvaluator, arg Expr, fn rangeKernel) (Value, error) {
	ms, ok := arg.(*MatrixSelector)
	if !ok {
		if p, isParen := arg.(*ParenExpr); isParen {
			return oracleApplyRange(ev, p.Expr, fn)
		}
		return nil, fmt.Errorf("promql: range function requires a range selector argument")
	}
	mv, err := ev.matrixSelector(ms)
	if err != nil {
		return nil, err
	}
	out := make(Vector, 0, len(mv))
	for _, s := range mv {
		v, ok := fn(s.Samples, 0)
		if !ok {
			continue
		}
		out = append(out, Sample{Labels: dropName(s.Labels), T: ev.ts, V: v})
	}
	return out, nil
}

// overTime wraps a simple value aggregation as a range function.
func oracleOverTime(agg func([]float64) float64) rangeKernel {
	return func(samples []model.Sample, _ float64) (float64, bool) {
		if len(samples) == 0 {
			return 0, false
		}
		vs := make([]float64, len(samples))
		for i, s := range samples {
			vs[i] = s.V
		}
		return agg(vs), true
	}
}

func oracleVectorMap(fn func(float64) float64) func(*stepEvaluator, []Expr) (Value, error) {
	return func(ev *stepEvaluator, args []Expr) (Value, error) {
		return oracleMapVector(ev, args[0], fn)
	}
}

func oracleMapVector(ev *stepEvaluator, arg Expr, fn func(float64) float64) (Value, error) {
	v, err := ev.eval(arg)
	if err != nil {
		return nil, err
	}
	vec, ok := v.(Vector)
	if !ok {
		return nil, fmt.Errorf("promql: expected instant vector, got %s", v.Type())
	}
	out := make(Vector, len(vec))
	for i, s := range vec {
		out[i] = Sample{Labels: dropName(s.Labels), T: s.T, V: fn(s.V)}
	}
	return out, nil
}

func oracleSortFunc(desc bool) func(*stepEvaluator, []Expr) (Value, error) {
	return func(ev *stepEvaluator, args []Expr) (Value, error) {
		v, err := ev.eval(args[0])
		if err != nil {
			return nil, err
		}
		vec := append(Vector(nil), v.(Vector)...)
		sort.SliceStable(vec, func(i, j int) bool {
			if desc {
				return vec[i].V > vec[j].V
			}
			return vec[i].V < vec[j].V
		})
		return vec, nil
	}
}

func oracleLabelReplace(ev *stepEvaluator, args []Expr) (Value, error) {
	v, err := ev.eval(args[0])
	if err != nil {
		return nil, err
	}
	dst := args[1].(*StringLiteral).Val
	repl := args[2].(*StringLiteral).Val
	src := args[3].(*StringLiteral).Val
	pattern := args[4].(*StringLiteral).Val
	re, err := regexp.Compile("^(?:" + pattern + ")$")
	if err != nil {
		return nil, fmt.Errorf("promql: label_replace: bad regexp %q: %w", pattern, err)
	}
	vec := v.(Vector)
	out := make(Vector, len(vec))
	for i, s := range vec {
		srcVal := s.Labels.Get(src)
		idx := re.FindStringSubmatchIndex(srcVal)
		ls := s.Labels
		if idx != nil {
			res := re.ExpandString(nil, repl, srcVal, idx)
			ls = labels.NewBuilder(s.Labels).Set(dst, string(res)).Labels()
		}
		out[i] = Sample{Labels: ls, T: s.T, V: s.V}
	}
	return out, nil
}

func oracleLabelJoin(ev *stepEvaluator, args []Expr) (Value, error) {
	v, err := ev.eval(args[0])
	if err != nil {
		return nil, err
	}
	dst := args[1].(*StringLiteral).Val
	sep := args[2].(*StringLiteral).Val
	var srcs []string
	for _, a := range args[3:] {
		srcs = append(srcs, a.(*StringLiteral).Val)
	}
	vec := v.(Vector)
	out := make(Vector, len(vec))
	for i, s := range vec {
		parts := make([]string, len(srcs))
		for j, src := range srcs {
			parts[j] = s.Labels.Get(src)
		}
		joined := ""
		for j, p := range parts {
			if j > 0 {
				joined += sep
			}
			joined += p
		}
		out[i] = Sample{
			Labels: labels.NewBuilder(s.Labels).Set(dst, joined).Labels(),
			T:      s.T, V: s.V,
		}
	}
	return out, nil
}
