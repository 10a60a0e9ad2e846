package promql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
)

// Value is a PromQL evaluation result: Scalar, Vector, Matrix or String.
type Value interface {
	Type() ValueType
}

// Scalar is a single float at an evaluation timestamp.
type Scalar struct {
	T int64
	V float64
}

func (Scalar) Type() ValueType { return ValueScalar }

// Sample is one labelled value of an instant vector.
type Sample struct {
	Labels labels.Labels
	T      int64
	V      float64
}

// Vector is the result of an instant-vector expression.
type Vector []Sample

func (Vector) Type() ValueType { return ValueVector }

// Clone returns a deep copy of the vector (fresh label slices); see
// Matrix.Clone for why retained results must be snapshotted.
func (v Vector) Clone() Vector {
	if v == nil {
		return nil
	}
	out := make(Vector, len(v))
	for i, s := range v {
		out[i] = Sample{Labels: s.Labels.Copy(), T: s.T, V: s.V}
	}
	return out
}

// Matrix is a set of series over time: the result of a range query or a
// range selector.
type Matrix []model.Series

func (Matrix) Type() ValueType { return ValueMatrix }

// Clone returns a deep copy of the matrix: fresh series, label and sample
// slices sharing nothing with the receiver. Result label slices otherwise
// alias storage-owned label sets (see the aliasing note on the range
// merge), so anything that retains a result beyond the request — the query
// result cache above all — must snapshot it with Clone.
func (m Matrix) Clone() Matrix {
	if m == nil {
		return nil
	}
	out := make(Matrix, len(m))
	for i, s := range m {
		out[i] = model.Series{
			Labels:  s.Labels.Copy(),
			Samples: append([]model.Sample(nil), s.Samples...),
		}
	}
	return out
}

// String is a string literal value.
type String struct {
	V string
}

func (String) Type() ValueType { return ValueString }

// Queryable is the one read method of every store the engine reads from —
// the head, the block store, the hot/cold querier and the replica
// scatter-gather. SelectWithHints returns the series matching ms with their
// samples in [hints.Start, hints.End], sorted by labels. The other hints are advice a store may use (resolution
// choice, a sample budget enforced mid-pass) or ignore: the evaluator
// charges every returned sample against its budget again, so a store that
// ignores hints.SampleLimit still cannot exceed it.
type Queryable interface {
	SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error)
}

// HintedQueryable is Queryable under its former name, kept only because the
// end-to-end benchmark (bench/) names it.
type HintedQueryable = Queryable

// SelectorQueryable is optionally implemented by a Queryable that plans its
// reads per AST selector rather than per matcher set: node is the
// *VectorSelector or *MatrixSelector the read serves, as found in the
// expression handed to the engine. Window bounds cannot tell `x[5m]` from
// `x` under a 5 m lookback; the node can. The rules read view uses it to
// decide, from a plan built over the same AST, which reads its own
// evaluation can answer. The evaluator prefers it over SelectWithHints.
type SelectorQueryable interface {
	SelectSelector(node Expr, hints model.SelectHints) ([]model.Series, error)
}

// Engine evaluates PromQL expressions against a Queryable.
type Engine struct {
	// LookbackDelta bounds how far an instant selector reaches back for the
	// most recent sample; Prometheus defaults to 5 minutes.
	LookbackDelta time.Duration
	// MaxSamples bounds how many samples a range query may load during
	// prefetch; 0 means unlimited. Violations surface as *LimitError.
	MaxSamples int
	// MaxSteps bounds how many steps a range query may evaluate; 0 falls
	// back to a hard safety ceiling (absMaxSteps) so even a hand-built
	// Engine cannot be driven into an unbounded per-step allocation.
	// Violations surface as *LimitError before any storage work.
	MaxSteps int

	// metrics holds the per-stage latency histograms; nil until
	// InstrumentTelemetry.
	metrics *stageMetrics

	// keyHash buckets grouping and matching keys; nil means keySpec.hash.
	// Tests inject a colliding hash to prove identity is decided by label
	// equality, not by the 64-bit hash.
	keyHash func(keySpec, labels.Labels) uint64
}

// absMaxSteps is the backstop applied when MaxSteps is unset: it bounds
// the columns a range query may allocate.
const absMaxSteps = 10_000_000

// DefaultMaxSteps matches Prometheus's 11 000-point limit per range query.
const DefaultMaxSteps = 11000

// NewEngine returns an Engine with Prometheus-like defaults.
func NewEngine() *Engine {
	return &Engine{
		LookbackDelta: 5 * time.Minute,
		MaxSamples:    50_000_000,
		MaxSteps:      DefaultMaxSteps,
	}
}

// LimitError reports a query that tripped an engine guardrail (step count
// or sample budget). promapi maps it to HTTP 422: the query is well-formed
// but unprocessable at this size.
type LimitError struct {
	Msg string
}

func (e *LimitError) Error() string { return e.Msg }

// IsLimitError reports whether err (or anything it wraps) is an engine
// guardrail violation.
func IsLimitError(err error) bool {
	var le *LimitError
	return errors.As(err, &le)
}

// Instant evaluates the expression at a single timestamp.
func (e *Engine) Instant(q Queryable, input string, ts time.Time) (Value, error) {
	return e.InstantCtx(context.Background(), q, input, ts)
}

// InstantCtx is Instant with cancellation/deadline support; the context is
// checked before each storage access and once per series in every node.
func (e *Engine) InstantCtx(ctx context.Context, q Queryable, input string, ts time.Time) (Value, error) {
	parseStart := time.Now()
	expr, err := ParseExprCached(input)
	e.noteStage(ctx, "parse", parseStart)
	if err != nil {
		return nil, err
	}
	evalStart := time.Now()
	v, err := e.InstantExprCtx(ctx, q, expr, ts)
	e.noteStage(ctx, "eval", evalStart)
	return v, err
}

// InstantExpr is Instant for a pre-parsed expression.
func (e *Engine) InstantExpr(q Queryable, expr Expr, ts time.Time) (Value, error) {
	return e.InstantExprCtx(context.Background(), q, expr, ts)
}

// InstantExprCtx is InstantExpr with cancellation/deadline support. An
// instant query is the one-step case of the range evaluator; it differs
// only in what it tells storage (bounds and budget, no step/function
// hints) and in the shape of its result.
func (e *Engine) InstantExprCtx(ctx context.Context, q Queryable, expr Expr, ts time.Time) (Value, error) {
	ev := newEvaluator(ctx, e, q, ts, 0, 1)
	ev.instant = true
	return ev.instantValue(expr)
}

// Range evaluates the expression at every step in [start, end] and returns
// a Matrix keyed by result labels.
func (e *Engine) Range(q Queryable, input string, start, end time.Time, step time.Duration) (Matrix, error) {
	return e.RangeCtx(context.Background(), q, input, start, end, step)
}

// RangeCtx is Range with cancellation/deadline support.
func (e *Engine) RangeCtx(ctx context.Context, q Queryable, input string, start, end time.Time, step time.Duration) (Matrix, error) {
	parseStart := time.Now()
	expr, err := ParseExprCached(input)
	e.noteStage(ctx, "parse", parseStart)
	if err != nil {
		return nil, err
	}
	return e.RangeExprCtx(ctx, q, expr, start, end, step)
}

// RangeExpr is Range for a pre-parsed expression.
func (e *Engine) RangeExpr(q Queryable, expr Expr, start, end time.Time, step time.Duration) (Matrix, error) {
	return e.RangeExprCtx(context.Background(), q, expr, start, end, step)
}

// RangeExprCtx evaluates the expression over [start, end] at step
// resolution: every selector in the tree is prefetched with a single
// storage Select spanning the whole (lookback/range-padded) window, then
// every node is evaluated once into columns (see evaluator). Output is
// identical to evaluating InstantExpr per step.
func (e *Engine) RangeExprCtx(ctx context.Context, q Queryable, expr Expr, start, end time.Time, step time.Duration) (Matrix, error) {
	if step <= 0 {
		return nil, fmt.Errorf("promql: step must be positive")
	}
	if expr.Type() == ValueMatrix {
		return nil, fmt.Errorf("promql: range queries require scalar or instant-vector expressions")
	}
	if start.After(end) {
		return Matrix{}, nil
	}
	steps64 := int64(end.Sub(start)/step) + 1
	maxSteps := int64(e.MaxSteps)
	if maxSteps <= 0 {
		maxSteps = absMaxSteps
	}
	if steps64 > maxSteps {
		return nil, &LimitError{Msg: fmt.Sprintf(
			"promql: query would evaluate %d steps, exceeding the limit of %d (shrink the range or increase the step)",
			steps64, maxSteps)}
	}
	ev := newEvaluator(ctx, e, q, start, step, int(steps64))
	stage := time.Now()
	if err := ev.prefetch(expr); err != nil {
		return nil, err
	}
	e.noteStage(ctx, "prefetch", stage)
	stage = time.Now()
	cols, err := ev.eval(expr)
	if err != nil {
		return nil, err
	}
	e.noteStage(ctx, "eval", stage)
	stage = time.Now()
	m := cols.matrix(ev.ts)
	e.noteStage(ctx, "merge", stage)
	return m, nil
}

// dropStaleMarkers filters staleness markers out of a sample run; the
// common marker-free case returns the input slice unchanged.
func dropStaleMarkers(samples []model.Sample) []model.Sample {
	hasStale := false
	for _, smp := range samples {
		if model.IsStaleNaN(smp.V) {
			hasStale = true
			break
		}
	}
	if !hasStale {
		return samples
	}
	filtered := make([]model.Sample, 0, len(samples))
	for _, smp := range samples {
		if !model.IsStaleNaN(smp.V) {
			filtered = append(filtered, smp)
		}
	}
	return filtered
}

// dropName removes the metric name, as PromQL does for derived values.
func dropName(ls labels.Labels) labels.Labels {
	if !ls.Has(labels.MetricName) {
		return ls
	}
	return ls.WithoutNames()
}

// keySpec names the label subset two series are grouped (by/without) or
// matched (on/ignoring) on.
type keySpec struct {
	on    bool     // true: exactly names; false: everything but names and __name__
	names []string // sorted when on, so HashFor never re-sorts
}

// groupingSpec is the key of an aggregation's by/without clause.
func groupingSpec(agg *AggregateExpr) keySpec {
	if agg.Without {
		return keySpec{names: agg.Grouping}
	}
	return keySpec{on: true, names: sortedNames(agg.Grouping)}
}

// matchingSpec is the key of a binary operator's on/ignoring clause; with
// no clause, series match on all labels except the metric name.
func matchingSpec(vm *VectorMatching) keySpec {
	if vm == nil {
		return keySpec{}
	}
	if vm.On {
		return keySpec{on: true, names: sortedNames(vm.Labels)}
	}
	return keySpec{names: vm.Labels}
}

// sortedNames returns names sorted. The AST is shared (parse cache) and
// must not be mutated, so an unsorted list is copied.
func sortedNames(names []string) []string {
	if sort.StringsAreSorted(names) {
		return names
	}
	names = append([]string(nil), names...)
	sort.Strings(names)
	return names
}

func (k keySpec) hash(ls labels.Labels) uint64 {
	if k.on {
		return ls.HashFor(k.names...)
	}
	return ls.HashWithout(k.names...)
}

func (k keySpec) excluded(name string) bool {
	if name == labels.MetricName {
		return true
	}
	for _, n := range k.names {
		if n == name {
			return true
		}
	}
	return false
}

// equal reports whether a and b carry the same key: the exact relation
// hash approximates.
func (k keySpec) equal(a, b labels.Labels) bool {
	if k.on {
		for _, n := range k.names {
			if a.Get(n) != b.Get(n) {
				return false
			}
		}
		return true
	}
	i, j := 0, 0
	for {
		for i < len(a) && k.excluded(a[i].Name) {
			i++
		}
		for j < len(b) && k.excluded(b[j].Name) {
			j++
		}
		if i == len(a) || j == len(b) {
			return i == len(a) && j == len(b)
		}
		if a[i] != b[j] {
			return false
		}
		i++
		j++
	}
}

// keyIndex assigns dense ids to distinct keys: bucketed by hash, decided by
// label equality, so two keys whose hashes collide stay two keys.
type keyIndex struct {
	spec  keySpec
	hash  func(keySpec, labels.Labels) uint64
	first map[uint64]int32 // hash -> an id in its bucket
	next  []int32          // id -> next id in the same bucket, -1 at the end
	rep   []labels.Labels  // id -> a label set carrying the key
	// one is set once the only possible key — on (), which every series
	// carries — has been interned; that spec needs no table at all.
	one bool
}

// newKeyIndex returns an index expecting about sizeHint distinct keys.
func (e *Engine) newKeyIndex(spec keySpec, sizeHint int) keyIndex {
	x := keyIndex{spec: spec, hash: e.keyHash}
	if x.hash == nil {
		x.hash = keySpec.hash
	}
	if !x.single() {
		x.first = make(map[uint64]int32, sizeHint)
		x.next = make([]int32, 0, sizeHint)
		x.rep = make([]labels.Labels, 0, sizeHint)
	}
	return x
}

func (x *keyIndex) single() bool { return x.spec.on && len(x.spec.names) == 0 }

func (x *keyIndex) find(h uint64, ls labels.Labels) int32 {
	id, ok := x.first[h]
	if !ok {
		return -1
	}
	for ; id >= 0; id = x.next[id] {
		if x.spec.equal(x.rep[id], ls) {
			return id
		}
	}
	return -1
}

// lookup returns the id of ls's key, or -1 if it was never interned.
func (x *keyIndex) lookup(ls labels.Labels) int32 {
	if x.single() {
		if x.one {
			return 0
		}
		return -1
	}
	return x.find(x.hash(x.spec, ls), ls)
}

// intern returns the id of ls's key, assigning the next one if it is new.
func (x *keyIndex) intern(ls labels.Labels) (id int32, isNew bool) {
	if x.single() {
		isNew, x.one = !x.one, true
		return 0, isNew
	}
	h := x.hash(x.spec, ls)
	if id := x.find(h, ls); id >= 0 {
		return id, false
	}
	id = int32(len(x.rep))
	x.rep = append(x.rep, ls)
	if head, ok := x.first[h]; ok {
		x.next = append(x.next, head)
	} else {
		x.next = append(x.next, -1)
	}
	x.first[h] = id
	return id, true
}

// aggValue folds one group's values at one step, in the order given.
func aggValue(op ItemType, vals []float64, param float64) (float64, error) {
	switch op {
	case SUM:
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s, nil
	case AVG:
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals)), nil
	case MIN:
		m := math.Inf(1)
		for _, v := range vals {
			if v < m || math.IsNaN(m) {
				m = v
			}
		}
		return m, nil
	case MAX:
		m := math.Inf(-1)
		for _, v := range vals {
			if v > m || math.IsNaN(m) {
				m = v
			}
		}
		return m, nil
	case COUNT:
		return float64(len(vals)), nil
	case GROUP:
		return 1, nil
	case STDDEV, STDVAR:
		mean := 0.0
		for _, v := range vals {
			mean += v
		}
		mean /= float64(len(vals))
		acc := 0.0
		for _, v := range vals {
			acc += (v - mean) * (v - mean)
		}
		acc /= float64(len(vals))
		if op == STDDEV {
			return math.Sqrt(acc), nil
		}
		return acc, nil
	case QUANTILE:
		return quantile(param, vals), nil
	}
	return 0, fmt.Errorf("promql: unsupported aggregation %s", itemName(op))
}

// quantile computes the φ-quantile with linear interpolation, matching
// Prometheus semantics.
func quantile(phi float64, vals []float64) float64 {
	if len(vals) == 0 || math.IsNaN(phi) {
		return math.NaN()
	}
	if phi < 0 {
		return math.Inf(-1)
	}
	if phi > 1 {
		return math.Inf(1)
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	rank := phi * (n - 1)
	lower := int(math.Floor(rank))
	upper := int(math.Ceil(rank))
	if lower == upper {
		return sorted[lower]
	}
	w := rank - float64(lower)
	return sorted[lower]*(1-w) + sorted[upper]*w
}

// resultLabels builds the output label set of one matched pair: the
// matching labels of the many side (minus name), plus any group_left/right
// include labels from the one side.
func resultLabels(vm *VectorMatching, many, one labels.Labels) labels.Labels {
	if vm == nil {
		return many.WithoutNames()
	}
	if vm.Card == CardOneToOne {
		if vm.On {
			return many.KeepNames(vm.Labels...)
		}
		return many.WithoutNames(vm.Labels...)
	}
	// group_left/right: keep all labels of the many side (minus name).
	if len(vm.Include) == 0 {
		return many.WithoutNames()
	}
	b := labels.NewBuilder(many.WithoutNames())
	for _, inc := range vm.Include {
		if v := one.Get(inc); v != "" {
			b.Set(inc, v)
		} else {
			b.Del(inc)
		}
	}
	return b.Labels()
}

// binOp applies the operator; for comparisons it returns (lhs, matched)
// unless returnBool, in which case it returns (0|1, true).
func binOp(op ItemType, l, r float64, returnBool bool) (float64, bool) {
	switch op {
	case ADD:
		return l + r, true
	case SUB:
		return l - r, true
	case MUL:
		return l * r, true
	case DIV:
		return l / r, true
	case MOD:
		return math.Mod(l, r), true
	case POW:
		return math.Pow(l, r), true
	}
	var match bool
	switch op {
	case EQL:
		match = l == r
	case NEQ:
		match = l != r
	case LTE:
		match = l <= r
	case LSS:
		match = l < r
	case GTE:
		match = l >= r
	case GTR:
		match = l > r
	}
	if returnBool {
		if match {
			return 1, true
		}
		return 0, true
	}
	return l, match
}
