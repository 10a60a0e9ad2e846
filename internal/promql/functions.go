package promql

import (
	"fmt"
	"math"
	"math/bits"
	"regexp"
	"sort"
	"strings"

	"repro/internal/labels"
	"repro/internal/model"
)

// Function describes a callable PromQL function. Call evaluates it once
// per query, over every step, into columns.
type Function struct {
	Name       string
	ArgTypes   []ValueType // fixed prefix; Variadic extends the last type
	MinArgs    int
	MaxArgs    int
	ReturnType ValueType
	Call       func(ev *evaluator, args []Expr) (*colSet, error)
}

// ArgType returns the expected type of argument i.
func (f *Function) ArgType(i int) ValueType {
	if i < len(f.ArgTypes) {
		return f.ArgTypes[i]
	}
	return f.ArgTypes[len(f.ArgTypes)-1]
}

// Functions is the registry of supported functions.
var Functions = map[string]*Function{}

func register(f *Function) { Functions[f.Name] = f }

func init() {
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
		{"avg_over_time", funcAvgOverTime},
		{"sum_over_time", funcSumOverTime},
		{"min_over_time", funcMinOverTime},
		{"max_over_time", funcMaxOverTime},
		{"count_over_time", funcCountOverTime},
		{"last_over_time", funcLastOverTime},
		{"stddev_over_time", funcStddevOverTime},
	} {
		fn := def.fn
		register(&Function{
			Name: def.name, ArgTypes: []ValueType{ValueMatrix},
			MinArgs: 1, MaxArgs: 1, ReturnType: ValueVector,
			Call: func(ev *evaluator, args []Expr) (*colSet, error) {
				return ev.rangeCols(args[0], nil, fn)
			},
		})
	}
	register(&Function{
		Name: "quantile_over_time", ArgTypes: []ValueType{ValueScalar, ValueMatrix},
		MinArgs: 2, MaxArgs: 2, ReturnType: ValueVector,
		Call: func(ev *evaluator, args []Expr) (*colSet, error) {
			phi, err := ev.evalScalar(args[0])
			if err != nil {
				return nil, err
			}
			return ev.rangeCols(args[1], phi, funcQuantileOverTime)
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
		register(&Function{
			Name: def.name, ArgTypes: []ValueType{ValueVector},
			MinArgs: 1, MaxArgs: 1, ReturnType: ValueVector,
			Call: func(ev *evaluator, args []Expr) (*colSet, error) {
				return ev.mapCols(args[0], func(_ int, v float64) float64 { return fn(v) })
			},
		})
	}

	register(&Function{
		Name: "round", ArgTypes: []ValueType{ValueVector, ValueScalar},
		MinArgs: 1, MaxArgs: 2, ReturnType: ValueVector,
		Call: func(ev *evaluator, args []Expr) (*colSet, error) {
			var to Expr = &NumberLiteral{Val: 1}
			if len(args) == 2 {
				to = args[1]
			}
			nearest, err := ev.evalScalar(to)
			if err != nil {
				return nil, err
			}
			return ev.mapCols(args[0], func(s int, v float64) float64 {
				return math.Round(v/nearest.vals[s]) * nearest.vals[s]
			})
		},
	})
	register(&Function{
		Name: "clamp", ArgTypes: []ValueType{ValueVector, ValueScalar, ValueScalar},
		MinArgs: 3, MaxArgs: 3, ReturnType: ValueVector,
		Call: func(ev *evaluator, args []Expr) (*colSet, error) {
			lo, err := ev.evalScalar(args[1])
			if err != nil {
				return nil, err
			}
			hi, err := ev.evalScalar(args[2])
			if err != nil {
				return nil, err
			}
			return ev.mapCols(args[0], func(s int, v float64) float64 {
				return math.Max(lo.vals[s], math.Min(hi.vals[s], v))
			})
		},
	})
	register(&Function{
		Name: "clamp_min", ArgTypes: []ValueType{ValueVector, ValueScalar},
		MinArgs: 2, MaxArgs: 2, ReturnType: ValueVector,
		Call: func(ev *evaluator, args []Expr) (*colSet, error) {
			lo, err := ev.evalScalar(args[1])
			if err != nil {
				return nil, err
			}
			return ev.mapCols(args[0], func(s int, v float64) float64 { return math.Max(lo.vals[s], v) })
		},
	})
	register(&Function{
		Name: "clamp_max", ArgTypes: []ValueType{ValueVector, ValueScalar},
		MinArgs: 2, MaxArgs: 2, ReturnType: ValueVector,
		Call: func(ev *evaluator, args []Expr) (*colSet, error) {
			hi, err := ev.evalScalar(args[1])
			if err != nil {
				return nil, err
			}
			return ev.mapCols(args[0], func(s int, v float64) float64 { return math.Min(hi.vals[s], v) })
		},
	})

	register(&Function{
		Name: "time", ArgTypes: []ValueType{}, MinArgs: 0, MaxArgs: 0,
		ReturnType: ValueScalar,
		Call: func(ev *evaluator, _ []Expr) (*colSet, error) {
			c := ev.newScalar()
			for s, ts := range ev.ts {
				c.vals[s] = float64(ts) / 1000
			}
			return c, nil
		},
	})
	register(&Function{
		Name: "timestamp", ArgTypes: []ValueType{ValueVector}, MinArgs: 1, MaxArgs: 1,
		ReturnType: ValueVector,
		Call: func(ev *evaluator, args []Expr) (*colSet, error) {
			// A selector stamps its samples with the evaluation time.
			return ev.mapCols(args[0], func(s int, _ float64) float64 { return float64(ev.ts[s]) / 1000 })
		},
	})
	register(&Function{
		Name: "scalar", ArgTypes: []ValueType{ValueVector}, MinArgs: 1, MaxArgs: 1,
		ReturnType: ValueScalar,
		Call:       funcScalar,
	})
	register(&Function{
		Name: "vector", ArgTypes: []ValueType{ValueScalar}, MinArgs: 1, MaxArgs: 1,
		ReturnType: ValueVector,
		Call: func(ev *evaluator, args []Expr) (*colSet, error) {
			c, err := ev.evalScalar(args[0])
			if err != nil {
				return nil, err
			}
			c.scalar = false // one always-present column under the empty label set
			return c, nil
		},
	})
	register(&Function{
		Name: "absent", ArgTypes: []ValueType{ValueVector}, MinArgs: 1, MaxArgs: 1,
		ReturnType: ValueVector,
		Call:       funcAbsent,
	})
	register(&Function{
		Name: "sort", ArgTypes: []ValueType{ValueVector}, MinArgs: 1, MaxArgs: 1,
		ReturnType: ValueVector,
		Call:       sortCols(false),
	})
	register(&Function{
		Name: "sort_desc", ArgTypes: []ValueType{ValueVector}, MinArgs: 1, MaxArgs: 1,
		ReturnType: ValueVector,
		Call:       sortCols(true),
	})
	register(&Function{
		Name:     "label_replace",
		ArgTypes: []ValueType{ValueVector, ValueString, ValueString, ValueString, ValueString},
		MinArgs:  5, MaxArgs: 5, ReturnType: ValueVector,
		Call: funcLabelReplace,
	})
	register(&Function{
		Name:     "label_join",
		ArgTypes: []ValueType{ValueVector, ValueString, ValueString, ValueString},
		MinArgs:  3, MaxArgs: 16, ReturnType: ValueVector,
		Call: funcLabelJoin,
	})
}

func (ev *evaluator) evalScalar(e Expr) (*colSet, error) {
	c, err := ev.eval(e)
	if err != nil {
		return nil, err
	}
	if !c.scalar {
		return nil, fmt.Errorf("promql: expected scalar, got %s", ValueVector)
	}
	return c, nil
}

func (ev *evaluator) evalVector(e Expr) (*colSet, error) {
	c, err := ev.eval(e)
	if err != nil {
		return nil, err
	}
	if c.scalar {
		return nil, fmt.Errorf("promql: expected instant vector, got %s", ValueScalar)
	}
	return c, nil
}

// funcScalar: the value of the single present series, NaN at steps where
// there is not exactly one.
func funcScalar(ev *evaluator, args []Expr) (*colSet, error) {
	in, err := ev.evalVector(args[0])
	if err != nil {
		return nil, err
	}
	out := ev.newScalar()
	seen := make([]int32, in.steps)
	for i, n := 0, in.n(); i < n; i++ {
		if err := ev.ctx.Err(); err != nil {
			return nil, err
		}
		vals := in.col(i)
		for w, word := range in.bits(i) {
			for ; word != 0; word &= word - 1 {
				s := w<<6 + bits.TrailingZeros64(word)
				seen[s]++
				out.vals[s] = vals[s]
			}
		}
	}
	for s, k := range seen {
		if k != 1 {
			out.vals[s] = math.NaN()
		}
	}
	return out, nil
}

// funcAbsent: one empty-labelled series valued 1 at the steps where the
// argument has no sample at all.
func funcAbsent(ev *evaluator, args []Expr) (*colSet, error) {
	in, err := ev.evalVector(args[0])
	if err != nil {
		return nil, err
	}
	out := ev.newScalar()
	out.scalar = false
	for s := range out.vals {
		out.vals[s] = 1
	}
	for i, n := 0, in.n(); i < n; i++ {
		if err := ev.ctx.Err(); err != nil {
			return nil, err
		}
		for w, word := range in.bits(i) {
			out.pres[w] &^= word
		}
	}
	return out, nil
}

// sortCols orders each step's vector by value. Order is all it changes, so
// the columns stay and the per-step order is recorded beside them.
func sortCols(desc bool) func(*evaluator, []Expr) (*colSet, error) {
	return func(ev *evaluator, args []Expr) (*colSet, error) {
		in, err := ev.evalVector(args[0])
		if err != nil {
			return nil, err
		}
		order := newStepOrder(in.steps)
		var cols []int32
		for s := 0; s < in.steps; s++ {
			if err := ev.ctx.Err(); err != nil {
				return nil, err
			}
			cols = in.gather(s, cols)
			sort.SliceStable(cols, func(i, j int) bool {
				vi, vj := in.vals[int(cols[i])*in.steps+s], in.vals[int(cols[j])*in.steps+s]
				if desc {
					return vi > vj
				}
				return vi < vj
			})
			order.push(cols)
		}
		in.order = order
		return in, nil
	}
}

// relabel rewrites every column's label set in place; values, presence and
// order are untouched.
func (ev *evaluator) relabel(arg Expr, fn func(labels.Labels) labels.Labels) (*colSet, error) {
	c, err := ev.evalVector(arg)
	if err != nil {
		return nil, err
	}
	for i := range c.lbls {
		if err := ev.ctx.Err(); err != nil {
			return nil, err
		}
		c.lbls[i] = fn(c.lbls[i])
	}
	return c, nil
}

func funcLabelReplace(ev *evaluator, args []Expr) (*colSet, error) {
	dst := args[1].(*StringLiteral).Val
	repl := args[2].(*StringLiteral).Val
	src := args[3].(*StringLiteral).Val
	pattern := args[4].(*StringLiteral).Val
	re, err := regexp.Compile("^(?:" + pattern + ")$")
	if err != nil {
		return nil, fmt.Errorf("promql: label_replace: bad regexp %q: %w", pattern, err)
	}
	return ev.relabel(args[0], func(ls labels.Labels) labels.Labels {
		srcVal := ls.Get(src)
		idx := re.FindStringSubmatchIndex(srcVal)
		if idx == nil {
			return ls
		}
		res := re.ExpandString(nil, repl, srcVal, idx)
		return labels.NewBuilder(ls).Set(dst, string(res)).Labels()
	})
}

func funcLabelJoin(ev *evaluator, args []Expr) (*colSet, error) {
	dst := args[1].(*StringLiteral).Val
	sep := args[2].(*StringLiteral).Val
	srcs := make([]string, 0, len(args)-3)
	for _, a := range args[3:] {
		srcs = append(srcs, a.(*StringLiteral).Val)
	}
	parts := make([]string, len(srcs))
	return ev.relabel(args[0], func(ls labels.Labels) labels.Labels {
		for j, src := range srcs {
			parts[j] = ls.Get(src)
		}
		return labels.NewBuilder(ls).Set(dst, strings.Join(parts, sep)).Labels()
	})
}

// counterDelta returns the reset-adjusted increase over the samples.
func counterDelta(samples []model.Sample) float64 {
	d := samples[len(samples)-1].V - samples[0].V
	prev := samples[0].V
	for _, s := range samples[1:] {
		if s.V < prev {
			d += prev // counter reset: add the value lost at the reset
		}
		prev = s.V
	}
	return d
}

// funcRate computes the per-second reset-adjusted rate over the sample
// window. Unlike Prometheus it does not extrapolate to the window
// boundaries; the denominator is the observed sample span. This keeps
// rate × span == increase exactly, which the energy-conservation tests
// rely on.
func funcRate(samples []model.Sample, _ float64) (float64, bool) {
	if len(samples) < 2 {
		return 0, false
	}
	span := float64(samples[len(samples)-1].T-samples[0].T) / 1000
	if span <= 0 {
		return 0, false
	}
	return counterDelta(samples) / span, true
}

func funcIncrease(samples []model.Sample, _ float64) (float64, bool) {
	if len(samples) < 2 {
		return 0, false
	}
	return counterDelta(samples), true
}

func funcIrate(samples []model.Sample, _ float64) (float64, bool) {
	if len(samples) < 2 {
		return 0, false
	}
	a, b := samples[len(samples)-2], samples[len(samples)-1]
	span := float64(b.T-a.T) / 1000
	if span <= 0 {
		return 0, false
	}
	d := b.V - a.V
	if d < 0 { // reset between the two points
		d = b.V
	}
	return d / span, true
}

func funcDelta(samples []model.Sample, _ float64) (float64, bool) {
	if len(samples) < 2 {
		return 0, false
	}
	return samples[len(samples)-1].V - samples[0].V, true
}

func funcIdelta(samples []model.Sample, _ float64) (float64, bool) {
	if len(samples) < 2 {
		return 0, false
	}
	return samples[len(samples)-1].V - samples[len(samples)-2].V, true
}

// funcDeriv computes the least-squares slope per second.
func funcDeriv(samples []model.Sample, _ float64) (float64, bool) {
	if len(samples) < 2 {
		return 0, false
	}
	// Center timestamps to reduce float error.
	t0 := samples[0].T
	var n, sumX, sumY, sumXY, sumX2 float64
	for _, s := range samples {
		x := float64(s.T-t0) / 1000
		n++
		sumX += x
		sumY += s.V
		sumXY += x * s.V
		sumX2 += x * x
	}
	det := n*sumX2 - sumX*sumX
	if det == 0 {
		return 0, false
	}
	return (n*sumXY - sumX*sumY) / det, true
}

func funcChanges(samples []model.Sample, _ float64) (float64, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	changes := 0
	for i := 1; i < len(samples); i++ {
		if samples[i].V != samples[i-1].V &&
			!(math.IsNaN(samples[i].V) && math.IsNaN(samples[i-1].V)) {
			changes++
		}
	}
	return float64(changes), true
}

func funcResets(samples []model.Sample, _ float64) (float64, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	resets := 0
	for i := 1; i < len(samples); i++ {
		if samples[i].V < samples[i-1].V {
			resets++
		}
	}
	return float64(resets), true
}

// The *_over_time kernels fold the window's values straight from the
// samples, in sample order.

func funcSumOverTime(samples []model.Sample, _ float64) (float64, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	s := 0.0
	for i := range samples {
		s += samples[i].V
	}
	return s, true
}

func funcAvgOverTime(samples []model.Sample, _ float64) (float64, bool) {
	s, ok := funcSumOverTime(samples, 0)
	return s / float64(len(samples)), ok
}

func funcMinOverTime(samples []model.Sample, _ float64) (float64, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	m := math.Inf(1)
	for i := range samples {
		if v := samples[i].V; v < m {
			m = v
		}
	}
	return m, true
}

func funcMaxOverTime(samples []model.Sample, _ float64) (float64, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	m := math.Inf(-1)
	for i := range samples {
		if v := samples[i].V; v > m {
			m = v
		}
	}
	return m, true
}

func funcCountOverTime(samples []model.Sample, _ float64) (float64, bool) {
	return float64(len(samples)), len(samples) > 0
}

func funcLastOverTime(samples []model.Sample, _ float64) (float64, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	return samples[len(samples)-1].V, true
}

func funcStddevOverTime(samples []model.Sample, _ float64) (float64, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	mean := 0.0
	for i := range samples {
		mean += samples[i].V
	}
	mean /= float64(len(samples))
	acc := 0.0
	for i := range samples {
		d := samples[i].V - mean
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(samples))), true
}

func funcQuantileOverTime(samples []model.Sample, phi float64) (float64, bool) {
	vs := make([]float64, len(samples))
	for i := range samples {
		vs[i] = samples[i].V
	}
	return quantile(phi, vs), true
}
