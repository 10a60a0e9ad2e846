package promql

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/workpool"
)

// collidingEngine returns an engine whose grouping/matching hash sends
// every key to one bucket: results can then only be right if identity is
// decided by label equality.
func collidingEngine() *Engine {
	e := NewEngine()
	e.keyHash = func(keySpec, labels.Labels) uint64 { return 42 }
	return e
}

func assertSameUnderCollisions(t *testing.T, queries []string) {
	t.Helper()
	db := rangeTestStorage(t)
	honest, colliding := NewEngine(), collidingEngine()
	start, end, step := model.MillisToTime(0), model.MillisToTime(600_000), 15*time.Second
	for _, q := range queries {
		want, wantErr := honest.Range(db, q, start, end, step)
		got, gotErr := colliding.Range(db, q, start, end, step)
		if (wantErr != nil) != (gotErr != nil) {
			t.Errorf("%s: error mismatch under collisions: got %v, want %v", q, gotErr, wantErr)
			continue
		}
		if wantErr == nil && len(want) == 0 {
			t.Errorf("%s: empty result proves nothing", q)
		}
		if !matrixIdentical(got, want) {
			t.Errorf("%s under colliding hash:\n got  %v\n want %v", q, got, want)
		}
		iw, _ := honest.Instant(db, q, model.MillisToTime(450_000))
		ig, _ := colliding.Instant(db, q, model.MillisToTime(450_000))
		if !valueIdentical(ig, iw) {
			t.Errorf("%s instant under colliding hash:\n got  %v\n want %v", q, ig, iw)
		}
	}
}

// TestAggregateSurvivesHashCollision: two grouping label subsets whose
// hashes collide must stay two groups — for the running aggregations, the
// gathered ones and topk alike.
func TestAggregateSurvivesHashCollision(t *testing.T) {
	assertSameUnderCollisions(t, []string{
		`sum by (inst) (rq_counter_total)`,
		`count by (inst) ({__name__=~"rq_.*"})`,
		`avg without (inst) ({__name__=~"rq_counter_total|rq_gauge"})`,
		`max by (__name__) ({__name__=~"rq_.*"})`,
		`stddev by (inst) ({__name__=~"rq_.*"})`,
		`quantile by (inst) (0.5, {__name__=~"rq_.*"})`,
		`topk by (inst) (1, {__name__=~"rq_.*"})`,
		`sum by (inst) (rate({__name__=~"rq_.*_total"}[2m]))`,
	})
}

// TestVectorMatchingSurvivesHashCollision: two match keys whose hashes
// collide must not be joined (arithmetic, comparison, group_left) nor
// treated as one key by the set operators — and must not raise a spurious
// many-to-many error either.
func TestVectorMatchingSurvivesHashCollision(t *testing.T) {
	assertSameUnderCollisions(t, []string{
		`rq_counter_total / on (inst) rq_counter_total`,
		`rq_counter_total - ignoring (nosuch) rq_counter_total offset 1m`,
		`rq_counter_total > on (inst) rq_gauge`,
		`{__name__=~"rq_counter_total|rq_resetting_total"} * on (inst) group_left rq_gauge`,
		`rq_counter_total and on (inst) rq_gauge`,
		`rq_counter_total unless on (inst) rq_gauge`,
		`rq_gauge or on (inst) rq_counter_total`,
		`rq_counter_total and rq_gauge or rq_late`,
	})
	// The colliding engine must still raise the real cardinality errors.
	db := rangeTestStorage(t)
	ts := model.MillisToTime(450_000)
	for _, q := range []string{
		`rq_gauge + on (nosuch) rq_counter_total`,    // two one-side series, one key
		`rq_counter_total + on (nosuch) rq_late * 0`, // one-to-one, two many-side matches
		`rq_counter_total * on () group_left rq_counter_total`,
	} {
		if _, err := collidingEngine().Instant(db, q, ts); err == nil {
			t.Errorf("%s: expected a matching error", q)
		}
	}
}

// hintLog records every Select's hints.
type hintLog struct {
	inner Queryable
	hints []model.SelectHints
}

func (h *hintLog) SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	h.hints = append(h.hints, hints)
	return h.inner.SelectWithHints(hints, ms...)
}

// TestInstantSelectHintsUnchanged: Instant runs on the range evaluator but
// must tell storage exactly what the per-step evaluator told it — bounds,
// the shrinking sample budget and, on a bare selector's read alone, the
// lookback that lets storage answer with the newest sample; never
// Step/Func/Range — so cold tiers keep serving instants from raw samples.
func TestInstantSelectHintsUnchanged(t *testing.T) {
	lookback := model.DurationMillis(NewEngine().LookbackDelta)
	db := rangeTestStorage(t)
	eng := NewEngine()
	eng.MaxSamples = 100_000
	ts := model.MillisToTime(450_000)
	for _, q := range []string{
		`rq_gauge`,
		`rq_counter_total offset 1m`,
		`rate(rq_counter_total[2m])`,
		`sum by (inst) (rate(rq_counter_total[2m] offset 30s)) / on (inst) rq_gauge`,
		`quantile_over_time(0.9, rq_gauge[5m]) + scalar(rq_late) * avg_over_time(rq_flappy[3m])`,
		`rq_counter_total[90s]`,
	} {
		expr, err := ParseExpr(q)
		if err != nil {
			t.Fatal(err)
		}
		got, want := &hintLog{inner: db}, &hintLog{inner: db}
		if _, err := eng.InstantExpr(got, expr, ts); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if _, err := eng.instantNaive(want, expr, ts); err != nil {
			t.Fatalf("%s oracle: %v", q, err)
		}
		if !reflect.DeepEqual(got.hints, want.hints) {
			t.Errorf("%s: Instant sent\n  %+v\nthe per-step evaluator sent\n  %+v", q, got.hints, want.hints)
		}
		for _, h := range got.hints {
			if h.Step != 0 || h.Func != "" || h.Range != 0 {
				t.Errorf("%s: Instant leaked range hints: %+v", q, h)
			}
			// A bare selector reads [ts − lookback, ts]; none of these
			// range selectors is 5m+1ms long, so the window tells them apart.
			if bare := h.End-h.Start == lookback; h.Lookback != 0 && (!bare || h.Lookback != lookback) || h.Lookback == 0 && bare {
				t.Errorf("%s: Lookback %d on a read of [%d, %d]; want %d on bare selectors only", q, h.Lookback, h.Start, h.End, lookback)
			}
		}
	}
	// A one-step Range is still a range query: it keeps its hints.
	log := &hintLog{inner: db}
	if _, err := eng.Range(log, `rate(rq_counter_total[2m])`, ts, ts, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if h := log.hints[0]; h.Step != 15_000 || h.Func != "rate" || h.Range != 120_000 || h.Lookback != lookback {
		t.Errorf("one-step Range sent %+v, want Step/Func/Range/Lookback set", h)
	}
}

// staticQueryable serves pre-built series (all of them, whatever the
// matchers) as subslices, one allocation per Select, so allocation and
// cancellation tests see the evaluator alone.
type staticQueryable struct {
	series   []model.Series
	onSelect func()
}

func (s *staticQueryable) SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	mint, maxt := hints.Start, hints.End
	if s.onSelect != nil {
		s.onSelect()
	}
	out := make([]model.Series, 0, len(s.series))
	for _, sr := range s.series {
		lo := sort.Search(len(sr.Samples), func(i int) bool { return sr.Samples[i].T >= mint })
		hi := sort.Search(len(sr.Samples), func(i int) bool { return sr.Samples[i].T > maxt })
		if lo < hi {
			out = append(out, model.Series{Labels: sr.Labels, Samples: sr.Samples[lo:hi]})
		}
	}
	return out, nil
}

func staticCounters(series, perInstance int, spanMs, intervalMs int64) *staticQueryable {
	q := &staticQueryable{}
	for s := 0; s < series; s++ {
		sr := model.Series{Labels: labels.FromStrings(labels.MetricName, "x",
			"instance", fmt.Sprintf("n%04d", s/perInstance), "shard", fmt.Sprintf("%04d", s))}
		for ts := int64(0); ts <= spanMs; ts += intervalMs {
			sr.Samples = append(sr.Samples, model.Sample{T: ts, V: float64(ts) / 1000 * float64(s+1)})
		}
		q.series = append(q.series, sr)
	}
	return q
}

// flipCtx reports no error until it is tripped, then Canceled, and counts
// how often it is asked afterwards.
type flipCtx struct {
	context.Context
	tripped    atomic.Bool
	askedAfter atomic.Int64
}

func (c *flipCtx) Err() error {
	if c.tripped.Load() {
		c.askedAfter.Add(1)
		return context.Canceled
	}
	return nil
}

// TestEvaluationHonoursCancellationPerSeries: a context cancelled once
// evaluation is under way stops a 2000-series node at its next series, not
// at its end.
func TestEvaluationHonoursCancellationPerSeries(t *testing.T) {
	q := staticCounters(2000, 4, 600_000, 15_000)
	ctx := &flipCtx{Context: context.Background()}
	// Storage answers, then the caller gives up: prefetch has passed its own
	// check, so only the per-series checks inside the nodes can notice.
	q.onSelect = func() { ctx.tripped.Store(true) }
	eng := NewEngine()
	_, err := eng.RangeCtx(ctx, q, `sum by (instance) (rate(x[2m]))`,
		model.MillisToTime(0), model.MillisToTime(600_000), 15*time.Second)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ctx.askedAfter.Load(); n > int64(4*runtime.GOMAXPROCS(0)) {
		t.Errorf("evaluation consulted the cancelled context %d times; it must stop at the first", n)
	}
	ctx.tripped.Store(false)
	q.onSelect = nil
	if _, err := eng.RangeCtx(ctx, q, `sum by (instance) (rate(x[2m]))`,
		model.MillisToTime(0), model.MillisToTime(600_000), 15*time.Second); err != nil {
		t.Fatalf("uncancelled run: %v", err)
	}
}

// TestRangeAllocationsIndependentOfSteps: the fleet-panel shape allocates
// per series and per group, never per step.
func TestRangeAllocationsIndependentOfSteps(t *testing.T) {
	const series, groups = 64, 16
	q := staticCounters(series, series/groups, 3_600_000, 15_000)
	eng := NewEngine()
	expr, err := ParseExpr(`sum by (instance) (rate(x[2m]))`)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(steps int) float64 {
		end := model.MillisToTime(int64(steps-1) * 15_000)
		return testing.AllocsPerRun(20, func() {
			m, err := eng.RangeExpr(q, expr, model.MillisToTime(0), end, 15*time.Second)
			if err != nil || len(m) != groups {
				t.Fatalf("got %d series, err %v", len(m), err)
			}
		})
	}
	few, many := allocs(16), allocs(241)
	if many > few+2 {
		t.Errorf("allocations grow with the step count: %.0f at 16 steps, %.0f at 241", few, many)
	}
	if bound := float64(2*(series+groups) + 32); many > bound {
		t.Errorf("%.0f allocations for %d series in %d groups; want at most %.0f", many, series, groups, bound)
	}
}

// TestParallelColumnsMatchOracle drives nodes past parallelCells so series
// ranges really are split over the worker pool, and checks the result is
// still the oracle's. Run under -race it also proves the ranges are
// disjoint.
func TestParallelColumnsMatchOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const series = 640
	q := staticCounters(series, 4, 900_000, 15_000)
	if series*61 < parallelCells {
		t.Fatalf("fixture too small to cross parallelCells=%d", parallelCells)
	}
	eng := NewEngine()
	start, end, step := model.MillisToTime(0), model.MillisToTime(900_000), 15*time.Second
	for _, qs := range []string{
		`x`,
		`rate(x[2m])`,
		`sum by (instance) (rate(x[2m]))`,
		`abs(x) > 1000`,
		`rate(x[1m]) / on (instance, shard) x`,
	} {
		expr, err := ParseExpr(qs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.rangeExprNaive(q, expr, start, end, step)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.RangeExpr(q, expr, start, end, step)
		if err != nil {
			t.Fatal(err)
		}
		if !matrixIdentical(got, want) {
			t.Errorf("%s: parallel evaluation diverges from the oracle", qs)
		}
	}
}

// TestForColsFanOutBoundary pins where a node's per-column work leaves its
// caller, with GOMAXPROCS forced to 4: exactly where it did before the
// decision moved into workpool.DoRange — from two columns and parallelCells
// cells on, cell for cell — and that the ranges handed out are whole columns
// covering [0, n) once.
func TestForColsFanOutBoundary(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, steps := range []int{1, 3, 61, 64, 241, 1000, parallelCells / 2, parallelCells/2 + 1, parallelCells, 3 * parallelCells} {
		edge := (parallelCells + steps - 1) / steps // fewest columns reaching parallelCells cells
		for _, n := range []int{0, 1, 2, edge - 1, edge, edge + 1, 4 * edge} {
			ev := &evaluator{ctx: context.Background(), ts: make([]int64, steps)}
			hits := make([]atomic.Int32, n)
			var calls atomic.Int32
			before := workpool.Spawns()
			if err := ev.forCols(n, func(lo, hi int) {
				calls.Add(1)
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			}); err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("steps=%d n=%d: column %d visited %d times", steps, n, i, got)
				}
			}
			fanned := workpool.Spawns() > before
			if want := n >= 2 && n*steps >= parallelCells; fanned != want {
				t.Errorf("steps=%d n=%d (%d cells): fanned out = %v, want %v", steps, n, n*steps, fanned, want)
			}
			if got := int(calls.Load()); fanned && (got < 2 || got > 4) {
				t.Errorf("steps=%d n=%d: %d ranges at GOMAXPROCS 4", steps, n, got)
			}
		}
	}
}
