package promql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb"
)

// countingQueryable wraps a Queryable and counts Select calls — the proof
// that the windowed range evaluator performs exactly one storage pass per
// selector per query.
type countingQueryable struct {
	inner   Queryable
	selects atomic.Int64
}

func (c *countingQueryable) SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	c.selects.Add(1)
	return c.inner.SelectWithHints(hints, ms...)
}

// ignoresBudget reads with every hint but SampleLimit, the shape of a store
// that does not enforce the budget during its read: the budget then rests on
// the evaluator's own charge of what comes back.
type ignoresBudget struct{ inner Queryable }

func (q ignoresBudget) SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	hints.SampleLimit = 0
	return q.inner.SelectWithHints(hints, ms...)
}

// rangeTestStorage builds a head with gauge/counter shapes, a series with
// staleness markers mid-stream, and a series that starts late — the cases
// the window layer must interpret identically to the per-step path.
func rangeTestStorage(t testing.TB) *tsdb.DB {
	t.Helper()
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	app := func(ls labels.Labels, ts int64, v float64) {
		if err := db.Append(ls, ts, v); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	for i := int64(0); i <= 40; i++ {
		ts := i * 15000
		app(labels.FromStrings(labels.MetricName, "rq_counter_total", "inst", "a"), ts, float64(i)*150)
		app(labels.FromStrings(labels.MetricName, "rq_counter_total", "inst", "b"), ts, float64(i)*300)
		app(labels.FromStrings(labels.MetricName, "rq_gauge", "inst", "a"), ts, float64(i%7))
		// Counter with a reset at i=25.
		v := float64(i) * 10
		if i >= 25 {
			v = float64(i-25) * 10
		}
		app(labels.FromStrings(labels.MetricName, "rq_resetting_total", "inst", "a"), ts, v)
	}
	// Series that goes stale at i=20 and returns at i=30.
	stale := labels.FromStrings(labels.MetricName, "rq_flappy", "inst", "c")
	for i := int64(0); i <= 40; i++ {
		switch {
		case i < 20:
			app(stale, i*15000, float64(i))
		case i == 20:
			app(stale, i*15000, model.StaleNaN())
		case i >= 30:
			app(stale, i*15000, float64(i))
		}
	}
	// Series that only starts at i=30 (tests lookback edges).
	late := labels.FromStrings(labels.MetricName, "rq_late", "inst", "d")
	for i := int64(30); i <= 40; i++ {
		app(late, i*15000, float64(i))
	}
	return db
}

// TestRangeWindowedMatchesNaive is the equivalence property test: the
// windowed one-Select evaluator must return byte-identical Matrix results
// to the per-step reference across selectors, range functions,
// aggregations, binaries, offsets and staleness handling — at several
// range/step geometries, including steps misaligned with the scrape grid.
func TestRangeWindowedMatchesNaive(t *testing.T) {
	db := rangeTestStorage(t)
	queries := []string{
		`rq_counter_total`,
		`rq_gauge{inst="a"}`,
		`rq_flappy`,
		`rq_late`,
		`rate(rq_counter_total[2m])`,
		`increase(rq_resetting_total[5m])`,
		`irate(rq_counter_total[3m])`,
		`delta(rq_gauge[4m])`,
		`avg_over_time(rq_gauge[3m])`,
		`max_over_time(rq_flappy[5m])`,
		`count_over_time(rq_flappy[10m])`,
		`quantile_over_time(0.9, rq_gauge[5m])`,
		`rq_counter_total offset 2m`,
		`rate(rq_counter_total[2m] offset 1m)`,
		`sum(rate(rq_counter_total[2m]))`,
		`sum by (inst) (rate(rq_counter_total[2m]))`,
		`avg without (inst) (rq_counter_total)`,
		`topk(1, rq_counter_total)`,
		`quantile(0.5, rq_counter_total)`,
		`rq_counter_total / on (inst) group_left rq_gauge`,
		`rq_counter_total{inst="a"} + rq_counter_total{inst="b"} * 2`,
		`rq_counter_total > 3000`,
		`rq_counter_total > bool 3000`,
		`rq_gauge and rq_counter_total`,
		`rq_gauge or rq_late`,
		`rq_gauge unless rq_flappy`,
		`abs(rq_gauge - 3)`,
		`clamp_max(rq_counter_total, 5000)`,
		`label_replace(rq_gauge, "zone", "z-$1", "inst", "(.*)")`,
		`-rq_gauge`,
		`vector(42)`,
		`3 * 7`,
		`scalar(rq_gauge{inst="a"}) * rq_counter_total`,
		`absent(rq_nonexistent)`,
		`timestamp(rq_gauge)`,
	}
	geometries := []struct {
		startS, endS, stepS int64
	}{
		{0, 600, 15},   // aligned with the scrape grid
		{0, 600, 47},   // misaligned step
		{100, 550, 30}, // misaligned start
		{590, 610, 7},  // past the end of data (lookback tail)
		{300, 300, 15}, // single step
	}
	eng := NewEngine()
	for _, q := range queries {
		expr, err := ParseExpr(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		for _, g := range geometries {
			start := model.MillisToTime(g.startS * 1000)
			end := model.MillisToTime(g.endS * 1000)
			step := time.Duration(g.stepS) * time.Second
			want, err := eng.rangeExprNaive(db, expr, start, end, step)
			if err != nil {
				t.Fatalf("naive %q %+v: %v", q, g, err)
			}
			got, err := eng.RangeExpr(db, expr, start, end, step)
			if err != nil {
				t.Fatalf("windowed %q %+v: %v", q, g, err)
			}
			if !matrixIdentical(got, want) {
				t.Errorf("%q %+v:\n got  %v\n want %v", q, g, got, want)
			}
		}
	}
}

// matrixIdentical is bit-exact Matrix equality: reflect.DeepEqual would
// reject NaN == NaN, but byte-identical results must compare float values
// by their bit patterns.
func matrixIdentical(a, b Matrix) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Labels.Equal(b[i].Labels) || len(a[i].Samples) != len(b[i].Samples) {
			return false
		}
		for j := range a[i].Samples {
			sa, sb := a[i].Samples[j], b[i].Samples[j]
			if sa.T != sb.T || math.Float64bits(sa.V) != math.Float64bits(sb.V) {
				return false
			}
		}
	}
	return true
}

// TestRangeSingleSelectPerSelector asserts the tentpole property: a range
// query with N selectors issues exactly N storage Selects no matter how
// many steps it evaluates.
func TestRangeSingleSelectPerSelector(t *testing.T) {
	db := rangeTestStorage(t)
	eng := NewEngine()
	cases := []struct {
		q         string
		selectors int64
	}{
		{`rq_gauge`, 1},
		{`rate(rq_counter_total[2m])`, 1},
		{`sum by (inst) (rate(rq_counter_total[2m])) / rq_gauge`, 2},
		{`rq_counter_total + rq_counter_total offset 1m + rate(rq_counter_total[5m])`, 3},
	}
	for _, tc := range cases {
		cq := &countingQueryable{inner: db}
		expr, err := ParseExpr(tc.q)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.q, err)
		}
		// 41 steps: the naive path would issue 41× as many Selects.
		_, err = eng.RangeExpr(cq, expr, model.MillisToTime(0), model.MillisToTime(600_000), 15*time.Second)
		if err != nil {
			t.Fatalf("range %q: %v", tc.q, err)
		}
		if got := cq.selects.Load(); got != tc.selectors {
			t.Errorf("%q: %d Selects, want exactly %d", tc.q, got, tc.selectors)
		}
	}
}

// TestRangeMaxSteps verifies the step-count guardrail fails fast, before
// any storage access.
func TestRangeMaxSteps(t *testing.T) {
	db := rangeTestStorage(t)
	cq := &countingQueryable{inner: db}
	eng := NewEngine()
	start := time.Unix(0, 0)
	end := time.Unix(2_000_000_000, 0)
	_, err := eng.Range(cq, `rq_gauge`, start, end, 5*time.Second)
	if err == nil {
		t.Fatal("expected step-limit error")
	}
	if !IsLimitError(err) {
		t.Fatalf("expected LimitError, got %T: %v", err, err)
	}
	if n := cq.selects.Load(); n != 0 {
		t.Errorf("guardrail ran %d Selects; must fail before storage", n)
	}
}

// TestRangeSampleBudget verifies the prefetch sample budget, both through a
// store that enforces it mid-pass (tsdb.DB) and through one that ignores it.
func TestRangeSampleBudget(t *testing.T) {
	db := rangeTestStorage(t)
	eng := NewEngine()
	eng.MaxSamples = 10 // the storage holds far more matching samples
	for name, q := range map[string]Queryable{
		"hinted": db,
		"plain":  ignoresBudget{db},
	} {
		_, err := eng.Range(q, `rq_counter_total`, model.MillisToTime(0), model.MillisToTime(600_000), 15*time.Second)
		if err == nil || !IsLimitError(err) {
			t.Errorf("%s: expected LimitError, got %v", name, err)
		}
	}
}

// TestRangeContextCancel verifies RangeCtx aborts on an expired deadline.
func TestRangeContextCancel(t *testing.T) {
	db := rangeTestStorage(t)
	eng := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.RangeCtx(ctx, db, `rate(rq_counter_total[2m])`, model.MillisToTime(0), model.MillisToTime(600_000), 15*time.Second)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}

// TestParseExprCached verifies cache hits return the same AST and the LRU
// stays bounded.
func TestParseExprCached(t *testing.T) {
	e1, err := ParseExprCached(`rate(cache_test_metric[5m])`)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := ParseExprCached(`rate(cache_test_metric[5m])`)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("cache miss on identical query text")
	}
	if _, err := ParseExprCached(`this is not promql`); err == nil {
		t.Error("expected parse error")
	}
	// Bound: insert > parseCacheSize distinct queries; the cache must not
	// exceed its capacity.
	for i := 0; i < parseCacheSize+100; i++ {
		if _, err := ParseExprCached(fmt.Sprintf(`cache_fill_metric{i="%d"}`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := sharedParseCache.len(); n > parseCacheSize {
		t.Errorf("cache grew to %d entries, cap is %d", n, parseCacheSize)
	}
}

// TestParseNormalized checks that formatting variants share one canonical
// text, that it is Expr.String() of the cached expression, that a repeat
// returns the text kept in the entry, and that concurrent first requests
// agree (run under -race in CI).
func TestParseNormalized(t *testing.T) {
	const q = `sum   by (i) (rate( normalized_test_metric[5m] ))`
	var wg sync.WaitGroup
	texts := make([]string, 8)
	for g := range texts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, text, err := ParseNormalized(q)
			if err != nil {
				t.Error(err)
			}
			texts[g] = text
		}()
	}
	wg.Wait()
	expr, text, err := ParseNormalized(q)
	if err != nil {
		t.Fatal(err)
	}
	if cached, _ := ParseExprCached(q); cached != expr {
		t.Error("ParseNormalized and ParseExprCached returned different expressions")
	}
	if text != expr.String() {
		t.Errorf("text %q, want Expr.String() %q", text, expr.String())
	}
	for _, got := range texts {
		if got != text {
			t.Errorf("concurrent first request printed %q, want %q", got, text)
		}
	}
	if _, variant, _ := ParseNormalized(`sum by(i)(rate(normalized_test_metric[5m]))`); variant != text {
		t.Errorf("variant normalized to %q, want %q", variant, text)
	}
	if _, _, err := ParseNormalized(`this is not promql`); err == nil {
		t.Error("expected parse error")
	}
}
