package querycache

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
)

// limitEval returns a RangeEval that always fails with a LimitError and
// counts how often it was actually invoked.
func limitEval(calls *atomic.Int64) RangeEval {
	return func(ctx context.Context, s, e time.Time, st time.Duration) (promql.Matrix, error) {
		calls.Add(1)
		return nil, &promql.LimitError{Msg: "query processing would load too many samples"}
	}
}

// TestNegativeRangeCached: a range query that trips an engine guardrail is
// cached as a negative entry — the repeat replays the same 422 without
// re-paying the evaluation that produced it.
func TestNegativeRangeCached(t *testing.T) {
	env := newEnv(t, Options{})
	env.fill(40)
	start, end := env.now-20*stepMs, env.now
	var calls atomic.Int64

	_, out, err := env.cache.RangeQuery(context.Background(), "sum(m0)",
		model.MillisToTime(start), model.MillisToTime(end), stepMs*time.Millisecond, limitEval(&calls), nil)
	if out != OutcomeMiss || !promql.IsLimitError(err) {
		t.Fatalf("first lookup: outcome %s, err %v; want miss + LimitError", out, err)
	}
	firstErr := err

	_, out, err = env.cache.RangeQuery(context.Background(), "sum(m0)",
		model.MillisToTime(start), model.MillisToTime(end), stepMs*time.Millisecond, limitEval(&calls), nil)
	if out != OutcomeHit || !errors.Is(err, firstErr) {
		t.Fatalf("repeat lookup: outcome %s, err %v; want hit replaying the cached error", out, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("eval ran %d times, want 1 (the repeat must not re-evaluate)", calls.Load())
	}
	if st := env.cache.Stats(); st.NegStores != 1 || st.NegHits != 1 {
		t.Fatalf("stats = %+v, want 1 negStore / 1 negHit", st)
	}
}

// TestNegativeRangeWindowMismatch: a different window under the same key
// must NOT replay the cached error — a narrower request may well fit the
// budget.
func TestNegativeRangeWindowMismatch(t *testing.T) {
	env := newEnv(t, Options{})
	env.fill(40)
	start, end := env.now-20*stepMs, env.now
	var calls atomic.Int64

	if _, _, err := env.cache.RangeQuery(context.Background(), "sum(m0)",
		model.MillisToTime(start), model.MillisToTime(end), stepMs*time.Millisecond, limitEval(&calls), nil); !promql.IsLimitError(err) {
		t.Fatalf("fill err = %v, want LimitError", err)
	}
	// Same query, step and phase — same key — but a narrower window that
	// succeeds. It must evaluate, not inherit the 422.
	m, out := env.rangeQuery("sum(m0)", start+10*stepMs, end)
	if out != OutcomeMiss || len(m) == 0 {
		t.Fatalf("narrower window: outcome %s, %d series; want a real miss evaluation", out, len(m))
	}
	env.mustEqualCold("sum(m0)", start+10*stepMs, end, m)
}

// TestNegativeRangeInvalidation: the negative entry lives under the same
// staleness contract as a positive one — an append past the window's end
// (the result could legitimately change) or a series delete drops it.
func TestNegativeRangeInvalidation(t *testing.T) {
	env := newEnv(t, Options{})
	env.fill(40)
	start, end := env.now-20*stepMs, env.now // window ends AT the watermark
	var calls atomic.Int64
	q := func() error {
		_, _, err := env.cache.RangeQuery(context.Background(), "sum(m0)",
			model.MillisToTime(start), model.MillisToTime(end), stepMs*time.Millisecond, limitEval(&calls), nil)
		return err
	}

	if err := q(); !promql.IsLimitError(err) {
		t.Fatalf("fill err = %v, want LimitError", err)
	}
	env.appendTick() // head advances past the cached window's mutable tail
	if err := q(); !promql.IsLimitError(err) {
		t.Fatal("re-evaluation should have produced the error again")
	}
	if calls.Load() != 2 {
		t.Fatalf("eval ran %d times, want 2 (append must invalidate the negative entry)", calls.Load())
	}

	// A destructive mutation invalidates it too, via the shared gen check.
	if err := q(); calls.Load() != 2 || !promql.IsLimitError(err) {
		t.Fatalf("pre-delete repeat re-evaluated (calls=%d, err=%v)", calls.Load(), err)
	}
	env.db.DeleteSeries(labels.MustMatcher(labels.MatchEqual, "i", "3"))
	if err := q(); calls.Load() != 3 || !promql.IsLimitError(err) {
		t.Fatalf("post-delete lookup: calls=%d err=%v, want a fresh evaluation", calls.Load(), err)
	}
}
