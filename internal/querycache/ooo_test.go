package querycache

import (
	"context"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/tsdb"
)

// TestOOOWindowNotServedStale: with an out-of-order ingest window on the
// head, cached steps inside the window are still mutable — a late sample
// can land behind the fill watermark. The cache must widen its staleness
// horizon by the window (settledBefore) instead of serving those steps as
// settled history.
func TestOOOWindowNotServedStale(t *testing.T) {
	const window = 5 * stepMs
	db := tsdb.MustOpen(tsdb.Options{OutOfOrderWindow: window, Shards: 2})
	eng := promql.NewEngine()
	cache := New(Options{
		Head: db, MaxBytes: 1 << 22, Lookback: eng.LookbackDelta,
		MaxSteps: eng.MaxSteps, Paranoid: true,
	})
	if cache.oooWindow != window {
		t.Fatalf("cache did not pick up the head's window: %d", cache.oooWindow)
	}

	ls := labels.FromStrings(labels.MetricName, "ooo_m", "i", "0")
	now := int64(1_000_000_000)
	gap := now - 2*stepMs // this scrape goes missing; it arrives late below
	for ts := now - 40*stepMs; ts <= now; ts += stepMs {
		if ts == gap {
			continue
		}
		if err := db.Append(ls, ts, float64(ts/1000)); err != nil {
			t.Fatal(err)
		}
	}
	eval := func(ctx context.Context, s, e time.Time, st time.Duration) (promql.Matrix, error) {
		return eng.RangeCtx(ctx, db, "ooo_m", s, e, st)
	}
	run := func() (promql.Matrix, Outcome) {
		ans, out, err := cache.RangeQuery(context.Background(), "ooo_m",
			model.MillisToTime(now-20*stepMs), model.MillisToTime(now),
			stepMs*time.Millisecond, eval, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ans.Matrix, out
	}

	first, _ := run()

	// The missing scrape arrives late — inside the window, two steps
	// behind the watermark — changing an already-cached step's value.
	if err := db.Append(ls, gap, 999_999); err != nil {
		t.Fatalf("in-window late append: %v", err)
	}

	got, out := run()
	if out == OutcomeHit {
		t.Fatal("in-window steps served as a pure hit after an OOO append")
	}
	if EqualMatrix(first, got) {
		t.Fatal("workload broken: late sample did not change the result")
	}
	want, err := eng.RangeCtx(context.Background(), db, "ooo_m",
		model.MillisToTime(now-20*stepMs), model.MillisToTime(now), stepMs*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualMatrix(got, want) {
		t.Fatalf("cached result differs from cold evaluation:\n got %v\nwant %v", got, want)
	}

	// Steps older than the window stay reusable: a repeat with no further
	// appends is provably current again.
	_, out = run()
	if out != OutcomeHit {
		t.Fatalf("repeat with unchanged epoch = %s, want hit", out)
	}
}
