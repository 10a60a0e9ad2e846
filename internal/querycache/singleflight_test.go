package querycache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/promql"
)

// TestSingleflightColdStampede proves the satellite claim end-to-end: N
// concurrent cold requests for one key cost exactly one backend
// evaluation. The eval blocks on a release channel while the test waits —
// deterministically, via the latch's waiter count — for the leader to be
// inside eval and all N-1 followers to be parked on the latch.
func TestSingleflightColdStampede(t *testing.T) {
	env := newEnv(t, Options{})
	env.fill(40)
	const query = "sum by (i) (m0)"
	start, end := env.now-20*stepMs, env.now

	const n = 8
	release := make(chan struct{})
	var evals atomic.Int32
	eval := func(ctx context.Context, s, e time.Time, st time.Duration) (promql.Matrix, error) {
		evals.Add(1)
		<-release
		return env.eng.RangeCtx(ctx, env.db, query, s, e, st)
	}

	results := make([]promql.Matrix, n)
	outcomes := make([]Outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ans, out, err := env.cache.RangeQuery(context.Background(), query,
				model.MillisToTime(start), model.MillisToTime(end), stepMs*time.Millisecond, eval, nil)
			if err != nil {
				t.Error(err)
				return
			}
			results[i], outcomes[i] = ans.Matrix, out
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for (evals.Load() != 1 || env.cache.flights.waiting() != n-1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := env.cache.flights.waiting(); got != n-1 {
		t.Fatalf("%d followers parked on the latch, want %d", got, n-1)
	}
	close(release)
	wg.Wait()

	if got := evals.Load(); got != 1 {
		t.Fatalf("%d concurrent cold requests cost %d backend evals, want exactly 1", n, got)
	}
	hits := 0
	for i := range results {
		env.mustEqualCold(query, start, end, results[i])
		if outcomes[i] == OutcomeHit {
			hits++
		}
	}
	if hits != n-1 {
		t.Fatalf("%d followers served as hits, want %d (outcomes %v)", hits, n-1, outcomes)
	}
	if st := env.cache.Stats(); st.Coalesced != n-1 {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, n-1)
	}
}

// TestSingleflightLeaderError: when the leader's evaluation fails, parked
// followers do not inherit the error — they retry once, find nothing
// stored, and evaluate for themselves (unlatched).
func TestSingleflightLeaderError(t *testing.T) {
	env := newEnv(t, Options{})
	env.fill(10)
	const query = "sum by (i) (m0)"
	start, end := env.now-5*stepMs, env.now

	boom := errors.New("backend down")
	var calls atomic.Int32
	fail := make(chan struct{})
	eval := func(ctx context.Context, s, e time.Time, st time.Duration) (promql.Matrix, error) {
		if calls.Add(1) == 1 {
			<-fail
			return nil, boom
		}
		return env.eng.RangeCtx(ctx, env.db, query, s, e, st)
	}

	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := env.cache.RangeQuery(context.Background(), query,
				model.MillisToTime(start), model.MillisToTime(end), stepMs*time.Millisecond, eval, nil)
			errs <- err
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for (calls.Load() != 1 || env.cache.flights.waiting() != 1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(fail)
	wg.Wait()
	close(errs)
	var failed, ok int
	for err := range errs {
		if errors.Is(err, boom) {
			failed++
		} else if err == nil {
			ok++
		} else {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if failed != 1 || ok != 1 {
		t.Fatalf("leader/follower outcomes: %d failed, %d succeeded; want 1 and 1", failed, ok)
	}
}
