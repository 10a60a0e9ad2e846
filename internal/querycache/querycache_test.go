package querycache

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/tsdb"
)

const stepMs = 15_000

// testEnv is one head + engine + cache with an eval-call ledger.
type testEnv struct {
	t     *testing.T
	db    *tsdb.DB
	eng   *promql.Engine
	cache *Cache
	now   int64 // last appended timestamp, ms

	mu        sync.Mutex
	evalCalls int
	evalSteps int // total steps the eval closure was asked to produce
}

func newEnv(t *testing.T, opts Options) *testEnv {
	t.Helper()
	env := &testEnv{
		t:   t,
		db:  tsdb.MustOpen(tsdb.Options{MaxSamplesPerChunk: 120, Shards: 4}),
		eng: promql.NewEngine(),
		now: 1_000_000_000,
	}
	opts.Head = env.db
	opts.Lookback = env.eng.LookbackDelta
	if opts.MaxBytes == 0 {
		opts.MaxBytes = 1 << 22
	}
	if opts.Shards == 0 {
		opts.Shards = 4
	}
	opts.Paranoid = true
	env.cache = New(opts)
	return env
}

// appendTick advances the head one scrape interval: every series gets one
// sample at the new watermark.
func (e *testEnv) appendTick() {
	e.now += stepMs
	for i := 0; i < 4; i++ {
		ls := labels.FromStrings(labels.MetricName, "m0", "i", fmt.Sprint(i))
		if err := e.db.Append(ls, e.now, float64(e.now/1000+int64(i))); err != nil {
			e.t.Fatal(err)
		}
		cs := labels.FromStrings(labels.MetricName, "m1", "i", fmt.Sprint(i))
		if err := e.db.Append(cs, e.now, float64(e.now/100)); err != nil {
			e.t.Fatal(err)
		}
	}
}

func (e *testEnv) fill(ticks int) {
	for i := 0; i < ticks; i++ {
		e.appendTick()
	}
}

func (e *testEnv) eval(query string) RangeEval {
	return func(ctx context.Context, s, end time.Time, st time.Duration) (promql.Matrix, error) {
		e.mu.Lock()
		e.evalCalls++
		e.evalSteps += int(end.Sub(s)/st) + 1
		e.mu.Unlock()
		return e.eng.RangeCtx(ctx, e.db, query, s, end, st)
	}
}

func (e *testEnv) rangeQuery(query string, startMs, endMs int64) (promql.Matrix, Outcome) {
	e.t.Helper()
	ans, out, err := e.cache.RangeQuery(context.Background(), query,
		model.MillisToTime(startMs), model.MillisToTime(endMs), stepMs*time.Millisecond, e.eval(query), nil)
	if err != nil {
		e.t.Fatalf("RangeQuery(%s): %v", query, err)
	}
	return ans.Matrix, out
}

func (e *testEnv) cold(query string, startMs, endMs int64) promql.Matrix {
	e.t.Helper()
	m, err := e.eng.RangeCtx(context.Background(), e.db, query,
		model.MillisToTime(startMs), model.MillisToTime(endMs), stepMs*time.Millisecond)
	if err != nil {
		e.t.Fatal(err)
	}
	return m
}

func (e *testEnv) mustEqualCold(query string, startMs, endMs int64, got promql.Matrix) {
	e.t.Helper()
	if want := e.cold(query, startMs, endMs); !EqualMatrix(got, want) {
		e.t.Fatalf("cached result differs from cold evaluation for %s [%d..%d]:\n got %v\nwant %v",
			query, startMs, endMs, got, want)
	}
}

func TestExactRepeatIsHit(t *testing.T) {
	env := newEnv(t, Options{})
	env.fill(40)
	start, end := env.now-20*stepMs, env.now

	m1, out1 := env.rangeQuery("sum by (i) (m0)", start, end)
	if out1 != OutcomeMiss {
		t.Fatalf("first lookup = %s, want miss", out1)
	}
	if len(m1) == 0 {
		t.Fatal("empty result; test workload broken")
	}
	callsAfterFill := env.evalCalls
	m2, out2 := env.rangeQuery("sum by (i) (m0)", start, end)
	if out2 != OutcomeHit {
		t.Fatalf("repeat lookup = %s, want hit", out2)
	}
	if env.evalCalls != callsAfterFill {
		t.Fatalf("hit ran %d extra evaluations", env.evalCalls-callsAfterFill)
	}
	if !EqualMatrix(m1, m2) {
		t.Fatal("hit returned different result than fill")
	}
	env.mustEqualCold("sum by (i) (m0)", start, end, m2)
	if st := env.cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestSpliceEvaluatesOnlyTheDelta(t *testing.T) {
	env := newEnv(t, Options{})
	env.fill(200)
	const q = "rate(m1[1m])"
	const window = 100 // steps

	start, end := env.now-window*stepMs, env.now
	env.rangeQuery(q, start, end)

	// Dashboard refresh: the head advanced 5 scrapes, the window slid with
	// it — 95% overlap with the cached entry.
	env.fill(5)
	env.mu.Lock()
	env.evalSteps = 0
	env.mu.Unlock()
	start, end = env.now-window*stepMs, env.now
	got, out := env.rangeQuery(q, start, end)
	if out != OutcomeSplice {
		t.Fatalf("overlapping refresh = %s, want splice", out)
	}
	env.mustEqualCold(q, start, end, got)
	// Paranoid mode re-runs the full cold evaluation (window+1 steps); the
	// incremental part is everything beyond that. The head moved 5 steps
	// and the last cached step was mutable at fill, so ~6 steps re-run.
	env.mu.Lock()
	delta := env.evalSteps - (window + 1)
	env.mu.Unlock()
	if delta > 8 {
		t.Fatalf("splice re-evaluated %d steps, want <= 8", delta)
	}
	if st := env.cache.Stats(); st.Splices != 1 {
		t.Fatalf("stats = %+v, want 1 splice", st)
	}
}

func TestMutableTailNeverServedStale(t *testing.T) {
	env := newEnv(t, Options{})
	env.fill(40)
	const q = "m0"
	// Window extends one step beyond the watermark: that last step was
	// still mutable when the entry filled.
	start, end := env.now-10*stepMs, env.now+stepMs
	first, _ := env.rangeQuery(q, start, end)

	// The scrape that was pending arrives; the last step's value changes.
	// A repeat of the identical window must reflect it.
	env.appendTick()
	got, out := env.rangeQuery(q, start, end)
	if out == OutcomeHit {
		t.Fatal("mutable tail served as pure hit after the head advanced")
	}
	if EqualMatrix(first, got) {
		t.Fatal("test workload broken: new scrape did not change the last step")
	}
	env.mustEqualCold(q, start, end, got)
}

func TestEpochUnchangedServesMutableSteps(t *testing.T) {
	env := newEnv(t, Options{})
	env.fill(40)
	start, end := env.now-10*stepMs, env.now+5*stepMs // tail entirely mutable
	env.rangeQuery("m0", start, end)
	// Nothing appended since fill: the whole entry, mutable steps included,
	// is provably current.
	_, out := env.rangeQuery("m0", start, end)
	if out != OutcomeHit {
		t.Fatalf("repeat with unchanged epoch = %s, want hit", out)
	}
}

func TestDeleteSeriesInvalidates(t *testing.T) {
	env := newEnv(t, Options{})
	env.fill(40)
	start, end := env.now-20*stepMs, env.now
	env.rangeQuery("m0", start, end)

	env.db.DeleteSeries(labels.MustMatcher(labels.MatchEqual, "i", "2"))
	got, out := env.rangeQuery("m0", start, end)
	if out == OutcomeHit || out == OutcomeSplice {
		t.Fatalf("post-delete lookup = %s, want full miss", out)
	}
	for _, s := range got {
		if s.Labels.Get("i") == "2" {
			t.Fatal("deleted series served from cache")
		}
	}
	env.mustEqualCold("m0", start, end, got)
	if st := env.cache.Stats(); st.Invalidations == 0 {
		t.Fatalf("stats = %+v, want an invalidation", st)
	}
}

func TestRetentionTrimsCachedSteps(t *testing.T) {
	env := newEnv(t, Options{})
	env.fill(200)
	start, end := env.now-180*stepMs, env.now
	env.rangeQuery("m0", start, end)

	// Prune everything older than 20 steps; most of the cached window's
	// read windows now dip below MinTime.
	env.db.Truncate(env.now - 20*stepMs)
	got, out := env.rangeQuery("m0", start, end)
	if out == OutcomeHit {
		t.Fatal("window overlapping pruned data served as pure hit")
	}
	env.mustEqualCold("m0", start, end, got)
}

// TestMutationAfterReturn pins the shared-answer contract: a hit hands out
// the entry's own arrays — the very ones the miss returned and stored, and
// the rendering kept from the first reuse — and a caller that writes to any
// of them (sample, label value, rendered byte) makes the next lookup of that
// entry fail in Paranoid mode instead of serving the scribble or silently
// absorbing it.
func TestMutationAfterReturn(t *testing.T) {
	env := newEnv(t, Options{})
	env.fill(40)
	start, end := env.now-20*stepMs, env.now
	const q = "sum by (i) (m0)"
	ctx := context.Background()
	query := func() (Range, Outcome, error) {
		return env.cache.RangeQuery(ctx, q, model.MillisToTime(start), model.MillisToTime(end),
			stepMs*time.Millisecond, env.eval(q), renderTV)
	}

	for _, scribble := range []struct {
		name  string
		write func(Range)
	}{
		{"sample", func(a Range) { a.Matrix[0].Samples[0].V = -12345 }},
		{"label", func(a Range) { a.Matrix[0].Labels[0].Value = "corrupted" }},
		{"rendering", func(a Range) { a.Rendered[0][0] ^= 0xff }},
	} {
		first, out, err := query()
		if err != nil || out != OutcomeMiss {
			t.Fatalf("%s: first = %s (%v), want miss", scribble.name, out, err)
		}
		if first.Rendered != nil {
			t.Fatalf("%s: a cold miss rendered", scribble.name)
		}
		got, out, err := query()
		if err != nil || out != OutcomeHit {
			t.Fatalf("%s: repeat = %s (%v), want hit", scribble.name, out, err)
		}
		if &got.Matrix[0].Samples[0] != &first.Matrix[0].Samples[0] || &got.Matrix[0].Labels[0] != &first.Matrix[0].Labels[0] {
			t.Fatalf("%s: the hit copied the entry instead of sharing it", scribble.name)
		}
		again, out, err := query()
		if err != nil || out != OutcomeHit || &again.Rendered[0][0] != &got.Rendered[0][0] {
			t.Fatalf("%s: second hit = %s (%v), want the first hit's rendering shared", scribble.name, out, err)
		}
		env.mustEqualCold(q, start, end, got.Matrix)
		if err := checkRendered(got, got.Matrix); err != nil {
			t.Fatalf("%s: %v", scribble.name, err)
		}
		scribble.write(got)
		fails := env.cache.Stats().SpliceFails
		if _, _, err := query(); err == nil {
			t.Fatalf("%s: a write to a shared answer was absorbed", scribble.name)
		}
		if env.cache.Stats().SpliceFails != fails+1 {
			t.Fatalf("%s: the caught write was not counted", scribble.name)
		}
	}
}

// TestSameTimestampAppendAtWatermark is the regression test for the
// watermark off-by-one: the scrape pipeline commits metric samples and then
// the up/scrape_duration synthetics at the SAME timestamp (and parallel
// targets can share a millisecond), so a cache fill can land between two
// commits carrying equal timestamps. The boundary step — cached while only
// the first commit was visible — must never be served settled afterwards.
func TestSameTimestampAppendAtWatermark(t *testing.T) {
	env := newEnv(t, Options{})
	env.fill(40)
	const q = "m0"
	ts := env.now + stepMs

	// First commit of the scrape pass: half the series land at ts; ts is
	// now the global watermark.
	for i := 0; i < 2; i++ {
		ls := labels.FromStrings(labels.MetricName, "m0", "i", fmt.Sprint(i))
		if err := env.db.Append(ls, ts, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	// Cache fill races in between the two commits: the boundary step at ts
	// sees only the first commit's samples.
	start, end := env.now-10*stepMs, ts
	first, _ := env.rangeQuery(q, start, end)

	// Second commit of the same pass: the remaining series land AT the
	// watermark.
	for i := 2; i < 4; i++ {
		ls := labels.FromStrings(labels.MetricName, "m0", "i", fmt.Sprint(i))
		if err := env.db.Append(ls, ts, 2.0); err != nil {
			t.Fatal(err)
		}
	}
	got, out := env.rangeQuery(q, start, end)
	if out == OutcomeHit {
		t.Fatal("boundary step cached between same-timestamp commits served as pure hit")
	}
	if EqualMatrix(first, got) {
		t.Fatal("test workload broken: second commit did not change the boundary step")
	}
	env.mustEqualCold(q, start, end, got)

	// The splice above re-stored the entry under the new epoch; the
	// boundary step it carries is now genuinely complete, so a repeat is a
	// hit — and still byte-identical to cold.
	again, out2 := env.rangeQuery(q, start, end)
	if out2 != OutcomeHit {
		t.Fatalf("repeat after splice = %s, want hit", out2)
	}
	env.mustEqualCold(q, start, end, again)
}

func TestNormalizationSharesEntries(t *testing.T) {
	env := newEnv(t, Options{})
	env.fill(40)
	start, end := env.now-10*stepMs, env.now
	env.rangeQuery("sum by (i) (m0)", start, end)
	_, out := env.rangeQuery("sum   by (i)    ( m0 )", start, end)
	if out != OutcomeHit {
		t.Fatalf("formatting variant = %s, want hit (normalization failed)", out)
	}
	// A semantically different query must not collide.
	got, out2 := env.rangeQuery(`sum by (i) (m0{i="1"})`, start, end)
	if out2 == OutcomeHit {
		t.Fatal("different query served from another query's entry")
	}
	env.mustEqualCold(`sum by (i) (m0{i="1"})`, start, end, got)
}

func TestEvictionKeepsBudget(t *testing.T) {
	env := newEnv(t, Options{MaxBytes: 16 << 10, Shards: 2})
	env.fill(120)
	for i := 0; i < 40; i++ {
		q := fmt.Sprintf(`sum by (i) (m0) + %d`, i)
		start := env.now - int64(40+i)*stepMs
		got, _ := env.rangeQuery(q, start, env.now)
		env.mustEqualCold(q, start, env.now, got)
	}
	st := env.cache.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("cache over budget: %d > %d", st.Bytes, st.MaxBytes)
	}
	if st.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions under a tiny budget", st)
	}
}

func TestDegenerateRequestsBypass(t *testing.T) {
	env := newEnv(t, Options{})
	env.fill(40)
	start, end := model.MillisToTime(env.now-10*stepMs), model.MillisToTime(env.now)
	eval := func(ctx context.Context, s, e time.Time, st time.Duration) (promql.Matrix, error) {
		return env.eng.RangeCtx(ctx, env.db, "m0", s, e, st)
	}
	// Sub-millisecond step: truncates to 0 on the ms grid; must evaluate
	// cold, not divide by zero.
	narrow := model.MillisToTime(env.now - 1000)
	if _, out, err := env.cache.RangeQuery(context.Background(), "m0", narrow, end, 500*time.Microsecond, eval, nil); err != nil || out != OutcomeBypass {
		t.Fatalf("sub-ms step: outcome %s, err %v", out, err)
	}
	// Requests beyond the engine's step guardrail bypass so the engine's
	// own LimitError fires instead of a splice assembling a refused window.
	wide := model.MillisToTime(env.now + int64(env.eng.MaxSteps+10)*stepMs)
	_, out, err := env.cache.RangeQuery(context.Background(), "m0", start, wide, stepMs*time.Millisecond, eval, nil)
	if out != OutcomeBypass || !promql.IsLimitError(err) {
		t.Fatalf("oversized range: outcome %s, err %v; want bypass + LimitError", out, err)
	}
}

func TestConcurrentMixedAccess(t *testing.T) {
	env := newEnv(t, Options{})
	env.fill(80)
	queries := []string{"m0", "sum by (i) (m0)", "rate(m1[1m])", "m0 + m0"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := queries[(g+i)%len(queries)]
				start := env.now - int64(10+(g+i)%30)*stepMs
				ans, out, err := env.cache.RangeQuery(context.Background(), q,
					model.MillisToTime(start), model.MillisToTime(env.now), stepMs*time.Millisecond,
					func(ctx context.Context, s, e time.Time, st time.Duration) (promql.Matrix, error) {
						return env.eng.RangeCtx(ctx, env.db, q, s, e, st)
					}, renderTV)
				if err != nil {
					t.Errorf("RangeQuery: %v", err)
					return
				}
				if len(ans.Matrix) == 0 {
					t.Error("empty result")
					return
				}
				if out == OutcomeHit || out == OutcomeSplice {
					// Concurrent first hits render one entry at once.
					if err := checkRendered(ans, ans.Matrix); err != nil {
						t.Errorf("%s %s: %v", q, out, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
