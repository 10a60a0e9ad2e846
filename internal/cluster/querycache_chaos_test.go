package cluster

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/querycache"
)

// TestRingQueryCacheChaos: promapi's range cache with the ring as its head,
// as cluster_sim runs it. Range queries replayed through the cache while
// members die, rejoin and a quorum delete lands must each equal a cold
// evaluation over the quorum read: the ring's MutationGen moves on every
// kill, rejoin and delete, so no entry filled before one is served after
// it. Paranoid mode self-checks every splice and every stored entry too.
func TestRingQueryCacheChaos(t *testing.T) {
	e := newChaosEnv(t, 3, 3, 2, 20)
	eng := promql.NewEngine()
	cache := querycache.New(querycache.Options{
		MaxBytes: 1 << 22, Head: e.ring, Lookback: eng.LookbackDelta,
		MaxSteps: eng.MaxSteps, Paranoid: true,
	})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(43))
	queries := []string{
		"chaos_metric",
		`chaos_metric{idx="003"}`,
		"sum(chaos_metric)",
		"rate(chaos_metric[1m])",
		"max_over_time(chaos_metric[45s])",
	}
	tick := 0
	outcomes := map[querycache.Outcome]int{}
	// ask serves one range query through the cache and holds it to a cold
	// evaluation over the quorum read.
	ask := func(stage, q string, startMs, endMs, stepMs int64) {
		t.Helper()
		start, end := model.MillisToTime(startMs), model.MillisToTime(endMs)
		step := time.Duration(stepMs) * time.Millisecond
		eval := func(ctx context.Context, s, e2 time.Time, st time.Duration) (promql.Matrix, error) {
			return eng.RangeCtx(ctx, e.ring.Scatter(), q, s, e2, st)
		}
		got, outcome, err := cache.RangeQuery(ctx, q, start, end, step, eval, nil)
		if err != nil {
			t.Fatalf("%s: %s through the cache (%s): %v", stage, q, outcome, err)
		}
		want, err := eng.RangeCtx(ctx, e.ring.Scatter(), q, start, end, step)
		if err != nil {
			t.Fatalf("%s: cold %s: %v", stage, q, err)
		}
		if !querycache.EqualMatrix(got.Matrix, want) {
			t.Fatalf("%s: %s over [%v, %v] step %v (%s) differs from the cold read:\n got %v\nwant %v",
				stage, q, start, end, step, outcome, got.Matrix, want)
		}
		outcomes[outcome]++
	}
	// replay asks every query over a window ending near the head, twice:
	// the repeat is what a dashboard refresh sends.
	replay := func(stage string) {
		t.Helper()
		for round := 0; round < 2; round++ {
			for _, q := range queries {
				stepMs := int64(15_000 * (1 + rng.Intn(2)))
				endMs := int64(tick-1-rng.Intn(3)) * 15_000
				ask(stage, q, endMs-int64(4+rng.Intn(12))*stepMs, endMs, stepMs)
			}
		}
	}
	advance := func(n int) {
		e.run(tick, tick+n)
		tick += n
	}

	// The append epoch is a sum over live members, so a kill lowers it and
	// the survivors' appends can bring it back to a fill's value: with 20
	// series on three full replicas, 20 ticks make 1200, a kill 800, and 10
	// more ticks on two members 1200 again. Only the topology generation in
	// MutationGen tells the window reaching past the head that it grew.
	advance(20)
	future := func(stage string) {
		t.Helper()
		ask(stage, "sum(chaos_metric)", 10*15_000, 40*15_000, 15_000)
	}
	future("filled on three members")
	if err := e.ring.Kill("node-1"); err != nil {
		t.Fatalf("kill node-1: %v", err)
	}
	advance(10)
	if got := e.ring.AppendEpoch(); got != 1200 {
		t.Fatalf("append epoch %d after the kill, want the fill's 1200", got)
	}
	future("same epoch, one member fewer")
	if _, _, err := e.ring.Rejoin("node-1"); err != nil {
		t.Fatalf("rejoin node-1: %v", err)
	}

	replay("healthy")
	advance(3)
	replay("head advanced")
	for _, victim := range []string{"node-1", "node-2"} {
		if err := e.ring.Kill(victim); err != nil {
			t.Fatalf("kill %s: %v", victim, err)
		}
		replay(victim + " down")
		advance(4)
		replay(victim + " down, head advanced")
		if _, _, err := e.ring.Rejoin(victim); err != nil {
			t.Fatalf("rejoin %s: %v", victim, err)
		}
		replay(victim + " rejoined")
		advance(2)
		replay(victim + " rejoined, head advanced")
	}
	if _, err := e.ring.DeleteSeriesQuorum(labels.MustMatcher(labels.MatchRegexp, "idx", "00[0-4]")); err != nil {
		t.Fatalf("delete: %v", err)
	}
	replay("after the delete")
	advance(2)
	replay("after the delete, head advanced")

	if st := cache.Stats(); st.SpliceFails != 0 {
		t.Fatalf("%d splices mismatched the cold evaluation", st.SpliceFails)
	}
	if outcomes[querycache.OutcomeHit] == 0 || outcomes[querycache.OutcomeSplice] == 0 {
		t.Fatalf("outcomes %v: the replay never reused an entry, so it tested no cache", outcomes)
	}
}
