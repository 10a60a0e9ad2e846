package promql_test

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/querycache"
	"repro/internal/tsdb"
)

// renderTV is a sample's wire form for the cache's renderings: its
// timestamp and value bits, so equal bytes mean equal samples.
func renderTV(b []byte, t int64, v float64) []byte {
	b = strconv.AppendInt(append(b, '['), t, 10)
	b = strconv.AppendUint(append(b, ','), math.Float64bits(v), 16)
	return append(b, ']')
}

// TestQueryCacheMatchesOracleRandom: the differential tests' random PromQL
// through the query-result cache, in Paranoid mode, against Engine.RangeCtx
// on the same head with no cache, the oracle here. Each expression runs as a
// miss, a hit on the same window, a splice on the window shifted by k steps,
// and, after one more tick is appended to the head, a splice on the window
// shifted again. Every answer must equal the oracle's to the bit, rendered
// samples included, and both must fail or neither.
func TestQueryCacheMatchesOracleRandom(t *testing.T) {
	rng, query, exprs := promql.EquivRun(t)
	// At most the tier-1 size: `make promql-equiv` runs this under race beside
	// the other legs, about 12 ms an expression, and the target already sits
	// at go test's ten-minute limit.
	exprs = min(exprs, 250)
	eng := promql.NewEngine()
	ctx := context.Background()
	var db *tsdb.DB
	outcomes := map[querycache.Outcome]int{}
	for i := 0; i < exprs; i++ {
		if i%100 == 0 {
			db = promql.EquivStorage(t, rng) // a fresh dataset every hundred expressions
		}
		q := query()
		cache := querycache.New(querycache.Options{Head: db, Lookback: eng.LookbackDelta, Paranoid: true})
		eval := func(ctx context.Context, start, end time.Time, step time.Duration) (promql.Matrix, error) {
			return eng.RangeCtx(ctx, db, q, start, end, step)
		}
		step := []time.Duration{15 * time.Second, 30 * time.Second, 47 * time.Second, time.Minute}[rng.Intn(4)]
		stepMs := step.Milliseconds()
		n, k := 5+rng.Int63n(30), 1+rng.Int63n(3)
		top, _ := db.MaxTime()
		// The window shifted by k ends within a step before the head's newest
		// sample, so the one shifted further reaches the tick appended at
		// the last leg.
		start := top - (n+k)*stepMs + rng.Int63n(stepMs)
		legs := []struct {
			name  string
			shift int64 // steps past start
			want  querycache.Outcome
		}{
			{"miss", 0, querycache.OutcomeMiss},
			{"hit", 0, querycache.OutcomeHit},
			{"splice", k, querycache.OutcomeSplice},
			{"splice after a tick", k + 1 + rng.Int63n(2), querycache.OutcomeSplice},
		}
		var want promql.Matrix
		var wantErr error
		for _, leg := range legs {
			if leg.name == "splice after a tick" {
				appendTick(t, rng, db, top+15_000)
			}
			from := model.MillisToTime(start + leg.shift*stepMs)
			to := from.Add(time.Duration(n-1) * step)
			got, outcome, gotErr := cache.RangeQuery(ctx, q, from, to, step, eval, renderTV)
			if leg.name != "hit" { // a hit asks for the miss's window of the same head
				want, wantErr = eng.RangeCtx(ctx, db, q, from, to, step)
			}
			switch {
			case (gotErr != nil) != (wantErr != nil):
				t.Errorf("%s, %s at %v step %v: error %v, oracle %v", q, leg.name, from, step, gotErr, wantErr)
			case wantErr != nil:
			case !querycache.EqualMatrix(got.Matrix, want):
				t.Errorf("%s, %s at %v step %v:\n got  %v\n want %v", q, leg.name, from, step, got.Matrix, want)
			case !renderedAs(got, want):
				t.Errorf("%s, %s at %v step %v: rendering differs from the oracle's", q, leg.name, from, step)
			case outcome != leg.want:
				t.Errorf("%s, %s at %v step %v: outcome %s, want %s", q, leg.name, from, step, outcome, leg.want)
			default:
				outcomes[outcome]++
			}
		}
		if t.Failed() {
			t.Fatalf("first divergence at expression %d", i)
		}
	}
	t.Logf("answers checked by outcome: %v", outcomes)
	if outcomes[querycache.OutcomeSplice] < exprs {
		t.Errorf("only %d of %d splice legs answered: the generator is too wild", outcomes[querycache.OutcomeSplice], 2*exprs)
	}
}

// renderedAs reports whether a rendered answer holds renderTV of want's
// samples, series by series; an answer not rendered passes.
func renderedAs(got querycache.Range, want promql.Matrix) bool {
	if got.Rendered == nil {
		return true
	}
	if len(got.Rendered) != len(want) {
		return false
	}
	for k, s := range want {
		var b []byte
		for _, smp := range s.Samples {
			b = renderTV(b, smp.T, smp.V)
		}
		if string(got.Rendered[k]) != string(b) {
			return false
		}
	}
	return true
}

// appendTick appends one sample at ts to every series of db: a counter
// grows, a gauge takes a new value, and now and then a series gets a
// staleness marker instead.
func appendTick(t *testing.T, rng *rand.Rand, db *tsdb.DB, ts int64) {
	t.Helper()
	all, err := db.Select(math.MinInt64, math.MaxInt64, labels.MustMatcher(labels.MatchRegexp, labels.MetricName, ".+"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		v := rng.Float64()*200 - 50
		if last := s.Samples[len(s.Samples)-1].V; strings.HasSuffix(s.Labels.Get(labels.MetricName), "_total") && !math.IsNaN(last) {
			v = last + rng.Float64()*50
		}
		if rng.Intn(20) == 0 {
			v = model.StaleNaN()
		}
		if err := db.Append(s.Labels, ts, v); err != nil {
			t.Fatal(err)
		}
	}
}
