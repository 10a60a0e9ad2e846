package querycache

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/tsdb"
)

// benchWindow is the dashboard panel the benchmarks model: a 1-hour panel
// at 15s resolution (241 steps), 100 series aggregated by rate.
const (
	benchSteps  = 240
	benchSeries = 100
	benchQuery  = "sum by (i) (rate(b1[1m]))"
)

type benchEnv struct {
	db   *tsdb.DB
	eng  *promql.Engine
	last int64 // watermark, ms
}

func newBenchEnv(b *testing.B) *benchEnv {
	b.Helper()
	env := &benchEnv{
		db:  tsdb.MustOpen(tsdb.Options{MaxSamplesPerChunk: 120, Shards: 4}),
		eng: promql.NewEngine(),
	}
	// History: two full windows plus lookback slack, so splice patterns can
	// slide without appending mid-benchmark.
	base := int64(1_000_000_000)
	ticks := 3*benchSteps + 40
	for i := 0; i < benchSeries; i++ {
		ls := labels.FromStrings(labels.MetricName, "b1", "i", fmt.Sprint(i))
		samples := make([]model.Sample, ticks)
		for k := 0; k < ticks; k++ {
			samples[k] = model.Sample{T: base + int64(k)*stepMs, V: float64(k*7 + i)}
		}
		if err := env.db.AppendSeries(ls, samples); err != nil {
			b.Fatal(err)
		}
	}
	env.last = base + int64(ticks-1)*stepMs
	return env
}

func (e *benchEnv) newCache() *Cache {
	return New(Options{MaxBytes: 256 << 20, Shards: 4, Head: e.db, Lookback: e.eng.LookbackDelta})
}

func (e *benchEnv) eval() RangeEval {
	return func(ctx context.Context, s, end time.Time, st time.Duration) (promql.Matrix, error) {
		return e.eng.RangeCtx(ctx, e.db, benchQuery, s, end, st)
	}
}

func (e *benchEnv) query(b *testing.B, c *Cache, startMs, endMs int64, want Outcome) {
	b.Helper()
	if err := e.check(c, startMs, endMs, want); err != nil {
		b.Fatal(err)
	}
}

// check runs the panel query through c and reports an outcome other than
// want, or a result of the wrong size, as an error.
func (e *benchEnv) check(c *Cache, startMs, endMs int64, want Outcome) error {
	ans, out, err := c.RangeQuery(context.Background(), benchQuery,
		model.MillisToTime(startMs), model.MillisToTime(endMs), stepMs*time.Millisecond, e.eval(), nil)
	switch {
	case err != nil:
		return err
	case out != want:
		return fmt.Errorf("outcome = %s, want %s", out, want)
	case len(ans.Matrix) != benchSeries:
		return fmt.Errorf("result has %d series, want %d", len(ans.Matrix), benchSeries)
	}
	return nil
}

// BenchmarkQueryCacheColdMiss is the baseline: the full windowed range
// evaluation plus the cache's store path, nothing reusable.
func BenchmarkQueryCacheColdMiss(b *testing.B) {
	env := newBenchEnv(b)
	end := env.last
	start := end - benchSteps*stepMs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.query(b, env.newCache(), start, end, OutcomeMiss)
	}
}

// BenchmarkQueryCacheHit measures an exact dashboard repeat: key lookup,
// validity check and the shared answer (the entry's own arrays, no copy).
// It passes no renderer; promapi's BenchmarkRangeRefresh measures rendering.
func BenchmarkQueryCacheHit(b *testing.B) {
	env := newBenchEnv(b)
	c := env.newCache()
	end := env.last
	start := end - benchSteps*stepMs
	env.query(b, c, start, end, OutcomeMiss)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.query(b, c, start, end, OutcomeHit)
	}
}

// BenchmarkQueryCacheHitParallel is BenchmarkQueryCacheHit's repeat from
// GOMAXPROCS goroutines at once, every one reading the same entry: the
// cache's half of the concurrent micro pair, whose head half is
// tsdb.BenchmarkHeadSelectUnderAppend.
func BenchmarkQueryCacheHitParallel(b *testing.B) {
	env := newBenchEnv(b)
	c := env.newCache()
	end := env.last
	start := end - benchSteps*stepMs
	env.query(b, c, start, end, OutcomeMiss)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := env.check(c, start, end, OutcomeHit); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkQueryCacheSplice measures incremental refreshes: the window
// slides so a fraction of the cached entry is reused and only the
// uncovered steps re-evaluate. overlap99 is the production dashboard
// pattern the cache exists for (refresh after the head advanced a couple
// of scrapes); overlap80 is the stress point where a fifth of the window
// is new. The windows alternate forward and back so any b.N runs against
// fixed data.
func BenchmarkQueryCacheSplice(b *testing.B) {
	for _, bc := range []struct {
		name  string
		delta int64 // steps the window slides per refresh
	}{
		{"overlap99", 2},
		{"overlap95", 12},
		{"overlap80", 48},
	} {
		b.Run(bc.name, func(b *testing.B) {
			env := newBenchEnv(b)
			c := env.newCache()
			endA := env.last - bc.delta*stepMs
			endB := env.last
			startOf := func(end int64) int64 { return end - benchSteps*stepMs }
			env.query(b, c, startOf(endA), endA, OutcomeMiss)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				end := endA
				if i%2 == 0 {
					end = endB
				}
				env.query(b, c, startOf(end), end, OutcomeSplice)
			}
		})
	}
}
