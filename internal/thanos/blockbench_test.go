package thanos

// The downsampling payoff benchmark: a 30-day range query answered from
// raw chunk decode vs from 1h sum/count aggregates. Baselines live in
// BENCH_blocks.json and are gated by tools/benchdiff.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/tsdb"
)

const (
	benchSeries  = 4
	benchDays    = 30
	benchScrapeS = 60 // 1-minute cadence: 43200 samples per series
)

// benchStore builds a store holding 30 days of raw data in 2-day blocks,
// downsampled to 5m and 1h (the production lifecycle: raw → 5m → 1h).
func benchStore(b *testing.B) *Store {
	b.Helper()
	store, err := NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	const blockDays = 2
	for blk := 0; blk < benchDays/blockDays; blk++ {
		db := tsdb.MustOpen(tsdb.DefaultOptions())
		base := int64(blk) * blockDays * 86400_000
		for s := 0; s < benchSeries; s++ {
			ls := labels.FromStrings(labels.MetricName, "bench", "s", fmt.Sprintf("%d", s))
			for ts := int64(0); ts < blockDays*86400_000; ts += benchScrapeS * 1000 {
				if err := db.Append(ls, base+ts, float64(s)+float64(ts%3600_000)); err != nil {
					b.Fatal(err)
				}
			}
		}
		mustCut(b, store, db, -1<<60, 1<<60)
	}
	if _, err := store.Downsample(1<<60, 5*time.Minute); err != nil {
		b.Fatal(err)
	}
	if _, err := store.Downsample(1<<60, time.Hour); err != nil {
		b.Fatal(err)
	}
	return store
}

func benchHints(aggr bool) model.SelectHints {
	h := model.SelectHints{Start: 0, End: benchDays * 86400_000}
	if aggr {
		// A Grafana-scale 30d dashboard: ~6h steps make the 1h resolution
		// eligible (maxRes = step/5).
		h.Step = 6 * 3600_000
		h.Func = "avg_over_time"
	}
	return h
}

// BenchmarkBlockQuery30dRaw decodes every raw chunk of the window.
func BenchmarkBlockQuery30dRaw(b *testing.B) {
	store := benchStore(b)
	defer store.Close()
	m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := store.SelectWithHints(benchHints(false), m)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != benchSeries || len(got[0].Samples) != benchDays*86400/benchScrapeS {
			b.Fatalf("raw: %d series x %d samples", len(got), len(got[0].Samples))
		}
	}
}

// BenchmarkBlockQuery30dStepped reads the raw blocks of
// BenchmarkBlockQuery30dRaw for a bare selector at a 2 h step with a 5 m
// lookback: one sample per series per step kept, each chunk decoded only up
// to the last sample a step can keep. Each 2-day block is trimmed on its
// own, so at each of the 14 seams the block before keeps its last sample for
// the step the next block's first sample also serves: 361 steps, 375 samples.
func BenchmarkBlockQuery30dStepped(b *testing.B) {
	store := benchStore(b)
	defer store.Close()
	m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "bench")
	h := model.SelectHints{Start: 0, End: benchDays * 86400_000, Step: 2 * 3600_000, Lookback: 5 * 60_000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := store.SelectWithHints(h, m)
		if err != nil {
			b.Fatal(err)
		}
		if steps, seams := benchDays*12+1, benchDays/2-1; len(got) != benchSeries || len(got[0].Samples) != steps+seams {
			b.Fatalf("stepped: %d series x %d samples", len(got), len(got[0].Samples))
		}
	}
}

// hintLog keeps the hints of the last read it was asked for and answers
// nothing.
type hintLog struct{ hints model.SelectHints }

func (h *hintLog) SelectWithHints(hints model.SelectHints, _ ...*labels.Matcher) ([]model.Series, error) {
	h.hints = hints
	return nil, nil
}

// rangeHints returns the hints the evaluator sends for the one selector of
// query, run as a range query over [start, end] ms at step.
func rangeHints(b *testing.B, query string, start, end int64, step time.Duration) model.SelectHints {
	b.Helper()
	var log hintLog
	if _, err := promql.NewEngine().Range(&log, query, model.MillisToTime(start), model.MillisToTime(end), step); err != nil {
		b.Fatal(err)
	}
	return log.hints
}

// BenchmarkBlockQuery30dStepSparse reads the raw blocks of
// BenchmarkBlockQuery30dRaw with the hints the evaluator sends for two
// panels whose steps look at few of the samples: the raw month at a 2 h step
// (one sample per series per step) and a week of rate(…[5m]) at a 1 h step
// (five samples in every sixty).
func BenchmarkBlockQuery30dStepSparse(b *testing.B) {
	store := benchStore(b)
	defer store.Close()
	m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "bench")
	const day = 86400_000
	for _, bc := range []struct {
		name  string
		hints model.SelectHints
	}{
		{"bare_30d_step_2h", rangeHints(b, "bench", 0, benchDays*day, 2*time.Hour)},
		{"rate5m_7d_step_1h", rangeHints(b, "rate(bench[5m])", (benchDays-7)*day, benchDays*day, time.Hour)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := store.SelectWithHints(bc.hints, m)
				if err != nil {
					b.Fatal(err)
				}
				if len(got) != benchSeries {
					b.Fatalf("%d series", len(got))
				}
			}
		})
	}
}

// BenchmarkBlockQuery30dDownsampled serves the same window from the 1h
// aggregates: 735 points per series instead of 43200 raw samples. The last
// hour is not 1h buckets: the newest block ends inside its last 5m bucket,
// which no later block has completed, so 5m serves 11 buckets of that hour
// and the raw block its last 5 samples.
func BenchmarkBlockQuery30dDownsampled(b *testing.B) {
	store := benchStore(b)
	defer store.Close()
	m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := store.SelectWithHints(benchHints(true), m)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != benchSeries || len(got[0].Samples) != benchDays*24-1+11+5 {
			b.Fatalf("downsampled: %d series x %d samples", len(got), len(got[0].Samples))
		}
	}
}
