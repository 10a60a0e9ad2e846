package tsdb

import (
	"fmt"
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
)

// BenchmarkHeadSelectInstant is a rule's or an instant query's bare read: the
// newest sample in a 5-minute lookback of 1000 series, each 119 samples into
// an open 120-sample head chunk, with the hints the evaluator sends.
func BenchmarkHeadSelectInstant(b *testing.B) {
	const series, samples = 1000, 119
	db := MustOpen(Options{Shards: 1})
	app := db.Appender()
	for i := 0; i < series; i++ {
		ls := labels.FromStrings(labels.MetricName, "m", "i", fmt.Sprint(i))
		for k := 0; k < samples; k++ {
			app.Add(ls, int64(k)*15000, float64(k))
		}
	}
	if _, err := app.Commit(); err != nil {
		b.Fatal(err)
	}
	var log hintLog
	if _, err := promql.NewEngine().Instant(&log, "m", model.MillisToTime((samples-1)*15000)); err != nil {
		b.Fatal(err)
	}
	m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := db.SelectWithHints(log.hints, m); err != nil || len(res) != series {
			b.Fatalf("select: %d series, err %v", len(res), err)
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
