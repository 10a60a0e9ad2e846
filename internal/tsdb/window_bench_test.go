package tsdb

import (
	"fmt"
	"testing"

	"repro/internal/labels"
)

// BenchmarkHeadSelectWindow is a refresh's read: the last 2 minutes (a rule's
// rate window) and the last 15 minutes (a panel's) of 200 series at a 15 s
// cadence, each two full 120-sample chunks, so both windows start inside the
// newest chunk. Read inline (under selectGrain), on one shard.
func BenchmarkHeadSelectWindow(b *testing.B) {
	const series, samples, step = 200, 240, 15000
	db := MustOpen(Options{Shards: 1})
	app := db.Appender()
	for i := 0; i < series; i++ {
		ls := labels.FromStrings(labels.MetricName, "m", "i", fmt.Sprint(i))
		for k := 0; k < samples; k++ {
			app.Add(ls, int64(k)*step, float64(k%7)*1.5+float64(i))
		}
	}
	if _, err := app.Commit(); err != nil {
		b.Fatal(err)
	}
	newest := int64(samples-1) * step
	m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m")
	for _, w := range []struct {
		name   string
		window int64
	}{{"2m", 120000}, {"15m", 900000}} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res, err := db.Select(newest-w.window, newest, m); err != nil || len(res) != series {
					b.Fatalf("select: %d series, err %v", len(res), err)
				}
			}
		})
	}
}
