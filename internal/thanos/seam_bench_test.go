package thanos

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb"
)

// BenchmarkQuerierSeam reads a fleet-wide metric through the Querier the
// way a dashboard panel does — rate over 2m at a 15 s step — over a head and
// store shaped like ingest_churn's: 100 nodes scraped every 15 s for two
// hours, a ship every 15 min that truncates the head to 30 min before it,
// the read 7 min after the last ship. inside_head reads the last 15 min,
// which the head holds whole and the last two blocks hold too;
// straddling_cut reads the last hour, the older half of it held by blocks
// alone. Baselines in BENCH_blocks.json.
func BenchmarkQuerierSeam(b *testing.B) {
	const (
		nodes  = 100
		scrape = 15_000
		ship   = 15 * 60_000
		now    = 2*3600_000 + 7*60_000
	)
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	store, err := NewStore("")
	if err != nil {
		b.Fatal(err)
	}
	sc := &Sidecar{DB: db, Store: store, HeadRetention: 2 * ship * time.Millisecond}
	series := make([]labels.Labels, nodes)
	for n := range series {
		series[n] = labels.FromStrings(labels.MetricName, "node_cpu_seconds_total", "instance", fmt.Sprintf("node-%03d", n))
	}
	for ts := int64(0); ts <= now; ts += scrape {
		for n, ls := range series {
			if err := db.Append(ls, ts, float64(ts/1000*int64(n+1))); err != nil {
				b.Fatal(err)
			}
		}
		if ts > 0 && ts%ship == 0 {
			if err := sc.Ship(time.UnixMilli(ts)); err != nil {
				b.Fatal(err)
			}
		}
	}
	q := &Querier{Hot: db, Cold: store}
	m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "node_cpu_seconds_total")
	for _, c := range []struct {
		name   string
		window int64
	}{
		{"inside_head", 15 * 60_000},
		{"straddling_cut", 3600_000},
	} {
		h := model.SelectHints{Start: now - c.window - 2*60_000, End: now, Step: scrape, Range: 2 * 60_000, Lookback: 5 * 60_000, Func: "rate"}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := q.SelectWithHints(h, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
