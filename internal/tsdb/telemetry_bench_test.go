package tsdb

import (
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

// BenchmarkTelemetryAppendOverhead proves the instrumentation budget on the
// hottest path: the same WAL-v2 commit workload as BenchmarkWALAppend, bare
// versus with a telemetry registry attached. The bare/instrumented ns/op
// delta is the whole cost of self-telemetry per appended sample — the
// commit-latency histogram observe, the WAL flush timing, and the
// nil-checks — and the gate is that it stays within a few percent (and
// zero extra allocations).
func BenchmarkTelemetryAppendOverhead(b *testing.B) {
	for _, mode := range []string{"bare", "instrumented"} {
		b.Run(mode, func(b *testing.B) {
			opts := Options{Shards: 8, WALDir: filepath.Join(b.TempDir(), "wal")}
			if mode == "instrumented" {
				opts.Telemetry = telemetry.NewRegistry()
			}
			db, err := Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			lsets := benchLabels(100)
			b.ReportAllocs()
			b.ResetTimer()
			i := 0
			for i < b.N {
				app := db.Appender()
				t := int64(i) * 1000
				for s := 0; s < len(lsets) && i < b.N; s++ {
					app.Add(lsets[s], t, float64(i))
					i++
				}
				if _, err := app.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if mode == "instrumented" {
				// The registry must have seen every commit, or the benchmark
				// is measuring an unwired head.
				if n := db.metrics.commitSeconds.Count(); n == 0 {
					b.Fatal("instrumented head recorded no commit observations")
				}
			}
		})
	}
}
