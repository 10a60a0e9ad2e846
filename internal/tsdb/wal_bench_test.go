package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/labels"
)

// benchLabels pre-builds the scrape-shaped label sets so the benchmarks
// measure the WAL, not FromStrings.
func benchLabels(n int) []labels.Labels {
	out := make([]labels.Labels, n)
	for i := range out {
		out[i] = labels.FromStrings(labels.MetricName, "wal_bench_metric",
			"node", fmt.Sprintf("n%04d", i), "cluster", "bench")
	}
	return out
}

// BenchmarkWALAppend measures the scrape commit path against a WAL-backed
// head: batches of 100 samples through the batch Appender, one journal
// flush per shard per commit. wal-v2 journals the Gorilla-compressed format
// (the walbytes/sample metric is the journal footprint per appended sample
// — the compression headline). The memonly variant is the same workload
// without a WAL; the ns/op delta against it is the durability cost per
// sample.
func BenchmarkWALAppend(b *testing.B) {
	for _, mode := range []string{"wal-v2", "memonly"} {
		b.Run(mode, func(b *testing.B) {
			opts := Options{Shards: 8}
			var walDir string
			if mode != "memonly" {
				walDir = filepath.Join(b.TempDir(), "wal")
				opts.WALDir = walDir
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
			if walDir != "" {
				// Every commit flushed its buffered write, so the on-disk
				// footprint is exact without closing the head.
				b.ReportMetric(float64(walDirJournalBytes(b, walDir))/float64(b.N), "walbytes/sample")
			}
		})
	}
}

// BenchmarkWALReplay measures parallel crash recovery: a fixed 16-shard WAL
// (200 series x 250 scrapes = 50k samples) is replayed into a fresh head per
// iteration.
func BenchmarkWALReplay(b *testing.B) {
	for _, mode := range []string{"v2"} {
		b.Run(mode, func(b *testing.B) {
			walDir := filepath.Join(b.TempDir(), "wal")
			const nSeries, nScrapes = 200, 250
			opts := Options{Shards: 16, WALDir: walDir}
			db, err := Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			lsets := benchLabels(nSeries)
			for i := 0; i < nScrapes; i++ {
				app := db.Appender()
				for s := 0; s < nSeries; s++ {
					app.Add(lsets[s], int64(i)*15000, float64(i))
				}
				if _, err := app.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				re, err := Open(opts)
				if err != nil {
					b.Fatal(err)
				}
				ws, _ := re.WALStats()
				if ws.Replay.Samples != nSeries*nScrapes {
					b.Fatalf("replay recovered %d samples, want %d", ws.Replay.Samples, nSeries*nScrapes)
				}
				b.StopTimer()
				if err := re.Close(); err != nil {
					b.Fatal(err)
				}
				// Closing opened a fresh header-only segment per shard; drop
				// those so the next iteration replays the identical byte
				// stream.
				segs, _ := filepath.Glob(filepath.Join(walDir, "shard-*", "*.wal"))
				for _, s := range segs {
					if st, err := os.Stat(s); err == nil && st.Size() <= int64(walFileHeaderLen) {
						os.Remove(s)
					}
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(nSeries*nScrapes)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}
