package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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

// durablePublishes returns the two publishes writeFileDurably serves: a
// small block written as a directory (chunks, index and meta.json) and a
// checkpoint of a 2-shard journal, each on its own fixture under dir.
func durablePublishes(tb testing.TB, dir string) map[string]func() {
	tb.Helper()
	db, err := Open(Options{Shards: 2, WALDir: filepath.Join(dir, "wal")})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	for _, ls := range benchLabels(8) {
		for ts := int64(0); ts < 40; ts++ {
			if err := db.Append(ls, ts*15_000, float64(ts)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	pb, err := db.CutPersistentBlock("", -1<<60, 1<<60)
	if err != nil {
		tb.Fatal(err)
	}
	series := make([]diskSeries, len(pb.series))
	for pos := range series {
		series[pos].lset = pb.labelsOf(uint32(pos))
		for _, c := range pb.chunksOf(uint32(pos)) {
			ch, err := pb.decodeChunk(&c)
			if err != nil {
				tb.Fatal(err)
			}
			series[pos].chunks = append(series[pos].chunks, encodedChunk{diskChunk: c, payload: ch.Bytes()})
		}
	}
	blocks := filepath.Join(dir, "blocks")
	return map[string]func(){
		"block": func() {
			out, err := writeBlockDir(blocks, &BlockMeta{MinTime: 0, MaxTime: 39 * 15_000, Level: 1}, series)
			if err != nil {
				tb.Fatal(err)
			}
			os.RemoveAll(out)
		},
		"checkpoint": func() {
			if err := db.CheckpointWAL(); err != nil {
				tb.Fatal(err)
			}
		},
	}
}

// BenchmarkDurablePublish measures what a small block directory write and a
// 2-shard journal checkpoint allocate: their files' buffered writers are
// pooled, so neither allocates a 256 KB buffer per file.
func BenchmarkDurablePublish(b *testing.B) {
	for name, publish := range durablePublishes(b, b.TempDir()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				publish()
			}
		})
	}
}

// TestDurablePublishReusesBuffers: a block directory write (three files) and
// a 2-shard checkpoint (two) each allocate less than one 256 KB write buffer
// on average, where each file took one of its own.
func TestDurablePublishReusesBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop what is put in it")
	}
	for name, publish := range durablePublishes(t, t.TempDir()) {
		publish() // the pool's first writers
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			publish()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 256<<10 {
			t.Errorf("%s: a publish allocates %d bytes, at least one write buffer", name, per)
		}
	}
}
