package remotewrite

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/expofmt"
	"repro/internal/labels"
	"repro/internal/scrape"
	"repro/internal/tsdb"
)

// benchFamilies builds one batch: nSeries series, one sample each, stamped
// at base.
func benchFamilies(nSeries int, base int64) []*expofmt.Family {
	fam := &expofmt.Family{Name: "bench_ingest", Type: expofmt.TypeGauge}
	for s := 0; s < nSeries; s++ {
		fam.Metrics = append(fam.Metrics, expofmt.Metric{
			Labels: labels.FromStrings(
				labels.MetricName, "bench_ingest",
				"instance", fmt.Sprintf("node%02d", s%16),
				"idx", fmt.Sprintf("%04d", s)),
			Value: float64(base), TS: base,
		})
	}
	return []*expofmt.Family{fam}
}

// BenchmarkIngestPath compares sustained samples/s of the two ingest paths
// over the same head: the framed remote-write receiver (decode + commit per
// frame through ServeHTTP) vs the scrape loop shape (parse exposition text
// + batch commit). Client-side costs (framing, rendering) run outside the
// timer — the measurement is the server-side ingest path.
func BenchmarkIngestPath(b *testing.B) {
	const nSeries = 1000

	b.Run("remote-write", func(b *testing.B) {
		db := tsdb.MustOpen(tsdb.Options{OutOfOrderWindow: 60_000})
		defer db.Close()
		rcv := &Receiver{NewBatch: func() scrape.Batch { return db.Appender() }}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			var buf bytes.Buffer
			enc := NewEncoder(&buf, false)
			if err := enc.WriteBatch(benchFamilies(nSeries, int64(1000*(i+1)))); err != nil {
				b.Fatal(err)
			}
			req := httptest.NewRequest(http.MethodPost, "/api/v1/write", bytes.NewReader(buf.Bytes()))
			w := httptest.NewRecorder()
			b.StartTimer()
			rcv.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("push: %d %s", w.Code, w.Body)
			}
		}
		b.ReportMetric(float64(nSeries*b.N)/b.Elapsed().Seconds(), "samples/s")
	})

	// Four agents, each pushing its own quarter of the series in its own
	// request, in turn: the receiver's cache must keep every agent's
	// entries from one push to its next.
	b.Run("remote-write_4_agents", func(b *testing.B) {
		const agents = 4
		db := tsdb.MustOpen(tsdb.Options{OutOfOrderWindow: 60_000})
		defer db.Close()
		rcv := &Receiver{NewBatch: func() scrape.Batch { return db.Appender() }}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fams := benchFamilies(nSeries, int64(1000*(i/agents+1)))
			fam := *fams[0]
			part := nSeries / agents
			fam.Metrics = fam.Metrics[i%agents*part : (i%agents+1)*part]
			var buf bytes.Buffer
			if err := NewEncoder(&buf, false).WriteBatch([]*expofmt.Family{&fam}); err != nil {
				b.Fatal(err)
			}
			req := httptest.NewRequest(http.MethodPost, "/api/v1/write", bytes.NewReader(buf.Bytes()))
			w := httptest.NewRecorder()
			b.StartTimer()
			rcv.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("push: %d %s", w.Code, w.Body)
			}
		}
		b.ReportMetric(float64(nSeries/agents*b.N)/b.Elapsed().Seconds(), "samples/s")
	})

	b.Run("scrape", func(b *testing.B) {
		db := tsdb.MustOpen(tsdb.Options{OutOfOrderWindow: 60_000})
		defer db.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			var buf bytes.Buffer
			ew := expofmt.NewWriter(&buf)
			for _, f := range benchFamilies(nSeries, int64(1000*(i+1))) {
				if err := ew.WriteFamily(f); err != nil {
					b.Fatal(err)
				}
			}
			if err := ew.Flush(); err != nil {
				b.Fatal(err)
			}
			body := buf.Bytes()
			b.StartTimer()
			fams, err := expofmt.Parse(bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			batch := db.Appender()
			for _, f := range fams {
				for _, m := range f.Metrics {
					batch.Add(m.Labels, m.TS, m.Value)
				}
			}
			if _, err := batch.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(nSeries*b.N)/b.Elapsed().Seconds(), "samples/s")
	})
}
