package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/expofmt"
	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/remotewrite"
	"repro/internal/scrape"
	"repro/internal/tsdb"
)

// TestRemoteWriteRingIngest pushes a framed remote-write stream through the
// HTTP receiver into the replicated ring: every frame commits with W-quorum
// acks, the samples are quorum-readable, and a full resend of the stream is
// idempotent thanks to the members' out-of-order windows.
func TestRemoteWriteRingIngest(t *testing.T) {
	const window = int64(300_000)
	dir := t.TempDir()
	open := func(name string) (*tsdb.DB, error) {
		opts := tsdb.DefaultOptions()
		opts.WALDir = filepath.Join(dir, "wal", name)
		opts.OutOfOrderWindow = window
		return tsdb.Open(opts)
	}
	ring, err := NewRingDB(3, 2, 0, open, names(5)...)
	if err != nil {
		t.Fatalf("NewRingDB: %v", err)
	}
	defer ring.Close()
	if got := ring.OutOfOrderWindow(); got != window {
		t.Fatalf("ring window = %d, want %d", got, window)
	}

	rcv := &remotewrite.Receiver{NewBatch: func() scrape.Batch { return ring.NewBatch() }}

	fam := &expofmt.Family{Name: "ring_pushed", Type: expofmt.TypeGauge}
	const nSeries, nTicks = 12, 8
	for s := 0; s < nSeries; s++ {
		for tick := 0; tick < nTicks; tick++ {
			fam.Metrics = append(fam.Metrics, expofmt.Metric{
				Labels: labels.FromStrings(
					labels.MetricName, "ring_pushed",
					"idx", fmt.Sprintf("%03d", s)),
				Value: float64(tick), TS: int64(1000 * (tick + 1)),
			})
		}
	}
	var buf bytes.Buffer
	if err := remotewrite.NewEncoder(&buf, true).WriteBatch([]*expofmt.Family{fam}); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()

	push := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		rcv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/write", bytes.NewReader(body)))
		return w
	}
	if w := push(); w.Code != http.StatusOK {
		t.Fatalf("ring push: %d %s", w.Code, w.Body)
	}

	readAll := func() []model.Series {
		series, err := ring.SelectWithHints(
			model.SelectHints{Start: 0, End: 1 << 60},
			labels.MustMatcher(labels.MatchEqual, labels.MetricName, "ring_pushed"))
		if err != nil {
			t.Fatalf("quorum read: %v", err)
		}
		return series
	}
	first := readAll()
	if len(first) != nSeries {
		t.Fatalf("quorum read found %d series, want %d", len(first), nSeries)
	}
	for _, s := range first {
		if len(s.Samples) != nTicks {
			t.Fatalf("series %s has %d samples, want %d", s.Labels, len(s.Samples), nTicks)
		}
	}

	// The agent times out and resends the whole stream: the ring must ACK
	// it (it IS durable) without duplicating anything.
	if w := push(); w.Code != http.StatusOK {
		t.Fatalf("ring resend: %d %s", w.Code, w.Body)
	}
	second := readAll()
	if len(second) != nSeries {
		t.Fatalf("post-resend read found %d series, want %d", len(second), nSeries)
	}
	for i, s := range second {
		if len(s.Samples) != len(first[i].Samples) {
			t.Fatalf("resend changed series %s: %d -> %d samples",
				s.Labels, len(first[i].Samples), len(s.Samples))
		}
		for j := range s.Samples {
			if s.Samples[j] != first[i].Samples[j] {
				t.Fatalf("resend altered sample %d of %s", j, s.Labels)
			}
		}
	}

	// A push with one replica down still reaches W-quorum and lands.
	if err := ring.Kill(ring.MemberNames()[0]); err != nil {
		t.Fatal(err)
	}
	fam2 := &expofmt.Family{Name: "ring_pushed", Type: expofmt.TypeGauge,
		Metrics: []expofmt.Metric{{
			Labels: labels.FromStrings(labels.MetricName, "ring_pushed", "idx", "000"),
			Value:  42, TS: int64(1000 * (nTicks + 1)),
		}}}
	buf.Reset()
	if err := remotewrite.NewEncoder(&buf, false).WriteBatch([]*expofmt.Family{fam2}); err != nil {
		t.Fatal(err)
	}
	body = buf.Bytes()
	if w := push(); w.Code != http.StatusOK {
		t.Fatalf("degraded push: %d %s", w.Code, w.Body)
	}
	for _, s := range readAll() {
		if s.Labels.Get("idx") == "000" && len(s.Samples) != nTicks+1 {
			t.Fatalf("degraded push did not land: %d samples", len(s.Samples))
		}
	}
}
