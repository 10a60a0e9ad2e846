package promapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/expofmt"
	"repro/internal/labels"
	"repro/internal/remotewrite"
	"repro/internal/scrape"
	"repro/internal/tsdb"
)

func ingestBody(t *testing.T) []byte {
	t.Helper()
	fam := &expofmt.Family{Name: "pushed_metric", Type: expofmt.TypeGauge}
	for i := 0; i < 6; i++ {
		fam.Metrics = append(fam.Metrics, expofmt.Metric{
			Labels: labels.FromStrings(labels.MetricName, "pushed_metric", "instance", "agent1"),
			Value:  float64(i), TS: int64(1000 * (i + 1)),
		})
	}
	var buf bytes.Buffer
	enc := remotewrite.NewEncoder(&buf, false)
	if err := enc.WriteBatch([]*expofmt.Family{fam}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRemoteWriteViaMux wires the receiver into the API mux the way the
// sims do and pushes a stream through POST /api/v1/write; the samples must
// be queryable afterwards.
func TestRemoteWriteViaMux(t *testing.T) {
	db := tsdb.MustOpen(tsdb.Options{OutOfOrderWindow: 60_000})
	h := &Handler{
		Query:  db,
		Ingest: &remotewrite.Receiver{NewBatch: func() scrape.Batch { return db.Appender() }},
	}
	mux := h.Mux()

	req := httptest.NewRequest(http.MethodPost, "/api/v1/write", bytes.NewReader(ingestBody(t)))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("push: %d %s", rec.Code, rec.Body)
	}

	m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "pushed_metric")
	series, err := db.Select(0, 1<<60, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || len(series[0].Samples) != 6 {
		t.Fatalf("pushed series not queryable: %+v", series)
	}
}

// TestRemoteWriteMuxDisabled: without a receiver the write endpoint does
// not exist.
func TestRemoteWriteMuxDisabled(t *testing.T) {
	h := testHandler(t)
	req := httptest.NewRequest(http.MethodPost, "/api/v1/write", strings.NewReader("x"))
	rec := httptest.NewRecorder()
	h.Mux().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("write with ingest off: %d, want 404", rec.Code)
	}
}

// TestIngestStatusEndpoint checks both shapes of /api/v1/status/ingest.
func TestIngestStatusEndpoint(t *testing.T) {
	type status struct {
		Enabled bool                     `json:"enabled"`
		Stats   *remotewrite.IngestStats `json:"stats"`
	}
	// The endpoint answers in the Prometheus envelope with
	// resultType "ingest"; unwrap to the status payload.
	decode := func(t *testing.T, body []byte) status {
		t.Helper()
		var env struct {
			Status string `json:"status"`
			Data   struct {
				ResultType string `json:"resultType"`
				Result     status `json:"result"`
			} `json:"data"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("envelope: %v in %s", err, body)
		}
		if env.Status != "success" || env.Data.ResultType != "ingest" {
			t.Fatalf("envelope = %s", body)
		}
		return env.Data.Result
	}

	// Disabled: enabled=false, no stats.
	rec := httptest.NewRecorder()
	testHandler(t).Mux().ServeHTTP(rec,
		httptest.NewRequest(http.MethodGet, "/api/v1/status/ingest", nil))
	off := decode(t, rec.Body.Bytes())
	if off.Enabled || off.Stats != nil {
		t.Fatalf("disabled status = %+v", off)
	}

	// Enabled: counters reflect traffic.
	db := tsdb.MustOpen(tsdb.Options{})
	h := &Handler{
		Query:  db,
		Ingest: &remotewrite.Receiver{NewBatch: func() scrape.Batch { return db.Appender() }},
	}
	mux := h.Mux()
	push := httptest.NewRecorder()
	mux.ServeHTTP(push, httptest.NewRequest(http.MethodPost, "/api/v1/write", bytes.NewReader(ingestBody(t))))
	if push.Code != http.StatusOK {
		t.Fatalf("push: %d %s", push.Code, push.Body)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/status/ingest", nil))
	on := decode(t, rec.Body.Bytes())
	if !on.Enabled || on.Stats == nil {
		t.Fatalf("enabled status = %s", rec.Body)
	}
	if on.Stats.Requests != 1 || on.Stats.Frames != 1 || on.Stats.SamplesAppended != 6 {
		t.Fatalf("stats = %+v", on.Stats)
	}
}
