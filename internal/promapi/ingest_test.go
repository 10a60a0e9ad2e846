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
	"repro/internal/model"
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
	enc := remotewrite.NewEncoder(&buf, true)
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

// TestRemoteReadBackendErrorStatus is the proxy-502 regression: a non-JSON
// error body must surface as the status code plus a snippet, never as a
// bare JSON decode error.
func TestRemoteReadBackendErrorStatus(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.WriteHeader(http.StatusBadGateway)
		w.Write([]byte("<html><body><h1>502 Bad Gateway</h1></body></html>"))
	}))
	defer backend.Close()

	rq := &RemoteQueryable{BaseURL: backend.URL}
	_, err := rq.SelectWithHints(model.SelectHints{Start: 0, End: 1000}, labels.MustMatcher(labels.MatchEqual, "a", "b"))
	if err == nil {
		t.Fatal("Select against a 502 backend succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "502") {
		t.Fatalf("error does not carry the status: %v", err)
	}
	if !strings.Contains(msg, "Bad Gateway") {
		t.Fatalf("error does not carry a body snippet: %v", err)
	}
	if strings.Contains(msg, "invalid character") {
		t.Fatalf("error leaked a JSON decode failure: %v", err)
	}
}

// TestRemoteReadBodyCap: a response past MaxBodyBytes fails instead of
// buffering without bound.
func TestRemoteReadBodyCap(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"series":[{"labels":{"__name__":"big"},"samples":[`))
		for i := 0; i < 1000; i++ {
			if i > 0 {
				w.Write([]byte(","))
			}
			w.Write([]byte(`[1000,1.5]`))
		}
		w.Write([]byte(`]}]}`))
	}))
	defer backend.Close()

	rq := &RemoteQueryable{BaseURL: backend.URL, MaxBodyBytes: 256}
	_, err := rq.SelectWithHints(model.SelectHints{Start: 0, End: 1000}, labels.MustMatcher(labels.MatchEqual, "a", "b"))
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("over-cap response: got %v, want body-cap error", err)
	}
	// The same response under the default cap parses fine.
	rq.MaxBodyBytes = 0
	series, err := rq.SelectWithHints(model.SelectHints{Start: 0, End: 1000}, labels.MustMatcher(labels.MatchEqual, "a", "b"))
	if err != nil || len(series) != 1 || len(series[0].Samples) != 1000 {
		t.Fatalf("uncapped read: %v (series %d)", err, len(series))
	}
}

// TestRemoteReadSampleLimit: a hint-aware store enforces the engine's
// MaxSamples budget on remote reads, and the handler maps the violation to
// 422.
func TestRemoteReadSampleLimit(t *testing.T) {
	h := testHandler(t) // reqs_total + up: 41 samples each
	eng := h.engine()
	eng.MaxSamples = 10
	h.Engine = eng

	body, _ := json.Marshal(readRequest{
		MinTime: 0, MaxTime: 1 << 60,
		Matchers: []readMatcher{{Type: "=", Name: labels.MetricName, Value: "reqs_total"}},
	})
	rec := httptest.NewRecorder()
	h.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/read", bytes.NewReader(body)))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("over-budget read: %d %s, want 422", rec.Code, rec.Body)
	}
	var resp readResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Error, "sample limit") {
		t.Fatalf("422 error = %q", resp.Error)
	}

	// Within budget the same read succeeds.
	eng.MaxSamples = 1 << 20
	rec = httptest.NewRecorder()
	h.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/read", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("in-budget read: %d %s", rec.Code, rec.Body)
	}
}

// brokenWriter fails every Write after the first n bytes, standing in for a
// client that hung up mid-response.
type brokenWriter struct {
	hdr     http.Header
	n       int
	written int
}

func (b *brokenWriter) Header() http.Header { return b.hdr }
func (b *brokenWriter) WriteHeader(int)     {}
func (b *brokenWriter) Write(p []byte) (int, error) {
	if b.written+len(p) > b.n {
		return 0, errFakeConnReset
	}
	b.written += len(p)
	return len(p), nil
}

var errFakeConnReset = &net_OpError{}

type net_OpError struct{}

func (*net_OpError) Error() string { return "connection reset by test" }

// TestRemoteReadEncodeErrorLogged: a mid-stream write failure must be
// logged through Logf and abort the response, not be swallowed.
func TestRemoteReadEncodeErrorLogged(t *testing.T) {
	h := testHandler(t)
	var logged []string
	h.Logf = func(format string, args ...any) {
		logged = append(logged, strings.TrimSpace(format))
	}
	body, _ := json.Marshal(readRequest{
		MinTime: 0, MaxTime: 1 << 60,
		Matchers: []readMatcher{{Type: "=~", Name: labels.MetricName, Value: ".+"}},
	})
	req := httptest.NewRequest(http.MethodPost, "/api/v1/read", bytes.NewReader(body))
	w := &brokenWriter{hdr: http.Header{}, n: 32}
	h.handleRead(w, req)
	if len(logged) == 0 {
		t.Fatal("mid-stream write failure was not logged")
	}
	if !strings.Contains(logged[0], "remote read") {
		t.Fatalf("log line %q does not identify the remote-read path", logged[0])
	}
}
