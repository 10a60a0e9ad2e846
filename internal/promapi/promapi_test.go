package promapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/lb"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/tsdb"
)

func testHandler(t testing.TB) *Handler {
	t.Helper()
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	ls := labels.FromStrings(labels.MetricName, "up", "instance", "n1")
	for i := int64(0); i <= 40; i++ {
		if err := db.Append(ls, i*15000, 1); err != nil {
			t.Fatal(err)
		}
	}
	counter := labels.FromStrings(labels.MetricName, "reqs_total", "instance", "n1")
	for i := int64(0); i <= 40; i++ {
		db.Append(counter, i*15000, float64(i)*150)
	}
	return &Handler{Query: db, Now: func() time.Time { return time.UnixMilli(600_000) }}
}

func get(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, apiResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp apiResponse
	json.Unmarshal(rec.Body.Bytes(), &resp)
	return rec, resp
}

func TestInstantQuery(t *testing.T) {
	h := testHandler(t).Mux()
	rec, resp := get(t, h, "/api/v1/query?query=up")
	if rec.Code != 200 || resp.Status != "success" {
		t.Fatalf("status = %d, %s", rec.Code, resp.Error)
	}
	if resp.Data.ResultType != "vector" {
		t.Errorf("resultType = %s", resp.Data.ResultType)
	}
	result := resp.Data.Result.([]any)
	if len(result) != 1 {
		t.Fatalf("result = %v", result)
	}
	entry := result[0].(map[string]any)
	metric := entry["metric"].(map[string]any)
	if metric["instance"] != "n1" || metric["__name__"] != "up" {
		t.Errorf("metric = %v", metric)
	}
	val := entry["value"].([]any)
	if val[1] != "1" {
		t.Errorf("value = %v", val)
	}
}

func TestInstantQueryWithExplicitTime(t *testing.T) {
	h := testHandler(t).Mux()
	_, resp := get(t, h, "/api/v1/query?query=reqs_total&time=300")
	result := resp.Data.Result.([]any)
	val := result[0].(map[string]any)["value"].([]any)
	if val[1] != "3000" { // i=20 → 3000
		t.Errorf("value at t=300 = %v", val)
	}
}

func TestScalarQuery(t *testing.T) {
	h := testHandler(t).Mux()
	_, resp := get(t, h, "/api/v1/query?query=1%2B2")
	if resp.Data.ResultType != "scalar" {
		t.Fatalf("resultType = %s", resp.Data.ResultType)
	}
	val := resp.Data.Result.([]any)
	if val[1] != "3" {
		t.Errorf("scalar = %v", val)
	}
}

func TestQueryRange(t *testing.T) {
	h := testHandler(t).Mux()
	rec, resp := get(t, h, "/api/v1/query_range?query=up&start=0&end=600&step=60")
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, resp.Error)
	}
	if resp.Data.ResultType != "matrix" {
		t.Errorf("resultType = %s", resp.Data.ResultType)
	}
	series := resp.Data.Result.([]any)
	if len(series) != 1 {
		t.Fatalf("series = %d", len(series))
	}
	values := series[0].(map[string]any)["values"].([]any)
	if len(values) != 11 {
		t.Errorf("steps = %d, want 11", len(values))
	}
}

func TestErrors(t *testing.T) {
	h := testHandler(t).Mux()
	cases := []struct {
		path string
		code int
	}{
		{"/api/v1/query", 400},
		{"/api/v1/query?query=sum(", 422},
		{"/api/v1/query?query=up&time=bogus", 400},
		{"/api/v1/query_range?query=up", 400},
		{"/api/v1/query_range?query=up&start=0&end=600&step=bogus", 400},
		{"/api/v1/query_range?query=up&start=0&end=600", 400},
	}
	for _, c := range cases {
		rec, resp := get(t, h, c.path)
		if rec.Code != c.code {
			t.Errorf("%s = %d, want %d (%s)", c.path, rec.Code, c.code, resp.Error)
		}
		if resp.Status != "error" {
			t.Errorf("%s: status = %q", c.path, resp.Status)
		}
	}
}

func TestHealthy(t *testing.T) {
	h := testHandler(t).Mux()
	rec, _ := get(t, h, "/-/healthy")
	if rec.Code != 200 {
		t.Errorf("healthy = %d", rec.Code)
	}
}

func TestParseHelpers(t *testing.T) {
	if _, err := parseTime("2026-01-01T00:00:00Z"); err != nil {
		t.Errorf("RFC3339 time rejected: %v", err)
	}
	if _, err := parseTime(""); err == nil {
		t.Error("empty time accepted")
	}
	if d, err := parseStep("1m"); err != nil || d != time.Minute {
		t.Errorf("duration step = %v, %v", d, err)
	}
	if d, err := parseStep("30"); err != nil || d != 30*time.Second {
		t.Errorf("numeric step = %v, %v", d, err)
	}
}

func TestLabelsEndpoints(t *testing.T) {
	h := testHandler(t).Mux()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/labels", nil))
	var resp struct {
		Status string   `json:"status"`
		Data   []string `json:"data"`
	}
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if rec.Code != 200 || resp.Status != "success" {
		t.Fatalf("labels = %d %q", rec.Code, resp.Status)
	}
	want := []string{labels.MetricName, "instance"}
	if len(resp.Data) != 2 || resp.Data[0] != want[0] || resp.Data[1] != want[1] {
		t.Errorf("labels = %v, want %v", resp.Data, want)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/label/__name__/values", nil))
	resp.Data = nil
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if rec.Code != 200 || len(resp.Data) != 2 {
		t.Fatalf("label values = %d %v", rec.Code, resp.Data)
	}
	if resp.Data[0] != "reqs_total" || resp.Data[1] != "up" {
		t.Errorf("values = %v", resp.Data)
	}

	// Absent label yields an empty (non-null) list.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/label/nope/values", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"data":[]`) {
		t.Errorf("absent label = %d %s", rec.Code, rec.Body.String())
	}

	// Malformed values path.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/label/x/nope", nil))
	if rec.Code != 404 {
		t.Errorf("malformed path = %d", rec.Code)
	}
}

// queryableOnly hides tsdb.DB's label methods to exercise the fallback.
type queryableOnly struct{ q promql.Queryable }

func (q queryableOnly) SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	return q.q.SelectWithHints(hints, ms...)
}

func TestLabelsUnsupportedBackend(t *testing.T) {
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	h := (&Handler{Query: queryableOnly{db}}).Mux()
	for _, path := range []string{"/api/v1/labels", "/api/v1/label/x/values"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != 404 {
			t.Errorf("%s = %d, want 404", path, rec.Code)
		}
	}
}

// fallibleStore is an lb.SeriesBackend whose reads return an error, the
// shape of the ring's scatter-gather reader.
type fallibleStore struct {
	err error
}

var _ lb.SeriesBackend = fallibleStore{}

func (s fallibleStore) LabelNames() ([]string, error) { return []string{"a", "b"}, s.err }

func (s fallibleStore) LabelValues(name string) ([]string, error) {
	return []string{name + "-1"}, s.err
}

func (s fallibleStore) SelectWithHints(model.SelectHints, ...*labels.Matcher) ([]model.Series, error) {
	return nil, s.err
}

// TestLabelsFallibleBackend: a store whose label methods can fail serves the
// metadata endpoints too (they used to answer 404 for it), and its errors
// surface like a failed query's — 503 when the store is short of its read
// quorum, on the query endpoints as well.
func TestLabelsFallibleBackend(t *testing.T) {
	h := (&Handler{Query: fallibleStore{}}).Mux()
	for path, want := range map[string]string{
		"/api/v1/labels":         `"data":["a","b"]`,
		"/api/v1/label/x/values": `"data":["x-1"]`,
	} {
		rec, resp := get(t, h, path)
		if rec.Code != 200 || resp.Status != "success" || !strings.Contains(rec.Body.String(), want) {
			t.Errorf("%s = %d %s, want 200 with %s", path, rec.Code, rec.Body.String(), want)
		}
	}
	for err, code := range map[error]int{
		&lb.ErrQuorumUnavailable{Group: []string{"n1", "n2"}, Need: 2, Got: 1}:              503,
		fmt.Errorf("scatter: %w", &lb.ErrQuorumUnavailable{Group: []string{"n1"}, Need: 1}): 503,
		errors.New("disk on fire"): 422,
	} {
		h := (&Handler{Query: fallibleStore{err: err}}).Mux()
		for _, path := range []string{"/api/v1/labels", "/api/v1/label/x/values", "/api/v1/query?query=up"} {
			rec, resp := get(t, h, path)
			if rec.Code != code || resp.Status != "error" || !strings.Contains(resp.Error, err.Error()) {
				t.Errorf("%s with %v = %d %s, want %d carrying the error", path, err, rec.Code, rec.Body.String(), code)
			}
		}
	}
}
