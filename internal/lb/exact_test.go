package lb_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/lb"
	"repro/internal/promapi"
	"repro/internal/promql"
	"repro/internal/querycache"
	"repro/internal/tsdb"
)

// countingTransport serves every proxied request in process with h and
// counts them.
type countingTransport struct {
	h http.Handler
	n atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.n.Add(1)
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

type ownsAll struct{}

func (ownsAll) Owns(context.Context, string, string) (bool, error) { return true, nil }
func (ownsAll) IsAdmin(context.Context, string) bool               { return false }

// TestLBRangeAnswersExact: behind the LB, a repeated range query reaches
// the backend, and the backend's result cache answers it exactly — a
// sample appended inside the window between the two requests is in the
// second answer, and the answer is byte for byte a cold evaluation's.
func TestLBRangeAnswersExact(t *testing.T) {
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	defer db.Close()
	up := labels.FromStrings(labels.MetricName, "up", "uuid", "a1")
	for i := int64(0); i <= 40; i++ {
		if err := db.Append(up, i*15000, float64(i%5)); err != nil {
			t.Fatal(err)
		}
	}
	eng := promql.NewEngine()
	now := func() time.Time { return time.UnixMilli(700_000) }
	backend := &countingTransport{h: (&promapi.Handler{
		Engine: eng, Query: db, Now: now,
		Cache: querycache.New(querycache.Options{
			MaxBytes: 1 << 20, Head: db, Lookback: eng.LookbackDelta, MaxSteps: eng.MaxSteps, Paranoid: true,
		}),
	}).Mux()}
	cold := (&promapi.Handler{Engine: eng, Query: db, Now: now}).Mux()
	b, err := lb.NewBackend("http://promapi.test")
	if err != nil {
		t.Fatal(err)
	}
	balancer := &lb.LB{Backends: []*lb.Backend{b}, Checker: ownsAll{}, Transport: backend}
	const path = `/api/v1/query_range?query=up{uuid="a1"}&start=100&end=700&step=15`
	serve := func(h http.Handler) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("X-Grafana-User", "alice")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", path, rec.Code, rec.Body)
		}
		return rec
	}

	if got := serve(balancer).Header().Get("X-Querycache"); got != "miss" {
		t.Fatalf("first X-Querycache = %q, want promapi's miss", got)
	}
	if err := db.Append(up, 625_000, 7); err != nil {
		t.Fatal(err)
	}
	rec := serve(balancer)
	if n := backend.n.Load(); n != 2 {
		t.Fatalf("backend saw %d of 2 identical range requests", n)
	}
	if got := rec.Header().Get("X-Querycache"); got != "splice" {
		t.Fatalf("repeat X-Querycache = %q, want promapi's splice", got)
	}
	if want := serve(cold).Body.String(); rec.Body.String() != want {
		t.Fatalf("repeat differs from a cold evaluation:\n got %s\nwant %s", rec.Body, want)
	}
	var resp struct {
		Data struct {
			Result []struct {
				Values [][2]any `json:"values"`
			} `json:"result"`
		} `json:"data"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if r := resp.Data.Result; len(r) != 1 || !hasSample(r[0].Values, 625, "7") {
		t.Fatalf("repeat lacks the sample appended at 625s: %s", rec.Body)
	}
}

func hasSample(values [][2]any, ts float64, v string) bool {
	for _, p := range values {
		if p[0] == ts && p[1] == v {
			return true
		}
	}
	return false
}
