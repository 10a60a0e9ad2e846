package promapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/promql"
	"repro/internal/querycache"
	"repro/internal/tsdb"
)

// cachedHandler builds a handler pair over one head: h serves through the
// cache (paranoid, so every splice self-verifies), plain serves cold.
func cachedHandler(t *testing.T) (h, plain *Handler, db *tsdb.DB) {
	t.Helper()
	db = tsdb.MustOpen(tsdb.DefaultOptions())
	ls := labels.FromStrings(labels.MetricName, "up", "instance", "n1")
	for i := int64(0); i <= 40; i++ {
		if err := db.Append(ls, i*15000, float64(i%5)); err != nil {
			t.Fatal(err)
		}
	}
	eng := promql.NewEngine()
	now := func() time.Time { return time.UnixMilli(600_000) }
	cache := querycache.New(querycache.Options{
		MaxBytes: 1 << 20, Head: db, Lookback: eng.LookbackDelta, Paranoid: true,
	})
	h = &Handler{Engine: eng, Query: db, Now: now, Cache: cache}
	plain = &Handler{Engine: eng, Query: db, Now: now}
	return h, plain, db
}

func TestRangeQueryThroughCache(t *testing.T) {
	h, plain, db := cachedHandler(t)
	mux, plainMux := h.Mux(), plain.Mux()
	const path = "/api/v1/query_range?query=up&start=100&end=600&step=15"

	rec1, resp1 := get(t, mux, path)
	if rec1.Code != 200 || resp1.Status != "success" {
		t.Fatalf("first = %d %s", rec1.Code, resp1.Error)
	}
	if got := rec1.Header().Get("X-Querycache"); got != "miss" {
		t.Fatalf("first X-Querycache = %q", got)
	}
	rec2, _ := get(t, mux, path)
	if got := rec2.Header().Get("X-Querycache"); got != "hit" {
		t.Fatalf("repeat X-Querycache = %q", got)
	}
	recCold, _ := get(t, plainMux, path)
	if rec2.Body.String() != recCold.Body.String() {
		t.Fatalf("cached response differs from cold:\n%s\n%s", rec2.Body, recCold.Body)
	}

	// The head advances; the slid window splices and still matches cold.
	for i := int64(41); i <= 45; i++ {
		db.Append(labels.FromStrings(labels.MetricName, "up", "instance", "n1"), i*15000, float64(i%5))
	}
	const slid = "/api/v1/query_range?query=up&start=175&end=675&step=15"
	rec3, _ := get(t, mux, slid)
	if got := rec3.Header().Get("X-Querycache"); got != "splice" {
		t.Fatalf("slid window X-Querycache = %q, want splice", got)
	}
	recCold3, _ := get(t, plainMux, slid)
	if rec3.Body.String() != recCold3.Body.String() {
		t.Fatalf("spliced response differs from cold:\n%s\n%s", rec3.Body, recCold3.Body)
	}
}

// TestInstantQueryThroughCache: instant queries bypass the result cache
// entirely — a repeat evaluates again, answers with the uncached handler's
// bytes, carries no X-Querycache header and leaves the cache untouched.
func TestInstantQueryThroughCache(t *testing.T) {
	h, plain, _ := cachedHandler(t)
	mux, plainMux := h.Mux(), plain.Mux()
	const path = "/api/v1/query?query=sum(up)&time=300"

	before := h.Cache.Stats()
	recCold, _ := get(t, plainMux, path)
	for i := 0; i < 2; i++ {
		rec, resp := get(t, mux, path)
		if rec.Code != 200 || resp.Status != "success" {
			t.Fatalf("request %d = %d %s", i, rec.Code, resp.Error)
		}
		if got, ok := rec.Header()["X-Querycache"]; ok {
			t.Fatalf("request %d: X-Querycache = %q, want no header", i, got)
		}
		if rec.Body.String() != recCold.Body.String() {
			t.Fatalf("request %d: cached handler's instant response differs from uncached:\n%s\n%s", i, rec.Body, recCold.Body)
		}
	}
	after := h.Cache.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses || after.Splices != before.Splices || after.Entries != before.Entries {
		t.Fatalf("instant queries touched the cache: before %+v, after %+v", before, after)
	}
}

func TestQuerycacheStatusEndpoint(t *testing.T) {
	h, plain, _ := cachedHandler(t)
	mux := h.Mux()
	get(t, mux, "/api/v1/query_range?query=up&start=100&end=600&step=15")
	get(t, mux, "/api/v1/query_range?query=up&start=100&end=600&step=15")

	rec, resp := get(t, mux, "/api/v1/status/querycache")
	if rec.Code != 200 || resp.Status != "success" {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{`"enabled":true`, `"hits":1`, `"misses":1`} {
		if !strings.Contains(body, want) {
			t.Fatalf("status body missing %q: %s", want, body)
		}
	}
	// Without a cache the endpoint reports disabled rather than 404ing.
	rec2, _ := get(t, plain.Mux(), "/api/v1/status/querycache")
	if rec2.Code != 200 || !strings.Contains(rec2.Body.String(), `"enabled":false`) {
		t.Fatalf("uncached status = %d %s", rec2.Code, rec2.Body)
	}
}

// BenchmarkRangeRefresh is one dashboard refresh per op through the cached
// handler's Mux: a 42-series × 61-step `sum by (instance)` panel whose
// window slid one step, so the cache splices — one step evaluated, sixty
// reused — and the body is written, JSON rendering included. The window
// alternates between two ends one step apart, so any b.N runs against fixed
// data and every op after the first two is a splice of a spliced entry.
func BenchmarkRangeRefresh(b *testing.B) {
	const nodes = 42
	mux, lastS := cpuMux(b, nodes)
	var reqs [2]*http.Request
	for k := range reqs {
		end := lastS - int64(1-k)*15
		reqs[k] = httptest.NewRequest(http.MethodGet, fmt.Sprintf(
			"/api/v1/query_range?query=%s&start=%d&end=%d&step=15",
			url.QueryEscape(`sum by (instance) (rate(ceems_cpu_seconds_total[2m]))`), end-60*15, end), nil)
	}
	for k, want := range []string{"miss", "splice"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, reqs[k])
		var resp struct {
			Data struct {
				Result []struct {
					Values [][2]any `json:"values"`
				} `json:"result"`
			} `json:"data"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			b.Fatal(err)
		}
		if got := rec.Header().Get("X-Querycache"); got != want || len(resp.Data.Result) != nodes || len(resp.Data.Result[0].Values) != 61 {
			b.Fatalf("warm-up %d: %s with %d series, want %s with %d × 61", k, got, len(resp.Data.Result), want, nodes)
		}
	}
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		mux.ServeHTTP(w, reqs[i%2])
		i++
	}
	if got := w.h.Get("X-Querycache"); got != "splice" {
		b.Fatalf("X-Querycache = %q, want splice", got)
	}
	benchSink += w.n
}

// BenchmarkInstantQuery is one stat-panel refresh per op through the cached
// handler's Mux: `sum(rate(...[2m]))` over 200 series at a fixed time. The
// cache keeps range entries only, so every op evaluates and encodes the
// answer as the uncached handler would.
func BenchmarkInstantQuery(b *testing.B) {
	mux, lastS := cpuMux(b, 100)
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/v1/query?query=%s&time=%d",
		url.QueryEscape(`sum(rate(ceems_cpu_seconds_total[2m]))`), lastS), nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	var resp struct {
		Data struct {
			Result []json.RawMessage `json:"result"`
		} `json:"data"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		b.Fatal(err)
	}
	if rec.Code != http.StatusOK || len(resp.Data.Result) != 1 || rec.Header().Get("X-Querycache") != "" {
		b.Fatalf("warm-up: %d with %d series, X-Querycache %q; want 200 with 1 series, no header",
			rec.Code, len(resp.Data.Result), rec.Header().Get("X-Querycache"))
	}
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	for b.Loop() {
		mux.ServeHTTP(w, req)
	}
	benchSink += w.n
}

// cpuMux serves, through a cached handler's Mux, 200 scrapes at 15 s of a
// user and a system CPU counter on each of nodes nodes, and returns the Mux
// and the last scrape's time in Unix seconds.
func cpuMux(b *testing.B, nodes int) (*http.ServeMux, int64) {
	const (
		ticks = 200
		base  = int64(1_700_000_000_000) // ms
	)
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	for n := 0; n < nodes; n++ {
		for m, mode := range []string{"user", "system"} {
			ls := labels.FromStrings(labels.MetricName, "ceems_cpu_seconds_total",
				"instance", fmt.Sprintf("node-%03d:9100", n), "mode", mode)
			v := 0.0
			for i := int64(0); i < ticks; i++ {
				v += 13.7 + float64((n*7+m*3+int(i))%11)/9
				if err := db.Append(ls, base+i*15_000, v); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	eng := promql.NewEngine()
	mux := (&Handler{Engine: eng, Query: db, Cache: querycache.New(querycache.Options{
		MaxBytes: 64 << 20, Head: db, Lookback: eng.LookbackDelta, MaxSteps: eng.MaxSteps,
	})}).Mux()
	return mux, (base + (ticks-1)*15_000) / 1000
}
