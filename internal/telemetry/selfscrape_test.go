// The self-scrape loop, end to end: a prometheus_sim-shaped harness (TSDB +
// scrape manager + PromQL engine + promapi handler, all instrumented into
// one registry) scrapes its own /metrics endpoint, so the telemetry_ series
// become ordinary TSDB series — then PromQL range queries over the scraped
// data prove the loop closed: the append counter is monotone and the
// querycache hit counter lands after a cache hit.
package telemetry_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/promapi"
	"repro/internal/promql"
	"repro/internal/querycache"
	"repro/internal/rules"
	"repro/internal/scrape"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// selfHarness wires the binary-shaped stack around one registry.
type selfHarness struct {
	reg *telemetry.Registry
	db  *tsdb.DB
	sm  *scrape.Manager
	srv *httptest.Server
	// clock is the simulated scrape time, stepped between passes.
	clock time.Time
}

func newSelfHarness(t *testing.T) *selfHarness {
	t.Helper()
	reg := telemetry.NewRegistry()
	telemetry.RegisterProcess(reg)

	opts := tsdb.DefaultOptions()
	opts.Shards = 2
	opts.Telemetry = reg
	db, err := tsdb.Open(opts)
	if err != nil {
		t.Fatalf("tsdb: %v", err)
	}

	eng := promql.NewEngine()
	eng.InstrumentTelemetry(reg)
	h := &promapi.Handler{
		Engine:  eng,
		Query:   db,
		Metrics: reg,
		Queries: &telemetry.QueryLog{SlowThreshold: time.Nanosecond},
		Cache: querycache.New(querycache.Options{
			MaxBytes:  1 << 20,
			Head:      db,
			Lookback:  eng.LookbackDelta,
			MaxSteps:  eng.MaxSteps,
			Telemetry: reg,
			Name:      "promapi",
		}),
	}
	srv := httptest.NewServer(h.Mux())
	t.Cleanup(srv.Close)

	// Scrape windows must be settled history so cached range responses
	// don't fall under the freshness TTL.
	hs := &selfHarness{
		reg: reg, db: db, srv: srv,
		clock: time.Now().Add(-time.Hour).Truncate(time.Second),
	}
	hs.sm = &scrape.Manager{
		Dest:     db,
		Fetcher:  &scrape.HTTPFetcher{Client: srv.Client()},
		NewBatch: func() scrape.Batch { return db.Appender() },
		Now:      func() time.Time { return hs.clock },
		Groups: []*scrape.TargetGroup{{
			JobName:  "self",
			Targets:  []string{srv.URL + "/metrics"},
			Labels:   map[string]string{"cluster": "selftest"},
			Interval: 15 * time.Second,
		}},
		OnError: func(target string, err error) { t.Errorf("scrape %s: %v", target, err) },
	}
	hs.sm.InstrumentTelemetry(reg)
	return hs
}

// scrapePass scrapes our own /metrics once at the current simulated time,
// then advances the clock one interval.
func (hs *selfHarness) scrapePass(t *testing.T) {
	t.Helper()
	g := hs.sm.Groups[0]
	hs.sm.ScrapeTarget(t.Context(), g, g.Targets[0])
	hs.clock = hs.clock.Add(g.Interval)
}

// rangeQuery runs a PromQL range query through the real HTTP API and
// returns the decoded matrix plus the response headers.
func (hs *selfHarness) rangeQuery(t *testing.T, query string, start, end time.Time, step time.Duration, hdr map[string]string) ([]matrixSeries, http.Header) {
	t.Helper()
	q := url.Values{}
	q.Set("query", query)
	q.Set("start", strconv.FormatInt(start.Unix(), 10))
	q.Set("end", strconv.FormatInt(end.Unix(), 10))
	q.Set("step", fmt.Sprintf("%g", step.Seconds()))
	u := hs.srv.URL + "/api/v1/query_range?" + q.Encode()
	req, err := http.NewRequestWithContext(t.Context(), http.MethodGet, u, nil)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := hs.srv.Client().Do(req)
	if err != nil {
		t.Fatalf("query_range: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query_range %q: status %d", query, resp.StatusCode)
	}
	var body struct {
		Status string `json:"status"`
		Data   struct {
			Result []matrixSeries `json:"result"`
		} `json:"data"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if body.Status != "success" {
		t.Fatalf("query_range %q: status %q", query, body.Status)
	}
	return body.Data.Result, resp.Header
}

type matrixSeries struct {
	Metric map[string]string `json:"metric"`
	Values [][2]any          `json:"values"`
}

func (s matrixSeries) floatValues(t *testing.T) []float64 {
	t.Helper()
	out := make([]float64, len(s.Values))
	for i, v := range s.Values {
		str, ok := v[1].(string)
		if !ok {
			t.Fatalf("sample value %v is not a string", v[1])
		}
		f, err := strconv.ParseFloat(str, 64)
		if err != nil {
			t.Fatalf("sample value %q: %v", str, err)
		}
		out[i] = f
	}
	return out
}

func TestSelfScrapeRoundTrip(t *testing.T) {
	hs := newSelfHarness(t)
	windowStart := hs.clock

	// Three passes: each scrape ingests the previous pass's commit effects,
	// so the appended-samples counter the TSDB reports grows between them.
	for i := 0; i < 3; i++ {
		hs.scrapePass(t)
	}

	// The scraped self-series answer PromQL like any workload metric.
	end := hs.clock.Add(-15 * time.Second) // last scrape timestamp
	res, hdr := hs.rangeQuery(t, "telemetry_tsdb_appended_samples_total",
		windowStart, end, 15*time.Second,
		map[string]string{promapi.TraceHeader: "1"})
	if len(res) != 1 {
		t.Fatalf("appended_samples series = %d, want 1 (result %+v)", len(res), res)
	}
	if got := res[0].Metric["job"]; got != "self" {
		t.Fatalf("job label = %q, want self", got)
	}
	vals := res[0].floatValues(t)
	if len(vals) < 3 {
		t.Fatalf("got %d points across 3 scrapes, want 3", len(vals))
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			t.Fatalf("append counter not monotone: %v", vals)
		}
	}
	if vals[len(vals)-1] <= vals[0] {
		t.Fatalf("append counter did not grow across scrapes: %v", vals)
	}

	// The uncached evaluation reported per-stage timings on the opt-in
	// trace header.
	trace := hdr.Get(promapi.TraceHeader)
	if !strings.Contains(trace, "parse=") || !strings.Contains(trace, "eval=") {
		t.Fatalf("trace header = %q, want parse= and eval= stages", trace)
	}
	if hdr.Get("X-Querycache") != "miss" {
		t.Fatalf("first query outcome = %q, want miss", hdr.Get("X-Querycache"))
	}

	// An exact repeat hits the cache; the hit lands in the telemetry
	// registry, and the next self-scrape turns it into a TSDB series.
	_, hdr = hs.rangeQuery(t, "telemetry_tsdb_appended_samples_total",
		windowStart, end, 15*time.Second, nil)
	if hdr.Get("X-Querycache") != "hit" {
		t.Fatalf("repeat query outcome = %q, want hit", hdr.Get("X-Querycache"))
	}
	hs.scrapePass(t)
	res, _ = hs.rangeQuery(t, `telemetry_querycache_hits_total{cache="promapi"}`,
		windowStart, hs.clock.Add(-15*time.Second), 15*time.Second, nil)
	if len(res) != 1 {
		t.Fatalf("querycache hits series = %d, want 1", len(res))
	}
	hitVals := res[0].floatValues(t)
	if last := hitVals[len(hitVals)-1]; last < 1 {
		t.Fatalf("scraped querycache hit counter = %v, want >= 1", last)
	}

	// Hit-rate expression over the scraped series evaluates too.
	res, _ = hs.rangeQuery(t,
		`telemetry_querycache_hits_total{cache="promapi"} / (telemetry_querycache_hits_total{cache="promapi"} + telemetry_querycache_misses_total{cache="promapi"})`,
		windowStart, hs.clock.Add(-15*time.Second), 15*time.Second, nil)
	if len(res) != 1 {
		t.Fatalf("hit-rate series = %d, want 1", len(res))
	}
	rates := res[0].floatValues(t)
	if last := rates[len(rates)-1]; last <= 0 || last > 1 {
		t.Fatalf("hit rate = %v, want in (0, 1]", last)
	}

	// Every query above crossed the 1ns slow threshold: the slow-query log
	// retains them with their per-stage spans.
	resp, err := hs.srv.Client().Get(hs.srv.URL + "/api/v1/status/queries")
	if err != nil {
		t.Fatalf("status/queries: %v", err)
	}
	defer resp.Body.Close()
	var st struct {
		Data struct {
			Result struct {
				Enabled bool                      `json:"enabled"`
				Log     *telemetry.QueryLogStatus `json:"log"`
			} `json:"result"`
		} `json:"data"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status/queries: %v", err)
	}
	out := st.Data.Result
	if !out.Enabled || out.Log == nil {
		t.Fatalf("query log disabled in status: %+v", out)
	}
	if out.Log.SlowTotal < 4 {
		t.Fatalf("slow_total = %d, want >= 4", out.Log.SlowTotal)
	}
	var spanned bool
	for _, sq := range out.Log.Slow {
		if len(sq.Spans) > 0 {
			spanned = true
		}
	}
	if !spanned {
		t.Fatal("no slow-query entry carries per-stage spans")
	}

	// And the /metrics payload itself stays parseable by our own scrape
	// machinery — the property the whole loop rests on.
	mresp, err := hs.srv.Client().Get(hs.srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
}

// The rule engine's instruments ride the same loop: a group evaluated over
// the self-scraped series moves the telemetry_rules_ counters, and the next
// self-scrape stores them.
func TestSelfScrapeRulesTelemetry(t *testing.T) {
	hs := newSelfHarness(t)
	eng := rules.NewEngine(nil)
	eng.InstrumentTelemetry(hs.reg)
	g := &rules.Group{Name: "self", Rules: []rules.Rule{
		{Record: "self:appended:rate1m", Expr: `rate(telemetry_tsdb_appended_samples_total[1m])`},
		{Record: "self:appended:rate1m:twice", Expr: `self:appended:rate1m * 2`}, // served by the evaluation, not storage
	}}
	for i := 0; i < 3; i++ {
		hs.scrapePass(t)
	}
	if err := eng.EvalGroup(g, hs.db, hs.db, hs.clock.Add(-15*time.Second)); err != nil {
		t.Fatalf("rules: %v", err)
	}
	hs.scrapePass(t)

	last := func(name string, extra ...*labels.Matcher) float64 {
		t.Helper()
		ms := append([]*labels.Matcher{labels.MustMatcher(labels.MatchEqual, labels.MetricName, name)}, extra...)
		got, err := hs.db.Select(0, 1<<62, ms...)
		if err != nil || len(got) != 1 {
			t.Fatalf("%s: %d series (err %v), want 1", name, len(got), err)
		}
		return got[0].Samples[len(got[0].Samples)-1].V
	}
	self := labels.MustMatcher(labels.MatchEqual, "group", "self")
	if n := last("telemetry_rules_group_eval_seconds_count", self); n != 1 {
		t.Errorf("group_eval_seconds_count{group=self} = %v, want 1", n)
	}
	if n := last("telemetry_rules_storage_selects_total"); n != 1 {
		t.Errorf("storage_selects_total = %v, want 1 (the rate's range read)", n)
	}
	if n := last("telemetry_rules_view_hits_total"); n != 1 {
		t.Errorf("view_hits_total = %v, want 1 (the second rule's read of the first)", n)
	}
	if n := last("telemetry_rules_samples_written_total"); n != 2 {
		t.Errorf("samples_written_total = %v, want 2", n)
	}
	if n := last("telemetry_rules_stale_markers_total"); n != 0 {
		t.Errorf("stale_markers_total = %v, want 0", n)
	}
}
