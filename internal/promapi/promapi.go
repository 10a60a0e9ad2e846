// Package promapi serves the Prometheus HTTP query API
// (/api/v1/query, /api/v1/query_range, /-/healthy) over any
// promql.Queryable — the hot TSDB, the Thanos fan-in querier, or anything
// else. Grafana's datasource and the CEEMS load balancer both speak this
// protocol, so the LB can sit in front of this handler unchanged.
package promapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/querycache"
	"repro/internal/remotewrite"
	"repro/internal/telemetry"
)

// TraceHeader is the opt-in per-query tracing header: a request that sends
// it (any value) gets the same header back on the response, carrying the
// evaluation's stage timings ("parse=0.000012 eval=0.000345 ...").
const TraceHeader = "X-Query-Trace"

// Handler serves the query API.
type Handler struct {
	Engine *promql.Engine
	Query  promql.Queryable
	// Now supplies the default evaluation time; nil means time.Now.
	Now func() time.Time
	// Timeout bounds each query's evaluation; 0 disables. Queries that
	// exceed it return 503; evaluation failures — including engine
	// guardrail violations (step-count, sample budget) — return 422.
	Timeout time.Duration
	// Cache, when set, serves /api/v1/query_range through the query-result
	// cache: exact repeats answer without evaluation and overlapping windows
	// re-evaluate only the uncovered steps. An entry keeps its samples' JSON
	// from its first reuse on, so a hit writes kept bytes and a splice
	// renders only the steps it evaluated; answers are the cache's own
	// memory and the handler only reads them. Build it with querycache.New
	// over the same head this handler queries (its Lookback and MaxSteps
	// must match the engine's) and give it to no other caller of
	// RangeQuery, which would keep another rendering. Range responses carry
	// an X-Querycache header (hit/miss/splice/bypass) and
	// /api/v1/status/querycache reports its counters. Instant queries
	// always evaluate: each stat-panel refresh asks at a new time.
	Cache *querycache.Cache
	// Ingest, when set, serves POST /api/v1/write: the streaming
	// remote-write receiver (framed expofmt batches, explicit 429
	// backpressure — see internal/remotewrite). Its counters surface via
	// /api/v1/status/ingest whether or not it is enabled.
	Ingest *remotewrite.Receiver
	// Metrics, when set, serves the registry's exposition at GET /metrics —
	// the self-telemetry endpoint a scrape loop (our own or a peer's) can
	// ingest like any exporter.
	Metrics *telemetry.Registry
	// Queries, when set, tracks every in-flight query plus a ring of slow
	// ones (see telemetry.QueryLog), served at /api/v1/status/queries.
	// Queries also get per-stage traces; sending the X-Query-Trace request
	// header returns the stage timings on the response whether or not a
	// QueryLog is configured.
	Queries *telemetry.QueryLog
}

// LabelStore is the optional metadata side of a Queryable. *tsdb.DB
// implements it (returning the list its head keeps merged across its
// shards, read-only); when Query does, the handler additionally serves
// /api/v1/labels and /api/v1/label/<name>/values, the endpoints Grafana
// uses to populate dashboard variable dropdowns. A Query whose metadata reads can fail, as
// its reads can, returns an error from each instead: *cluster.RingDB refuses
// an answer that too few replicas cover, and the endpoints report the error
// like a failed query.
type LabelStore interface {
	LabelNames() []string
	LabelValues(name string) []string
}

// Mux returns the route tree.
func (h *Handler) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/query", h.handleQuery)
	mux.HandleFunc("/api/v1/query_range", h.handleQueryRange)
	mux.HandleFunc("/api/v1/labels", h.handleLabels)
	mux.HandleFunc("/api/v1/label/", h.handleLabelValues)
	if h.Ingest != nil {
		mux.Handle("/api/v1/write", h.Ingest)
	}
	mux.HandleFunc("/api/v1/status/ingest", h.handleIngestStatus)
	mux.HandleFunc("/api/v1/status/querycache", h.handleCacheStatus)
	mux.HandleFunc("/api/v1/status/queries", h.handleQueriesStatus)
	if h.Metrics != nil {
		// Exact path only: the bare pattern (no trailing slash) never
		// matches /foo/metrics.
		mux.Handle("/metrics", h.Metrics)
	}
	mux.HandleFunc("/-/healthy", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok"))
	})
	return mux
}

// apiResponse is the Prometheus envelope as encoding/json renders it: errors
// and the /api/v1/status/* endpoints. Query results and label lists are
// hand-encoded (encode.go).
type apiResponse struct {
	Status string  `json:"status"`
	Data   apiData `json:"data,omitempty"`
	Error  string  `json:"error,omitempty"`
}

type apiData struct {
	ResultType string `json:"resultType"`
	Result     any    `json:"result"`
}

func (h *Handler) engine() *promql.Engine {
	if h.Engine != nil {
		return h.Engine
	}
	return promql.NewEngine()
}

func (h *Handler) now() time.Time {
	if h.Now != nil {
		return h.Now()
	}
	return time.Now()
}

// queryCtx derives the evaluation context for one request, applying the
// handler's query timeout when configured.
func (h *Handler) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if h.Timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), h.Timeout)
}

// beginQuery registers the query with the handler's QueryLog (when
// configured) and attaches a stage trace to the evaluation context — the
// log's own trace, or a standalone one when the client opted in via the
// X-Query-Trace header without a log running.
func (h *Handler) beginQuery(ctx context.Context, r *http.Request, kind, query string) (context.Context, *telemetry.RunningQuery, *telemetry.QueryTrace) {
	rq := h.Queries.Begin(kind, query)
	trace := rq.Trace()
	if trace == nil && r.Header.Get(TraceHeader) != "" {
		trace = &telemetry.QueryTrace{}
	}
	return telemetry.ContextWithTrace(ctx, trace), rq, trace
}

// finishQuery completes the log entry and answers the trace header opt-in.
// Must run before the response body is written.
func finishQuery(w http.ResponseWriter, r *http.Request, rq *telemetry.RunningQuery, trace *telemetry.QueryTrace, err error) {
	rq.End(err)
	if trace != nil && r.Header.Get(TraceHeader) != "" {
		w.Header().Set(TraceHeader, trace.HeaderValue())
	}
}

// writeQueryErr maps evaluation failures onto Prometheus-style statuses:
// deadline/cancellation is 503, matching Prometheus's timeout semantics,
// and so is a replicated store short of its read quorum (the request is
// fine, the service is not); every other evaluation failure — parse/type errors and engine guardrail
// violations (promql.LimitError: too many steps, sample budget) alike —
// keeps this API's long-standing 422 convention.
func writeQueryErr(w http.ResponseWriter, err error) {
	code := http.StatusUnprocessableEntity
	var noQuorum *model.ErrQuorumUnavailable
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) || errors.As(err, &noQuorum) {
		code = http.StatusServiceUnavailable
	}
	writeErr(w, code, err.Error())
}

func (h *Handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	qs := r.URL.Query()
	q := qs.Get("query")
	if q == "" {
		writeErr(w, http.StatusBadRequest, "query parameter required")
		return
	}
	ts := h.now()
	if v := qs.Get("time"); v != "" {
		t, err := parseTime(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
		ts = t
	}
	ctx, cancel := h.queryCtx(r)
	defer cancel()
	ctx, rq, trace := h.beginQuery(ctx, r, "instant", q)
	val, err := h.engine().InstantCtx(ctx, h.Query, q, ts)
	finishQuery(w, r, rq, trace, err)
	if err != nil {
		writeQueryErr(w, err)
		return
	}
	switch tv := val.(type) {
	case promql.Vector:
		writeBody(w, func(b []byte) []byte { return appendVector(b, tv) })
	case promql.Scalar:
		writeBody(w, func(b []byte) []byte { return appendScalar(b, tv) })
	default:
		writeErr(w, http.StatusUnprocessableEntity, "unsupported result type")
	}
}

func (h *Handler) handleQueryRange(w http.ResponseWriter, r *http.Request) {
	qs := r.URL.Query()
	q := qs.Get("query")
	if q == "" {
		writeErr(w, http.StatusBadRequest, "query parameter required")
		return
	}
	start, err1 := parseTime(qs.Get("start"))
	end, err2 := parseTime(qs.Get("end"))
	step, err3 := parseStep(qs.Get("step"))
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	ctx, cancel := h.queryCtx(r)
	defer cancel()
	ctx, rq, trace := h.beginQuery(ctx, r, "range", q)
	var (
		ans  querycache.Range
		merr error
	)
	if h.Cache != nil {
		var outcome querycache.Outcome
		ans, outcome, merr = h.Cache.RangeQuery(ctx, q, start, end, step,
			func(ctx context.Context, s, e time.Time, st time.Duration) (promql.Matrix, error) {
				return h.engine().RangeCtx(ctx, h.Query, q, s, e, st)
			}, appendSample)
		w.Header().Set("X-Querycache", string(outcome))
	} else {
		ans.Matrix, merr = h.engine().RangeCtx(ctx, h.Query, q, start, end, step)
	}
	finishQuery(w, r, rq, trace, merr)
	if merr != nil {
		writeQueryErr(w, merr)
		return
	}
	writeBody(w, func(b []byte) []byte { return appendRange(b, ans) })
}

// handleCacheStatus serves /api/v1/status/querycache: the result cache's
// hit/miss/splice/evict counters and occupancy, or enabled:false when the
// handler runs uncached.
func (h *Handler) handleCacheStatus(w http.ResponseWriter, _ *http.Request) {
	type status struct {
		Enabled bool              `json:"enabled"`
		Stats   *querycache.Stats `json:"stats,omitempty"`
	}
	out := status{}
	if h.Cache != nil {
		st := h.Cache.Stats()
		out = status{Enabled: true, Stats: &st}
	}
	writeOK(w, "querycache", out)
}

// handleIngestStatus serves /api/v1/status/ingest: the remote-write
// receiver's counters and trailing samples/s, or enabled:false when push
// ingest is off.
func (h *Handler) handleIngestStatus(w http.ResponseWriter, _ *http.Request) {
	type status struct {
		Enabled bool                     `json:"enabled"`
		Stats   *remotewrite.IngestStats `json:"stats,omitempty"`
	}
	out := status{}
	if h.Ingest != nil {
		st := h.Ingest.Stats()
		out = status{Enabled: true, Stats: &st}
	}
	writeOK(w, "ingest", out)
}

// handleQueriesStatus serves /api/v1/status/queries: the in-flight queries
// and the slow-query ring, or enabled:false when no QueryLog is configured.
func (h *Handler) handleQueriesStatus(w http.ResponseWriter, _ *http.Request) {
	type status struct {
		Enabled bool                      `json:"enabled"`
		Log     *telemetry.QueryLogStatus `json:"log,omitempty"`
	}
	out := status{}
	if h.Queries != nil {
		st := h.Queries.Status()
		out = status{Enabled: true, Log: &st}
	}
	writeOK(w, "queries", out)
}

// serveLabels answers a label metadata endpoint from whichever of the two
// store shapes Query has: the values of one label, or with name empty all
// label names.
func (h *Handler) serveLabels(w http.ResponseWriter, name string) {
	var (
		list  []string
		err   error
		names = name == ""
	)
	switch ls := h.Query.(type) {
	case LabelStore:
		if names {
			list = ls.LabelNames()
		} else {
			list = ls.LabelValues(name)
		}
	case interface {
		LabelNames() ([]string, error)
		LabelValues(name string) ([]string, error)
	}:
		if names {
			list, err = ls.LabelNames()
		} else {
			list, err = ls.LabelValues(name)
		}
	default:
		writeErr(w, http.StatusNotFound, "label metadata not supported by this backend")
		return
	}
	if err != nil {
		writeQueryErr(w, err)
		return
	}
	writeBody(w, func(b []byte) []byte { return appendList(b, list) })
}

// handleLabels serves /api/v1/labels when the backing store supports label
// metadata.
func (h *Handler) handleLabels(w http.ResponseWriter, _ *http.Request) {
	h.serveLabels(w, "")
}

// handleLabelValues serves /api/v1/label/<name>/values.
func (h *Handler) handleLabelValues(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/v1/label/")
	name, suffix, found := strings.Cut(rest, "/")
	if !found || suffix != "values" || name == "" {
		writeErr(w, http.StatusNotFound, "expected /api/v1/label/<name>/values")
		return
	}
	h.serveLabels(w, name)
}

func parseTime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, fmt.Errorf("promapi: missing time parameter")
	}
	if ms, ok := parseSeconds(s, time.Millisecond); ok {
		return model.MillisToTime(ms), nil
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return time.Time{}, fmt.Errorf("promapi: bad time %q", s)
	}
	return t, nil
}

func parseStep(s string) (time.Duration, error) {
	if s == "" {
		return 0, fmt.Errorf("promapi: missing step parameter")
	}
	if ns, ok := parseSeconds(s, time.Nanosecond); ok {
		return time.Duration(ns), nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("promapi: bad step %q", s)
	}
	return d, nil
}

// parseSeconds reads decimal seconds as a whole number of units, rounded to
// the nearest one: "1.001" is 1.000999… as a float, and the product cut
// short would be 1 000 ms. ok is false for text that is no number and for a
// count past int64.
func parseSeconds(s string, unit time.Duration) (n int64, ok bool) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	r := math.Round(f * float64(time.Second/unit))
	if !(r >= math.MinInt64 && r < math.MaxInt64) { // false for NaN too
		return 0, false
	}
	return int64(r), true
}

// writeOK serves a status endpoint's struct through encoding/json.
func writeOK(w http.ResponseWriter, typ string, result any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(apiResponse{
		Status: "success",
		Data:   apiData{ResultType: typ, Result: result},
	})
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(apiResponse{Status: "error", Error: msg})
}
