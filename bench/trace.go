package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promapi"
	"repro/internal/promql"
	"repro/internal/scrape"
)

// Layer names are the package names of the stack; `client` is the harness's
// own HTTP client and push agent.
const (
	layerExporter    = "exporter"
	layerScrape      = "scrape"
	layerRemoteWrite = "remotewrite"
	layerTSDB        = "tsdb"
	layerRules       = "rules"
	layerAPI         = "api"
	layerThanos      = "thanos"
	layerPromQL      = "promql"
	layerPromAPI     = "promapi"
	layerLB          = "lb"
	layerClient      = "client"
)

// span is one timed call into a layer: wall-clock start and end, and the
// process CPU time consumed in between, at reference speed (see stopwatch;
// durations below are that CPU time). Count and Note carry what the boundary saw (samples returned,
// bytes written, cache outcome).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	CPU    int64  `json:"cpu_ns"`
	Count  int64  `json:"count,omitempty"`
	Series int64  `json:"series,omitempty"`
	Note   string `json:"note,omitempty"`

	cpuStart time.Duration
}

func (s *span) seconds() float64 { return float64(s.CPU) / 1e9 }

// recorder holds the traced run's spans in memory. The traced run drives
// every stage serially, so in-process calls nest under one current span
// (cur), HTTP hops included (see handlerTransport). Recording is switched per
// operation (on): alternate operations run unrecorded, and the difference
// between the two halves is the tracing overhead.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// stages are the engine's own per-query stage timings, as reported in
	// the X-Query-Trace response header of recorded requests.
	stages []stage
	on     atomic.Bool
	cur    atomic.Int64
	req    atomic.Int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent and returns its id, or 0 when recording
// is off for the current operation.
func (r *recorder) begin(layer, name string, parent int) int {
	if r == nil || !r.on.Load() {
		return 0
	}
	now, cpu := time.Since(r.t0).Nanoseconds(), cpuTime()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: r.req.Load(), Layer: layer, Name: name, Start: now, cpuStart: cpu})
	r.mu.Unlock()
	return id
}

func (r *recorder) endWith(id int, count, series int64, note string) {
	if id == 0 {
		return
	}
	now, cpu := time.Since(r.t0).Nanoseconds(), cpuTime()
	r.mu.Lock()
	sp := &r.spans[id-1]
	sp.End, sp.Count, sp.Series, sp.Note = now, count, series, note
	sp.CPU = int64(float64(cpu-sp.cpuStart) / cal.slowdown())
	r.mu.Unlock()
}

// enter opens a span under the current one and makes it current; leave
// closes it and restores the previous current span.
func (r *recorder) enter(layer, name string) (id int, prev int64) {
	if r == nil {
		return 0, 0
	}
	prev = r.cur.Load()
	id = r.begin(layer, name, int(prev))
	if id != 0 {
		r.cur.Store(int64(id))
	}
	return id, prev
}

func (r *recorder) leave(id int, prev int64, count, series int64, note string) {
	if id == 0 {
		return
	}
	r.cur.Store(prev)
	r.endWith(id, count, series, note)
}

// synthetic adds a closed span of known wall duration under a closed parent:
// the stage timings the program itself reports in X-Query-Trace have no
// start time. Its CPU time is the parent's, in proportion.
func (r *recorder) synthetic(layer, name string, parent int, seconds float64) int {
	id := r.begin(layer, name, parent)
	if id == 0 {
		return 0
	}
	r.mu.Lock()
	sp, p := &r.spans[id-1], &r.spans[parent-1]
	sp.Start = p.Start
	sp.End = sp.Start + int64(seconds*1e9)
	sp.CPU = int64(seconds * 1e9 * ratio(float64(p.CPU), float64(p.End-p.Start)))
	r.mu.Unlock()
	return id
}

// reparent moves spans matching pick from under oldParent to newParent.
func (r *recorder) reparent(oldParent, newParent int, pick func(*span) bool) {
	r.mu.Lock()
	for i := oldParent; i < len(r.spans); i++ { // children have larger ids
		if sp := &r.spans[i]; sp.Parent == oldParent && sp.ID != newParent && pick(sp) {
			sp.Parent = newParent
		}
	}
	r.mu.Unlock()
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTotals is one row of the attribution table.
type layerTotals struct {
	calls int
	busy  float64 // Σ span durations
	self  float64 // Σ (duration − children's durations)
}

// selfTimes returns every span's self time in seconds, indexed by span id:
// its duration minus its children's. Children never overlap in a serially
// driven run, so this is plain subtraction.
func (r *recorder) selfTimes() []float64 {
	self := make([]float64, len(r.spans)+1)
	for i := range r.spans {
		sp := &r.spans[i]
		self[sp.ID] += sp.seconds()
		if sp.Parent != 0 {
			self[sp.Parent] -= sp.seconds()
		}
	}
	return self
}

// attribute folds the spans into per-layer totals.
func (r *recorder) attribute(self []float64) map[string]*layerTotals {
	out := map[string]*layerTotals{}
	for i := range r.spans {
		sp := &r.spans[i]
		lt := out[sp.Layer]
		if lt == nil {
			lt = &layerTotals{}
			out[sp.Layer] = lt
		}
		lt.calls++
		lt.busy += sp.seconds()
		lt.self += self[sp.ID]
	}
	return out
}

// durations returns the durations (seconds) of spans matching layer and name,
// further filtered by keep when non-nil.
func (r *recorder) durations(layer, name string, keep func(*span) bool) timings {
	var out timings
	for i := range r.spans {
		sp := &r.spans[i]
		if sp.Layer == layer && sp.Name == name && (keep == nil || keep(sp)) {
			out = append(out, sp.seconds())
		}
	}
	return out
}

// writeAttribution prints the per-layer table, ending in the two trace
// ratios.
func writeAttribution(w io.Writer, workload string, layers map[string]*layerTotals, wall, gap, overhead float64) {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]].self > layers[names[j]].self })
	fmt.Fprintf(w, "attribution for %s (recorded operations: %.3f s of CPU at reference speed)\n", workload, wall)
	fmt.Fprintf(w, "%-12s %8s %10s %10s %8s\n", "layer", "calls", "busy_s", "self_s", "share")
	for _, n := range names {
		lt := layers[n]
		fmt.Fprintf(w, "%-12s %8d %10.4f %10.4f %7.1f%%\n", n, lt.calls, lt.busy, lt.self, 100*ratio(lt.self, wall))
	}
	fmt.Fprintf(w, "trace.gap_ratio      %.4f\n", gap)
	fmt.Fprintf(w, "trace.overhead_ratio %.4f\n", overhead)
}

// tracedFetcher times the exporter's render of one target.
type tracedFetcher struct {
	rec   *recorder
	inner scrape.Fetcher
}

func (f *tracedFetcher) Fetch(ctx context.Context, target string) (io.ReadCloser, error) {
	id, prev := f.rec.enter(layerExporter, "render")
	body, err := f.inner.Fetch(ctx, target)
	f.rec.leave(id, prev, 0, 0, "")
	return body, err
}

// tracedBatch times the head's batch append. Add only buffers the sample
// (hashing its labels to pick the shard); Commit does the append and the WAL
// write, and is the span. Timing each Add would cost more than the Add.
type tracedBatch struct {
	rec   *recorder
	inner scrape.Batch
}

func (b *tracedBatch) Add(lset labels.Labels, t int64, v float64) { b.inner.Add(lset, t, v) }

func (b *tracedBatch) Commit() (int, error) {
	id, prev := b.rec.enter(layerTSDB, "append")
	n, err := b.inner.Commit()
	b.rec.leave(id, prev, int64(n), 0, "")
	return n, err
}

// tracedAppender times single-sample appends (rules write this way).
type tracedAppender struct {
	rec   *recorder
	inner interface {
		Append(lset labels.Labels, t int64, v float64) error
	}
}

func (a *tracedAppender) Append(lset labels.Labels, t int64, v float64) error {
	id, prev := a.rec.enter(layerTSDB, "append1")
	err := a.inner.Append(lset, t, v)
	a.rec.leave(id, prev, 1, 0, "")
	return err
}

// storage is what the query API reads from: the hot/cold fan-in querier.
type storage interface {
	promql.Queryable
	promql.HintedQueryable
	promapi.LabelStore
}

// capturedSelect is one storage read seen during the measured phase, kept
// so the replica-merge probe has real reads to replay.
type capturedSelect struct {
	hints    model.SelectHints
	matchers []*labels.Matcher
}

// tracedStorage times storage reads. It implements HintedQueryable and
// LabelStore like the querier it wraps: without them the engine would take
// the unhinted path and the traced run would measure a different program.
type tracedStorage struct {
	rec   *recorder
	inner storage
	// coldSpan reports whether the block store holds data inside a window;
	// reads that cannot reach a block are the head's alone.
	coldSpan func(mint, maxt int64) bool
	captured []capturedSelect
}

func (s *tracedStorage) Select(mint, maxt int64, ms ...*labels.Matcher) ([]model.Series, error) {
	return s.SelectWithHints(model.SelectHints{Start: mint, End: maxt}, ms...)
}

func (s *tracedStorage) SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	layer := layerTSDB
	if s.coldSpan(hints.Start, hints.End) {
		layer = layerThanos
	}
	id, prev := s.rec.enter(layer, "select")
	out, err := s.inner.SelectWithHints(hints, ms...)
	if id != 0 {
		n := int64(0)
		for i := range out {
			n += int64(len(out[i].Samples))
		}
		note := ""
		if layer == layerThanos {
			note = resolutionNote(hints, out)
		}
		s.rec.leave(id, prev, n, int64(len(out)), note)
		if len(s.captured) < 64 {
			s.captured = append(s.captured, capturedSelect{hints, ms})
		}
	}
	return out, err
}

func (s *tracedStorage) LabelNames() []string {
	id, prev := s.rec.enter(layerTSDB, "label_names")
	out := s.inner.LabelNames()
	s.rec.leave(id, prev, int64(len(out)), 0, "")
	return out
}

func (s *tracedStorage) LabelValues(name string) []string {
	id, prev := s.rec.enter(layerTSDB, "label_values")
	out := s.inner.LabelValues(name)
	s.rec.leave(id, prev, int64(len(out)), 0, "")
	return out
}

// aggrEligible mirrors the store's rule for when a downsampled stream may
// stand in for raw samples: an *_over_time aggregate whose step spans at
// least five 5-minute buckets.
func aggrEligible(h model.SelectHints) bool {
	switch h.Func {
	case "avg_over_time", "sum_over_time", "min_over_time", "max_over_time":
		return h.Step/5 >= (5 * time.Minute).Milliseconds()
	}
	return false
}

// resolutionNote classifies a cold read from what came back: an eligible
// read answered from aggregates returns points minutes apart, a raw one
// points at the ingest cadence.
func resolutionNote(h model.SelectHints, out []model.Series) string {
	if !aggrEligible(h) {
		return "raw"
	}
	// The oldest part of a window is the part most likely downsampled
	// already (the newest block never is), so look at the first gap.
	for i := range out {
		if smp := out[i].Samples; len(smp) >= 2 && smp[1].T-smp[0].T >= (5*time.Minute).Milliseconds() {
			return "aggr"
		}
	}
	return "eligible-raw"
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.ResponseWriter.Write(p)
}

// traceHTTP wraps a handler in a span under the current one. Requests of
// the unrecorded half pass straight through. For the query API it also keeps
// the X-Query-Trace stage timings and turns their sum into one promql child
// span, with the request's storage reads moved under it.
func (r *recorder) traceHTTP(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, prev := r.enter(layer, req.URL.Path)
		if id == 0 {
			h.ServeHTTP(w, req)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, req)
		r.leave(id, prev, cw.n, 0, w.Header().Get("X-Querycache"))
		if layer != layerPromAPI {
			return
		}
		total := 0.0
		for _, st := range parseStages(w.Header().Get(promapi.TraceHeader)) {
			r.mu.Lock()
			r.stages = append(r.stages, st)
			r.mu.Unlock()
			total += st.seconds
		}
		if total > 0 {
			// Storage reads happen inside the engine's stages; hang them
			// under one promql span so promql self time excludes them and
			// promapi self time excludes both.
			eng := r.synthetic(layerPromQL, "engine", id, total)
			r.reparent(id, eng, func(sp *span) bool { return sp.Name == "select" })
		}
	})
}

type stage struct {
	name    string
	seconds float64
}

// parseStages decodes "parse=0.000012 prefetch=0.000345 ...".
func parseStages(header string) []stage {
	var out []stage
	for _, f := range strings.Fields(header) {
		name, val, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		if s, err := strconv.ParseFloat(val, 64); err == nil {
			out = append(out, stage{name, s})
		}
	}
	return out
}
