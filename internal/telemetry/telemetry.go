// Package telemetry is the stack's self-instrumentation layer: a
// low-overhead metrics registry whose instruments (atomic counters, gauges
// and fixed-bucket histograms) render in our own expofmt exposition format,
// so every serving binary exposes a /metrics endpoint that its own scrape
// loop — or a peer's — can ingest. Self-scrape closes the loop: the head's
// append counters, the querycache hit rates and the PromQL stage latencies
// become ordinary PromQL series with full TSDB/WAL/querycache treatment.
//
// Instruments are built for hot paths: a Counter.Add is one atomic add, a
// Histogram.Observe is one atomic add plus a CAS float accumulate, and all
// read methods are lock-free snapshots. Registration takes a lock but
// happens once at wiring time; callers hold the returned instrument and
// never touch the registry again. Every method is nil-receiver safe so
// uninstrumented components pay a single predictable branch.
//
// Histograms expose Prometheus-style: cumulative `name_bucket{le="..."}`
// series plus `name_sum` and `name_count`. Convention: every metric name
// carries the `telemetry_` prefix so self-series are recognizable next to
// scraped workload metrics.
package telemetry

import (
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expofmt"
	"repro/internal/labels"
)

// Counter is a monotonically increasing uint64. The zero value is unusable;
// obtain one from Registry.Counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments by n. Nil-safe.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. Nil-safe (returns 0).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down, stored as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add accumulates d with a CAS loop. Nil-safe.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value. Nil-safe (returns 0).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. Observations pick their bucket
// with a linear scan (bucket counts are small: latency histograms have
// ~10), bump one atomic bucket counter and CAS-accumulate the sum — no
// locks on the observe path.
type Histogram struct {
	bounds []float64       // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64 // len(bounds)+1
	sum    Gauge
}

// NewHistogram returns a standalone histogram over the given ascending
// upper bounds (an implicit +Inf bucket is appended).
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the seconds elapsed since start. Nil-safe.
func (h *Histogram) ObserveSince(start time.Time) {
	if h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// Count returns the total number of observations. Nil-safe (returns 0).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values. Nil-safe (returns 0).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// snapshot returns the per-bucket counts (cumulative=false) in bound order
// plus the overflow bucket.
func (h *Histogram) snapshot() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// LatencyBuckets is the default latency bucket layout: 50µs to 10s, the
// span of a query evaluation or a scrape commit.
var LatencyBuckets = []float64{5e-5, 2e-4, 1e-3, 5e-3, 2.5e-2, 0.1, 0.5, 2.5, 10}

// IOBuckets is the finer layout for the WAL flush/fsync path: 1µs to 1s.
var IOBuckets = []float64{1e-6, 5e-6, 2.5e-5, 1e-4, 5e-4, 2.5e-3, 1e-2, 0.1, 1}

type instKind int

const (
	kindCounter instKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

type instrument struct {
	kind instKind
	name string
	help string
	lset labels.Labels

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// Registry holds named instruments and renders them as expofmt families.
// Registration methods dedupe on (name, labels): asking for an existing
// counter returns the same counter, so independent components can share an
// instrument without coordination. Func instruments (CounterFunc/GaugeFunc)
// replace any previous func under the same key — a rebuilt component
// re-registers its closures over fresh state.
type Registry struct {
	mu    sync.Mutex
	order []*instrument
	byKey map[string]*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*instrument{}}
}

func instKey(name string, lset labels.Labels) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range lset {
		b.WriteByte('\xff')
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

func pairsToLabels(name string, labelPairs []string) labels.Labels {
	if len(labelPairs)%2 != 0 {
		panic("telemetry: odd label pair count for " + name)
	}
	if len(labelPairs) == 0 {
		return nil
	}
	ls := labels.FromStrings(labelPairs...)
	for _, l := range ls {
		if !validLabelName(l.Name) {
			panic("telemetry: invalid label name " + l.Name + " on " + name)
		}
	}
	return ls
}

// lookup finds or creates the instrument for (name, labels); make builds a
// fresh one on miss. Kind mismatches on the same key are programmer errors.
func (r *Registry) lookup(kind instKind, name, help string, labelPairs []string, make func(*instrument)) *instrument {
	if !validMetricName(name) {
		panic("telemetry: invalid metric name " + name)
	}
	lset := pairsToLabels(name, labelPairs)
	key := instKey(name, lset)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byKey[key]; ok {
		if in.kind != kind {
			panic("telemetry: " + name + " re-registered with a different kind")
		}
		return in
	}
	in := &instrument{kind: kind, name: name, help: help, lset: lset}
	make(in)
	r.byKey[key] = in
	r.order = append(r.order, in)
	return in
}

// Counter returns the counter registered under name and the given label
// pairs, creating it on first use.
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	return r.lookup(kindCounter, name, help, labelPairs, func(in *instrument) {
		in.counter = &Counter{}
	}).counter
}

// Gauge returns the gauge registered under name and the given label pairs,
// creating it on first use.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	return r.lookup(kindGauge, name, help, labelPairs, func(in *instrument) {
		in.gauge = &Gauge{}
	}).gauge
}

// Histogram returns the histogram registered under name and the given label
// pairs, creating it with the supplied bucket bounds on first use (bounds
// are ignored when the histogram already exists).
func (r *Registry) Histogram(name, help string, bounds []float64, labelPairs ...string) *Histogram {
	return r.lookup(kindHistogram, name, help, labelPairs, func(in *instrument) {
		in.hist = NewHistogram(bounds)
	}).hist
}

// CounterFunc registers a counter whose value is read from fn at gather
// time — the bridge for components that already maintain their own atomic
// counters (one source of truth, two views that cannot disagree).
// Re-registering under the same key replaces fn.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelPairs ...string) {
	in := r.lookup(kindCounterFunc, name, help, labelPairs, func(in *instrument) {})
	r.mu.Lock()
	in.fn = fn
	r.mu.Unlock()
}

// GaugeFunc registers a gauge whose value is read from fn at gather time.
// Re-registering under the same key replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	in := r.lookup(kindGaugeFunc, name, help, labelPairs, func(in *instrument) {})
	r.mu.Lock()
	in.fn = fn
	r.mu.Unlock()
}

// Gather snapshots every instrument as expofmt families in first-
// registration order. Histograms expand to three families: name_bucket
// (cumulative, with le labels), name_sum and name_count.
func (r *Registry) Gather() []*expofmt.Family {
	r.mu.Lock()
	insts := make([]*instrument, len(r.order))
	copy(insts, r.order)
	fns := make([]func() float64, len(insts))
	for i, in := range insts {
		fns[i] = in.fn
	}
	r.mu.Unlock()

	fams := map[string]*expofmt.Family{}
	var names []string
	fam := func(name, help string, typ expofmt.MetricType) *expofmt.Family {
		f, ok := fams[name]
		if !ok {
			f = &expofmt.Family{Name: name, Help: help, Type: typ}
			fams[name] = f
			names = append(names, name)
		}
		return f
	}
	for i, in := range insts {
		switch in.kind {
		case kindCounter:
			f := fam(in.name, in.help, expofmt.TypeCounter)
			f.Metrics = append(f.Metrics, expofmt.Metric{Labels: in.lset, Value: float64(in.counter.Value())})
		case kindGauge:
			f := fam(in.name, in.help, expofmt.TypeGauge)
			f.Metrics = append(f.Metrics, expofmt.Metric{Labels: in.lset, Value: in.gauge.Value()})
		case kindCounterFunc:
			f := fam(in.name, in.help, expofmt.TypeCounter)
			f.Metrics = append(f.Metrics, expofmt.Metric{Labels: in.lset, Value: callFn(fns[i])})
		case kindGaugeFunc:
			f := fam(in.name, in.help, expofmt.TypeGauge)
			f.Metrics = append(f.Metrics, expofmt.Metric{Labels: in.lset, Value: callFn(fns[i])})
		case kindHistogram:
			counts := in.hist.snapshot()
			bf := fam(in.name+"_bucket", in.help, expofmt.TypeCounter)
			cum := uint64(0)
			for bi, c := range counts {
				cum += c
				le := "+Inf"
				if bi < len(in.hist.bounds) {
					le = strconv.FormatFloat(in.hist.bounds[bi], 'g', -1, 64)
				}
				bf.Metrics = append(bf.Metrics, expofmt.Metric{
					Labels: withLabel(in.lset, "le", le),
					Value:  float64(cum),
				})
			}
			sf := fam(in.name+"_sum", in.help, expofmt.TypeCounter)
			sf.Metrics = append(sf.Metrics, expofmt.Metric{Labels: in.lset, Value: in.hist.Sum()})
			cf := fam(in.name+"_count", in.help, expofmt.TypeCounter)
			cf.Metrics = append(cf.Metrics, expofmt.Metric{Labels: in.lset, Value: float64(cum)})
		}
	}
	out := make([]*expofmt.Family, 0, len(names))
	for _, n := range names {
		out = append(out, fams[n])
	}
	return out
}

func callFn(fn func() float64) float64 {
	if fn == nil {
		return 0
	}
	return fn()
}

func withLabel(lset labels.Labels, name, value string) labels.Labels {
	out := make(labels.Labels, 0, len(lset)+1)
	out = append(out, lset...)
	out = append(out, labels.Label{Name: name, Value: value})
	return out
}

// WriteText renders the registry in exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	enc := expofmt.NewWriter(w)
	for _, f := range r.Gather() {
		if err := enc.WriteFamily(f); err != nil {
			return err
		}
	}
	return enc.Flush()
}

// Render returns the exposition payload as a string, for in-process
// scraping.
func (r *Registry) Render() string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

// ServeHTTP serves the registry at /metrics (exposition format 0.0.4). The
// caller's mux decides the path; the handler answers whatever it is given.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	r.WriteText(w)
}

// RegisterProcess adds Go runtime gauges (goroutines, heap, GC cycles) to
// the registry — the baseline every serving binary wants on /metrics.
func RegisterProcess(r *Registry) {
	r.GaugeFunc("telemetry_process_goroutines",
		"Live goroutine count.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	// One runtime/metrics read serves both series below, and stops nothing;
	// reading runtime.MemStats, once per series, stopped the world twice on
	// every self-scrape of every serving binary. Gather calls in
	// registration order, so the heap gauge reads and the GC counter
	// reports the cycle count of that same read. HeapInuse is the bytes
	// holding objects plus the bytes reserved for them and unused.
	var gcCycles atomic.Uint64
	r.GaugeFunc("telemetry_process_heap_inuse_bytes",
		"Heap bytes in use (runtime.MemStats.HeapInuse).",
		func() float64 {
			s := []metrics.Sample{
				{Name: "/memory/classes/heap/objects:bytes"},
				{Name: "/memory/classes/heap/unused:bytes"},
				{Name: "/gc/cycles/total:gc-cycles"},
			}
			metrics.Read(s)
			gcCycles.Store(s[2].Value.Uint64())
			return float64(s[0].Value.Uint64() + s[1].Value.Uint64())
		})
	r.CounterFunc("telemetry_process_gc_cycles_total",
		"Completed GC cycles.",
		func() float64 { return float64(gcCycles.Load()) })
}

func validMetricName(s string) bool {
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return len(s) > 0
}

func validLabelName(s string) bool {
	for i, c := range s {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return len(s) > 0
}
