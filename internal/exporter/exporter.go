// Package exporter implements the CEEMS exporter (paper §II.B.a): a
// Prometheus exporter running on every compute node. It hosts a registry of
// collectors — cgroup compute-unit accounting, RAPL energy counters,
// IPMI-DCMI node power, node CPU/memory, and the compute-unit→GPU map —
// each of which can be enabled or disabled individually, and serves them
// over HTTP with optional basic auth and TLS, as the real exporter does to
// guard against abusive scrapers.
package exporter

import (
	"crypto/subtle"
	"fmt"
	"net/http"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/expofmt"
	"repro/internal/labels"
)

// Collector produces metric families for one subsystem.
type Collector interface {
	// Name is the collector's registry key (e.g. "rapl").
	Name() string
	// Collect renders current metric families.
	Collect() ([]*expofmt.Family, error)
}

// Exporter is a registry of collectors plus the HTTP serving glue.
type Exporter struct {
	mu         sync.RWMutex
	collectors map[string]Collector
	disabled   map[string]bool
	// enabled is what Gather runs, by name. Register and SetEnabled build a
	// new slice; a Gather in flight keeps ranging over the one it took.
	enabled []enabledCollector

	// Auth, when non-empty, enforces basic auth on /metrics.
	Username string
	Password string

	// Self-telemetry.
	scrapes       uint64
	lastScrapeDur time.Duration
}

type enabledCollector struct {
	Collector
	up labels.Labels // {collector="<name>"}
}

// New returns an exporter with the given collectors registered and enabled.
func New(cs ...Collector) *Exporter {
	e := &Exporter{
		collectors: map[string]Collector{},
		disabled:   map[string]bool{},
	}
	for _, c := range cs {
		e.Register(c)
	}
	return e
}

// Register adds a collector (replacing any with the same name).
func (e *Exporter) Register(c Collector) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.collectors[c.Name()] = c
	e.refreshLocked()
}

func (e *Exporter) refreshLocked() {
	e.enabled = nil
	for n, c := range e.collectors {
		if !e.disabled[n] {
			e.enabled = append(e.enabled, enabledCollector{c, labels.FromStrings("collector", n)})
		}
	}
	sort.Slice(e.enabled, func(i, j int) bool { return e.enabled[i].Name() < e.enabled[j].Name() })
}

// SetEnabled enables or disables a collector by name, mirroring the real
// exporter's --collector.<name> CLI flags.
func (e *Exporter) SetEnabled(name string, enabled bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.collectors[name]; !ok {
		return fmt.Errorf("exporter: unknown collector %q", name)
	}
	e.disabled[name] = !enabled
	e.refreshLocked()
	return nil
}

// CollectorNames lists registered collectors, sorted.
func (e *Exporter) CollectorNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.collectors))
	for n := range e.collectors {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Gather runs all enabled collectors and returns their families plus the
// exporter's self-telemetry. Collector failures surface as
// ceems_exporter_collector_up{collector=...} = 0 rather than failing the
// whole scrape.
func (e *Exporter) Gather() []*expofmt.Family {
	start := time.Now()
	e.mu.RLock()
	cs := e.enabled
	e.mu.RUnlock()

	out := make([]*expofmt.Family, 0, 16)
	colUp := &expofmt.Family{
		Name: "ceems_exporter_collector_up", Type: expofmt.TypeGauge,
		Help:    "1 when the collector succeeded on the last scrape.",
		Metrics: make([]expofmt.Metric, 0, len(cs)),
	}
	for _, c := range cs {
		fams, err := c.Collect()
		up := 1.0
		if err != nil {
			up = 0
		} else {
			out = append(out, fams...)
		}
		colUp.Metrics = append(colUp.Metrics, expofmt.Metric{Labels: c.up, Value: up})
	}
	out = append(out, colUp)

	e.mu.Lock()
	e.scrapes++
	e.lastScrapeDur = time.Since(start)
	scrapes := e.scrapes
	e.mu.Unlock()

	// HeapInuse is what holds objects plus what is reserved for them and
	// unused; runtime/metrics reports both without stopping the world,
	// which reading runtime.MemStats did on every scrape.
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	metrics.Read(heap)
	out = append(out,
		&expofmt.Family{
			Name: "ceems_exporter_scrapes_total", Type: expofmt.TypeCounter,
			Help:    "Number of scrapes served.",
			Metrics: []expofmt.Metric{{Value: float64(scrapes)}},
		},
		&expofmt.Family{
			Name: "ceems_exporter_memory_bytes", Type: expofmt.TypeGauge,
			Help:    "Exporter heap in use (paper claims 15-20 MB resident).",
			Metrics: []expofmt.Metric{{Value: float64(heap[0].Value.Uint64() + heap[1].Value.Uint64())}},
		},
	)
	return out
}

// ServeHTTP serves /metrics in exposition format with optional basic auth.
func (e *Exporter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if e.Username != "" {
		u, p, ok := r.BasicAuth()
		if !ok ||
			subtle.ConstantTimeCompare([]byte(u), []byte(e.Username)) != 1 ||
			subtle.ConstantTimeCompare([]byte(p), []byte(e.Password)) != 1 {
			w.Header().Set("WWW-Authenticate", `Basic realm="ceems"`)
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
	}
	// Exact-path match: a suffix check would also accept /foo/metrics and
	// quietly serve the exposition on paths that should 404.
	if r.URL.Path != "/metrics" && r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	body := e.render()
	_, _ = w.Write(*body) // a failed write is a scraper that went away
	bodyPool.Put(body)
}

// Render returns the full exposition payload as a string, for in-process
// scraping by large-scale simulations.
func (e *Exporter) Render() string {
	body := e.render()
	s := string(*body)
	bodyPool.Put(body)
	return s
}

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// render is the one renderer behind ServeHTTP and Render: Gather's
// families appended into a pooled buffer, which the caller puts back.
func (e *Exporter) render() *[]byte {
	body := bodyPool.Get().(*[]byte)
	*body = (*body)[:0]
	for _, f := range e.Gather() {
		*body = expofmt.AppendFamily(*body, f)
	}
	return body
}
