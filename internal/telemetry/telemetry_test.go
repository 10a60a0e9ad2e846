package telemetry

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/expofmt"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("telemetry_test_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("telemetry_test_gauge", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *QueryTrace
	var l *QueryLog
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveSince(time.Now())
	tr.ObserveStage("parse", time.Millisecond)
	rq := l.Begin("instant", "up")
	rq.End(nil)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if rq.Trace() != nil || tr.HeaderValue() != "" {
		t.Fatal("nil trace accessors must be empty")
	}
	st := l.Status()
	if len(st.Active) != 0 || len(st.Slow) != 0 {
		t.Fatal("nil QueryLog status must be empty")
	}
}

func TestRegistryDedupes(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("telemetry_dedupe_total", "help", "cache", "x")
	b := r.Counter("telemetry_dedupe_total", "other help", "cache", "x")
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	other := r.Counter("telemetry_dedupe_total", "help", "cache", "y")
	if a == other {
		t.Fatal("different label values must return distinct counters")
	}
	a.Add(2)
	other.Add(7)
	var x, y bool
	for _, f := range r.Gather() {
		if f.Name != "telemetry_dedupe_total" {
			continue
		}
		for _, m := range f.Metrics {
			switch m.Labels.Get("cache") {
			case "x":
				x = m.Value == 2
			case "y":
				y = m.Value == 7
			}
		}
	}
	if !x || !y {
		t.Fatal("both label variants must render with their own values")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("telemetry_kind_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("telemetry_kind_total", "help")
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1abc", "has space", "has-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metric name %q must panic", bad)
				}
			}()
			r.Counter(bad, "help")
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("odd label pairs must panic")
			}
		}()
		r.Counter("telemetry_odd_total", "help", "only_key")
	}()
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("telemetry_hist_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// le buckets are cumulative: 0.1→1, 1→3, 10→4, +Inf→5.
	want := map[string]float64{"0.1": 1, "1": 3, "10": 4, "+Inf": 5}
	var sawBuckets, sawSum, sawCount bool
	for _, f := range r.Gather() {
		switch f.Name {
		case "telemetry_hist_seconds_bucket":
			sawBuckets = true
			if f.Type != expofmt.TypeCounter {
				t.Errorf("bucket family type = %s, want counter", f.Type)
			}
			for _, m := range f.Metrics {
				le := m.Labels.Get("le")
				if m.Value != want[le] {
					t.Errorf("bucket le=%s = %v, want %v", le, m.Value, want[le])
				}
			}
			if len(f.Metrics) != len(want) {
				t.Errorf("bucket count = %d, want %d", len(f.Metrics), len(want))
			}
		case "telemetry_hist_seconds_sum":
			sawSum = true
		case "telemetry_hist_seconds_count":
			sawCount = true
			if f.Metrics[0].Value != 5 {
				t.Errorf("_count = %v, want 5", f.Metrics[0].Value)
			}
		}
	}
	if !sawBuckets || !sawSum || !sawCount {
		t.Fatalf("missing histogram families: bucket=%v sum=%v count=%v", sawBuckets, sawSum, sawCount)
	}
}

func TestFuncInstrumentsAndReplacement(t *testing.T) {
	r := NewRegistry()
	v := 7.0
	r.CounterFunc("telemetry_fn_total", "help", func() float64 { return v })
	r.GaugeFunc("telemetry_fn_gauge", "help", func() float64 { return -v })
	find := func(name string) float64 {
		for _, f := range r.Gather() {
			if f.Name == name {
				return f.Metrics[0].Value
			}
		}
		t.Fatalf("family %s not rendered", name)
		return 0
	}
	if find("telemetry_fn_total") != 7 || find("telemetry_fn_gauge") != -7 {
		t.Fatal("func instruments must read through at gather time")
	}
	// Re-registration replaces the closure (rebuilt component, fresh state).
	r.CounterFunc("telemetry_fn_total", "help", func() float64 { return 100 })
	if find("telemetry_fn_total") != 100 {
		t.Fatal("re-registered CounterFunc must replace the previous fn")
	}
}

func TestRenderRoundTripsThroughExpofmt(t *testing.T) {
	r := NewRegistry()
	RegisterProcess(r)
	r.Counter("telemetry_roundtrip_total", "Counts things.", "cache", "default").Add(42)
	r.Histogram("telemetry_roundtrip_seconds", "Times things.", LatencyBuckets).Observe(0.003)
	text := r.Render()
	fams, err := expofmt.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("own exposition output must parse: %v\n%s", err, text)
	}
	byName := map[string]*expofmt.Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	c, ok := byName["telemetry_roundtrip_total"]
	if !ok || c.Type != expofmt.TypeCounter {
		t.Fatalf("parsed counter family missing or mistyped: %+v", c)
	}
	if c.Metrics[0].Value != 42 || c.Metrics[0].Labels.Get("cache") != "default" {
		t.Fatalf("parsed counter = %+v", c.Metrics[0])
	}
	b, ok := byName["telemetry_roundtrip_seconds_bucket"]
	if !ok || len(b.Metrics) != len(LatencyBuckets)+1 {
		t.Fatalf("parsed bucket family wrong: %+v", b)
	}
	if _, ok := byName["telemetry_process_goroutines"]; !ok {
		t.Fatal("process gauges must round-trip")
	}
}

func TestConcurrentInstrumentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("telemetry_race_total", "help")
	h := r.Histogram("telemetry_race_seconds", "help", LatencyBuckets)
	g := r.Gauge("telemetry_race_gauge", "help")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.001)
				g.Add(1)
				// Concurrent registration of an existing key must be safe too.
				r.Counter("telemetry_race_total", "help")
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Gather()
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 8000 || h.Count() != 8000 || g.Value() != 8000 {
		t.Fatalf("lost updates: counter=%d hist=%d gauge=%v", c.Value(), h.Count(), g.Value())
	}
}

func TestQueryTraceAccumulatesStages(t *testing.T) {
	tr := &QueryTrace{}
	tr.ObserveStage("parse", 10*time.Millisecond)
	tr.ObserveStage("eval", 20*time.Millisecond)
	tr.ObserveStage("eval", 30*time.Millisecond) // spliced query: same stage twice
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %+v, want 2 entries", spans)
	}
	if spans[0].Stage != "parse" || spans[1].Stage != "eval" {
		t.Fatalf("span order = %+v, want first-occurrence order", spans)
	}
	if got := spans[1].Seconds; got < 0.049 || got > 0.051 {
		t.Fatalf("eval span = %v, want ~0.05 accumulated", got)
	}
	hv := tr.HeaderValue()
	if hv != "parse=0.010000 eval=0.050000" {
		t.Fatalf("header = %q", hv)
	}
}

func TestTraceContextPlumbing(t *testing.T) {
	tr := &QueryTrace{}
	ctx := ContextWithTrace(t.Context(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom must return the attached trace")
	}
	if TraceFrom(t.Context()) != nil {
		t.Fatal("TraceFrom on a bare context must be nil")
	}
	if got := ContextWithTrace(t.Context(), nil); TraceFrom(got) != nil {
		t.Fatal("attaching a nil trace must be a no-op")
	}
}

func TestQueryLogActiveAndSlowRing(t *testing.T) {
	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	l := &QueryLog{
		SlowThreshold: 100 * time.Millisecond,
		Now:           func() time.Time { return clock },
	}
	// An in-flight query shows up as active.
	rq := l.Begin("range", "rate(x[5m])")
	clock = clock.Add(50 * time.Millisecond)
	st := l.Status()
	if len(st.Active) != 1 || st.Active[0].Query != "rate(x[5m])" || st.Active[0].Kind != "range" {
		t.Fatalf("active = %+v", st.Active)
	}
	if got := st.Active[0].AgeSeconds; got < 0.049 || got > 0.051 {
		t.Fatalf("age = %v, want ~0.05", got)
	}
	// Fast query: leaves active, skips the slow ring.
	rq.End(nil)
	if st = l.Status(); len(st.Active) != 0 || len(st.Slow) != 0 {
		t.Fatalf("fast query leaked into status: %+v", st)
	}
	// One slow query more than the ring holds overflows it; newest first,
	// oldest gone.
	const n = DefaultSlowCapacity + 1
	for i := range n {
		rq = l.Begin("instant", fmt.Sprintf("slow%d", i))
		clock = clock.Add(200 * time.Millisecond)
		var err error
		if i == n-1 {
			err = errors.New("deadline exceeded")
		}
		rq.End(err)
	}
	st = l.Status()
	if st.SlowTotal != n {
		t.Fatalf("slow_total = %d, want %d", st.SlowTotal, n)
	}
	if len(st.Slow) != DefaultSlowCapacity {
		t.Fatalf("slow ring holds %d, want %d", len(st.Slow), DefaultSlowCapacity)
	}
	for i, sq := range st.Slow {
		if want := fmt.Sprintf("slow%d", n-1-i); sq.Query != want {
			t.Fatalf("slow ring [%d] = %q, want %q", i, sq.Query, want)
		}
	}
	if st.Slow[0].Error != "deadline exceeded" {
		t.Fatalf("slow error = %q", st.Slow[0].Error)
	}
	if st.SlowThresholdSeconds != 0.1 {
		t.Fatalf("threshold = %v, want 0.1", st.SlowThresholdSeconds)
	}
}

func TestQueryLogThresholdDisabled(t *testing.T) {
	clock := time.Unix(0, 0)
	l := &QueryLog{Now: func() time.Time { return clock }}
	rq := l.Begin("instant", "up")
	clock = clock.Add(time.Hour)
	rq.End(nil)
	if st := l.Status(); len(st.Slow) != 0 || st.SlowTotal != 0 {
		t.Fatalf("zero threshold must disable the slow log: %+v", st)
	}
}

// The process gauges come from one runtime/metrics read per gather (no
// stop-the-world): names and HELP unchanged, the heap figure is MemStats'
// HeapInuse, and the GC counter moves with the collector.
func TestRegisterProcessReadsRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterProcess(r)
	value := func(name, help string) float64 {
		t.Helper()
		for _, f := range r.Gather() {
			if f.Name == name {
				if f.Help != help {
					t.Errorf("%s HELP = %q, want %q", name, f.Help, help)
				}
				return f.Metrics[0].Value
			}
		}
		t.Fatalf("%s not exported", name)
		return 0
	}
	const heapHelp, gcHelp = "Heap bytes in use (runtime.MemStats.HeapInuse).", "Completed GC cycles."
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap := value("telemetry_process_heap_inuse_bytes", heapHelp)
	if want := float64(ms.HeapInuse); heap < want/2 || heap > want*2 {
		t.Errorf("heap in use = %v, MemStats.HeapInuse = %v", heap, want)
	}
	before := value("telemetry_process_gc_cycles_total", gcHelp)
	if before < float64(ms.NumGC) {
		t.Errorf("gc cycles = %v, MemStats.NumGC already %d", before, ms.NumGC)
	}
	runtime.GC()
	if after := value("telemetry_process_gc_cycles_total", gcHelp); after < before+1 {
		t.Errorf("gc cycles %v -> %v across a forced collection", before, after)
	}
}
