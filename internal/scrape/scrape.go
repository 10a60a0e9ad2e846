// Package scrape implements the Prometheus scrape loop: it polls exporter
// endpoints on an interval, parses the text exposition format and appends
// the samples to storage with target labels attached, plus the synthetic
// `up` and `scrape_duration_seconds` series.
//
// Targets are fetched through the Fetcher interface. HTTPFetcher speaks
// real HTTP (with optional basic auth); simulations can scrape thousands of
// in-process exporters by providing a direct Fetcher, avoiding socket
// exhaustion while exercising the same parse/append path.
package scrape

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"maps"
	"net/http"
	"sync"
	"time"

	"repro/internal/expofmt"
	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workpool"
)

// Appender receives scraped samples; *tsdb.DB satisfies it.
type Appender interface {
	Append(lset labels.Labels, t int64, v float64) error
}

// Batch buffers samples for bulk commits. *tsdb.Appender satisfies it
// structurally: a scrape commits in O(1) shard-lock round-trips (one bulk
// commit for the metric samples, one small commit for staleness markers
// and synthetics) instead of a lock round-trip per sample. Commit skips
// out-of-order samples (a scrape that overlaps a retry), returns how many
// samples landed, and must leave the batch reusable, as tsdb.Appender does.
type Batch interface {
	Add(lset labels.Labels, t int64, v float64)
	Commit() (int, error)
}

// EntryBatch is a Batch that can stage a sample by ref: AddEntry stages a
// sample of the series e.Labels names, and storage keeps its handle on that
// series in e, so a later pass reaches the series without its labels.
// *tsdb.Appender implements it. A producer finds it by type assertion and
// stages e.Labels through Add on a batch without it.
type EntryBatch interface {
	Batch
	AddEntry(e *labels.CacheEntry, t int64, v float64)
}

// Stage adds a sample of e's series to b, by ref when eb, b's entry path, is
// not nil.
func Stage(b Batch, eb EntryBatch, e *labels.CacheEntry, t int64, v float64) {
	if eb != nil {
		eb.AddEntry(e, t, v)
	} else {
		b.Add(e.Labels, t, v)
	}
}

// Fetcher retrieves the exposition payload of one target.
type Fetcher interface {
	Fetch(ctx context.Context, target string) (io.ReadCloser, error)
}

// HTTPFetcher fetches over HTTP with optional basic auth.
type HTTPFetcher struct {
	Client   *http.Client
	Username string
	Password string
}

// Fetch issues GET http://<target>/metrics unless target already looks like
// a URL.
func (f *HTTPFetcher) Fetch(ctx context.Context, target string) (io.ReadCloser, error) {
	url := target
	if len(url) < 7 || (url[:7] != "http://" && (len(url) < 8 || url[:8] != "https://")) {
		url = "http://" + target + "/metrics"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if f.Username != "" {
		req.SetBasicAuth(f.Username, f.Password)
	}
	client := f.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("scrape: %s returned %s", url, resp.Status)
	}
	return resp.Body, nil
}

// TargetGroup is a set of targets scraped with common settings, mirroring a
// Prometheus scrape config. The paper relies on distinct groups per
// hardware class ("grouping them in different scrape target groups").
type TargetGroup struct {
	// JobName becomes the `job` label.
	JobName string `yaml:"job_name"`
	// Targets are exporter addresses (host:port or full URLs).
	Targets []string `yaml:"targets"`
	// Labels are attached to every sample of the group.
	Labels map[string]string `yaml:"labels"`
	// Interval between scrapes; default 15s.
	Interval time.Duration `yaml:"interval"`
	// Timeout per scrape; default 10s.
	Timeout time.Duration `yaml:"timeout"`
}

// Manager drives scrape loops for a set of target groups.
type Manager struct {
	Dest    Appender
	Fetcher Fetcher
	Groups  []*TargetGroup
	// HonorTimestamps controls whether explicit exposition timestamps are
	// kept; when false (default) the scrape time is used, as Prometheus
	// does by default.
	HonorTimestamps bool
	// Now supplies the scrape timestamp; defaults to time.Now.
	Now func() time.Time
	// OnError receives scrape errors; nil drops them. ScrapeAll may invoke
	// it concurrently from its worker pool.
	OnError func(target string, err error)
	// Parallelism sets ScrapeAll's worker count (may exceed GOMAXPROCS —
	// scraping is I/O-bound); 0 means GOMAXPROCS, 1 forces the old
	// sequential behavior.
	Parallelism int
	// NewBatch supplies the buffered batch of one scrape, so a whole pass
	// (metrics, staleness markers and the synthetic up/duration series)
	// commits to storage in O(1) bulk round-trips. Wire it to tsdb.DB's
	// batch Appender: func() scrape.Batch { return db.Appender() }. When
	// nil, the pass is buffered here and handed to Dest sample by sample
	// at each commit.
	//
	// Staleness tracking is exposition-based: a series that appears in the
	// scrape counts as present even when its (honored) timestamp is
	// dropped as out-of-order at Commit. Marking it stale and reviving it
	// next scrape would only make the marker flap.
	NewBatch func() Batch

	mu     sync.Mutex
	health map[string]TargetHealth
	// targets holds what is kept per target between scrapes.
	targets map[targetKey]*target

	metrics *scrapeMetrics
}

type targetKey struct{ job, addr string }

// target is the state of one scrape target between scrapes: everything a
// scrape would otherwise derive again from text that was identical 15 s
// earlier. See docs/ARCHITECTURE.md, "The ingest edges".
type target struct {
	mu          sync.Mutex        // held for a whole scrape: one at a time per target
	healthKey   string            // "<job>/<target>"
	groupLabels map[string]string // the group labels base was built from
	// base is the target's label set; up and duration are the entries of
	// base plus the synthetic metric names, which the target owns outright.
	base         labels.Labels
	up, duration *labels.CacheEntry

	// cache maps the bytes a series was exposed as to the label set it is
	// stored under: exposed labels with the target's laid over them.
	cache labels.SeriesCache
}

type sample struct {
	series *labels.CacheEntry
	t      int64
	v      float64
}

// scratch is the working memory of one scrape in flight: pooled, so the
// manager holds as many payload buffers as it has scrapes running, not one
// per target.
type scratch struct {
	body    bytes.Buffer // the fetched payload
	tok     expofmt.Tokenizer
	samples []sample
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// scrapeMetrics is the manager's instrumentation; nil disables it (the
// scrape path pays one branch per pass).
type scrapeMetrics struct {
	scrapes       *telemetry.Counter
	failures      *telemetry.Counter
	samples       *telemetry.Counter
	commitSeconds *telemetry.Histogram
}

// InstrumentTelemetry registers the manager's instruments on reg. Call once
// before the first scrape; scrapes running concurrently with registration
// would race on the metrics pointer.
func (m *Manager) InstrumentTelemetry(reg *telemetry.Registry) {
	m.metrics = &scrapeMetrics{
		scrapes: reg.Counter("telemetry_scrape_passes_total",
			"Completed scrape passes (one target, one interval tick)."),
		failures: reg.Counter("telemetry_scrape_failures_total",
			"Scrape passes that failed to fetch, parse or durably commit."),
		samples: reg.Counter("telemetry_scrape_samples_committed_total",
			"Samples landed in storage by scrape commits (batch mode counts Commit's answer)."),
		commitSeconds: reg.Histogram("telemetry_scrape_commit_seconds",
			"Latency of one scrape batch commit (metric samples or the staleness/synthetics tail).",
			telemetry.IOBuckets),
	}
}

// TargetHealth is the status of one target.
type TargetHealth struct {
	Up           bool
	LastScrape   time.Time
	LastDuration time.Duration
	LastError    string
	Samples      int
}

// Run scrapes all groups on their intervals until ctx is cancelled.
func (m *Manager) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for _, g := range m.Groups {
		interval := g.Interval
		if interval <= 0 {
			interval = 15 * time.Second
		}
		for _, target := range g.Targets {
			wg.Add(1)
			go func(g *TargetGroup, target string) {
				defer wg.Done()
				tick := time.NewTicker(interval)
				defer tick.Stop()
				for {
					select {
					case <-ctx.Done():
						return
					case <-tick.C:
						m.ScrapeTarget(ctx, g, target)
					}
				}
			}(g, target)
		}
	}
	wg.Wait()
}

// ScrapeAll scrapes every target of every group once; simulations use this
// with a virtual clock instead of Run. Targets are scraped concurrently on
// a bounded worker pool (Parallelism workers; see that field), which both
// matches Run's per-target goroutines and exercises the sharded TSDB head
// the way a real fleet does; each target writes disjoint series (distinct
// instance labels), so concurrency cannot reorder samples within a series.
// OnError may be invoked from multiple goroutines.
func (m *Manager) ScrapeAll(ctx context.Context) {
	type job struct {
		g      *TargetGroup
		target string
	}
	var jobs []job
	for _, g := range m.Groups {
		for _, target := range g.Targets {
			jobs = append(jobs, job{g, target})
		}
	}
	workpool.Do(len(jobs), m.Parallelism, func(i int) {
		m.ScrapeTarget(ctx, jobs[i].g, jobs[i].target)
	})
}

// destBatch is the Batch of a Manager without NewBatch: Add buffers, Commit
// hands each sample to Dest and counts those that landed. An Append error
// skips the sample — the out-of-order tolerance tsdb.Appender's Commit has.
type destBatch struct {
	dest Appender
	buf  []destSample
}

type destSample struct {
	lset labels.Labels
	t    int64
	v    float64
}

func (b *destBatch) Add(lset labels.Labels, t int64, v float64) {
	b.buf = append(b.buf, destSample{lset, t, v})
}

func (b *destBatch) Commit() (int, error) {
	n := 0
	for _, s := range b.buf {
		if b.dest.Append(s.lset, s.t, s.v) == nil {
			n++
		}
	}
	b.buf = b.buf[:0]
	return n, nil
}

// commit flushes a pass's staged samples, returning how many landed (Commit
// skips out-of-order samples).
func (m *Manager) commit(b Batch) (int, error) {
	if m.metrics == nil {
		return b.Commit()
	}
	start := time.Now()
	n, err := b.Commit()
	m.metrics.commitSeconds.ObserveSince(start)
	if n > 0 {
		m.metrics.samples.Add(uint64(n))
	}
	return n, err
}

// ScrapeTarget performs one scrape of one target, appending samples and the
// synthetic up/duration series. The pass lands in two commits: the metric
// samples, then staleness markers and synthetics.
func (m *Manager) ScrapeTarget(ctx context.Context, g *TargetGroup, target string) {
	now := time.Now
	if m.Now != nil {
		now = m.Now
	}
	timeout := g.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	sctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	st := m.target(g, target)
	st.mu.Lock()
	defer st.mu.Unlock()
	retired := st.rebase(g, target)

	var sink Batch
	if m.NewBatch != nil {
		sink = m.NewBatch()
	} else {
		sink = &destBatch{dest: m.Dest}
	}
	start := now()
	ts := start.UnixMilli()
	samples, err := m.scrapeOnce(sctx, sink, st, target, ts)
	dur := time.Since(start)
	if m.Now != nil {
		dur = 0 // wall-clock duration is meaningless under a virtual clock
	}

	upVal := 1.0
	errStr := ""
	if err != nil {
		upVal = 0
		errStr = err.Error()
		if m.OnError != nil {
			m.OnError(target, err)
		}
	}
	for _, ls := range retired {
		sink.Add(ls, ts, model.StaleNaN())
	}
	eb, _ := sink.(EntryBatch)
	Stage(sink, eb, st.up, ts, upVal)
	Stage(sink, eb, st.duration, ts, dur.Seconds())
	// Second, small commit: staleness markers plus the synthetics. Their
	// out-of-order skips are silent, but a commit ERROR (e.g. a lost write
	// quorum) marks the target down just like the metric commit would —
	// none of this scrape's samples are reliably durable.
	if _, cerr := m.commit(sink); cerr != nil {
		if m.OnError != nil {
			m.OnError(target, cerr)
		}
		upVal = 0
		if errStr == "" {
			errStr = fmt.Sprintf("commit: %v", cerr)
		}
	}

	if mm := m.metrics; mm != nil {
		mm.scrapes.Inc()
		if upVal == 0 {
			mm.failures.Inc()
		}
	}

	m.mu.Lock()
	m.health[st.healthKey] = TargetHealth{
		Up: upVal == 1, LastScrape: start, LastDuration: dur,
		LastError: errStr, Samples: samples,
	}
	m.mu.Unlock()
}

// target returns the kept state of a target, creating it on first use.
func (m *Manager) target(g *TargetGroup, addr string) *target {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := targetKey{g.JobName, addr}
	st := m.targets[key]
	if st == nil {
		if m.targets == nil {
			m.targets = map[targetKey]*target{}
			m.health = map[string]TargetHealth{}
		}
		st = &target{healthKey: g.JobName + "/" + addr}
		m.targets[key] = st
	}
	return st
}

// rebase builds the target's label sets on first use, and again if the
// group's labels were changed since: every cached series then carries
// labels the target no longer has, so the cache is swept as by a round that
// produced nothing, and the series its last scrape exposed are returned to
// be marked stale.
func (st *target) rebase(g *TargetGroup, addr string) (retired []labels.Labels) {
	if st.base != nil && maps.Equal(g.Labels, st.groupLabels) {
		return nil
	}
	st.cache.Sweep(func(ls labels.Labels) { retired = append(retired, ls) })
	b := labels.NewBuilder(nil)
	b.Set("job", g.JobName)
	b.Set("instance", addr)
	for k, v := range g.Labels {
		b.Set(k, v)
	}
	st.groupLabels = maps.Clone(g.Labels)
	st.base = b.Labels()
	st.up = labels.NewCacheEntry(labels.NewBuilder(st.base).Set(labels.MetricName, "up").Labels())
	st.duration = labels.NewCacheEntry(labels.NewBuilder(st.base).Set(labels.MetricName, "scrape_duration_seconds").Labels())
	return retired
}

// resolve returns the cache entry for the tokenizer's current sample. A hit
// is one map lookup. A miss parses the labels, lays the target's over them
// (they win: honor_labels=false) and caches the result under a copy of the
// exposed bytes — which the label strings share, and the head shares in
// turn when it creates the series from them.
func (st *target) resolve(tok *expofmt.Tokenizer) *labels.CacheEntry {
	if e := st.cache.Get(tok.Series); e != nil {
		return e
	}
	key, exposed := tok.Labels()
	b := labels.NewBuilder(exposed)
	for _, l := range st.base {
		b.Set(l.Name, l.Value)
	}
	return st.cache.Put(key, b.Labels())
}

// scrapeOnce fetches, tokenizes and appends one payload. It is all or
// nothing: a fetch or parse error appends no sample, stamps nothing and
// sweeps nothing, so the next good scrape marks what vanished since the
// last good one.
func (m *Manager) scrapeOnce(ctx context.Context, sink Batch, st *target, addr string, ts int64) (int, error) {
	rc, err := m.Fetcher.Fetch(ctx, addr)
	if err != nil {
		return 0, err
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.body.Reset()
	_, err = sc.body.ReadFrom(rc)
	rc.Close()
	if err != nil {
		return 0, err
	}
	sc.samples = sc.samples[:0]
	sc.tok.Reset(sc.body.Bytes())
	for sc.tok.Next() {
		if sc.tok.Meta != "" {
			continue
		}
		t := ts
		if m.HonorTimestamps && sc.tok.TS != 0 {
			t = sc.tok.TS
		}
		sc.samples = append(sc.samples, sample{st.resolve(&sc.tok), t, sc.tok.Value})
	}
	if err := sc.tok.Err(); err != nil {
		return 0, err
	}
	eb, _ := sink.(EntryBatch)
	for _, sm := range sc.samples {
		Stage(sink, eb, sm.series, sm.t, sm.v)
		st.cache.Stamp(sm.series)
	}
	// Commit the metric samples on their own so n is exactly what landed
	// (Commit skips out-of-order duplicates, which can occur when a scrape
	// overlaps a retry). The staleness markers staged below ride the
	// scrape's second commit together with the synthetic series.
	// A commit error is a failed scrape, not a skippable hiccup: a
	// ring-routed batch that misses its write quorum was NOT durably
	// ingested, and the target must show down with the error in its
	// health — so it propagates like a fetch failure after the staleness
	// bookkeeping below.
	n, commitErr := m.commit(sink)
	// A series the previous scrape appended and this one did not gets a
	// staleness marker, so queries stop seeing it at once (as Prometheus
	// does).
	st.cache.Sweep(func(ls labels.Labels) { sink.Add(ls, ts, model.StaleNaN()) })
	if commitErr != nil {
		return n, fmt.Errorf("commit: %w", commitErr)
	}
	return n, nil
}

// Health returns a copy of the per-target health map keyed by
// "<job>/<target>".
func (m *Manager) Health() map[string]TargetHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]TargetHealth, len(m.health))
	for k, v := range m.health {
		out[k] = v
	}
	return out
}
