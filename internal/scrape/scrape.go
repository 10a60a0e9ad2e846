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
	"cmp"
	"context"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
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
// earlier. See docs/ARCHITECTURE.md, "The scrape edge".
type target struct {
	mu          sync.Mutex        // held for a whole scrape: one at a time per target
	healthKey   string            // "<job>/<target>"
	groupLabels map[string]string // the group labels base was built from
	// base is the target's label set; up and duration are base plus the
	// synthetic metric names.
	base, up, duration labels.Labels

	// series caches, under the bytes a series was exposed as, the label
	// set it is stored under. gen counts the scrapes that parsed; an entry
	// whose gen is behind was not exposed by the latest one.
	series map[string]*cachedSeries
	gen    uint64
}

// cachedSeries is one exposed series resolved to its storage identity. lset
// (exposed labels with the target's laid over them) is immutable and handed
// to Batch.Add as is, scrape after scrape.
type cachedSeries struct {
	lset labels.Labels
	hash uint64 // lset.Hash()
	gen  uint64 // the last scrape generation that appended it
}

type sample struct {
	series *cachedSeries
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
	dead    []*cachedSeries
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
	for _, s := range retired {
		sink.Add(s.lset, ts, model.StaleNaN())
	}
	sink.Add(st.up, ts, upVal)
	sink.Add(st.duration, ts, dur.Seconds())
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
		// gen starts at 1 so that a series cached by a scrape that then
		// failed to parse (gen 0) never reads as "appended last time".
		st = &target{healthKey: g.JobName + "/" + addr, gen: 1}
		m.targets[key] = st
	}
	return st
}

// rebase builds the target's label sets on first use, and again if the
// group's labels were changed since: every cached series then carries
// labels the target no longer has, so the cache is dropped and the series
// its last scrape exposed are returned to be marked stale.
func (st *target) rebase(g *TargetGroup, addr string) (retired []*cachedSeries) {
	if st.base != nil && maps.Equal(g.Labels, st.groupLabels) {
		return nil
	}
	for _, s := range st.series {
		if s.gen == st.gen {
			retired = append(retired, s)
		}
	}
	b := labels.NewBuilder(nil)
	b.Set("job", g.JobName)
	b.Set("instance", addr)
	for k, v := range g.Labels {
		b.Set(k, v)
	}
	st.groupLabels = maps.Clone(g.Labels)
	st.base = b.Labels()
	st.up = labels.NewBuilder(st.base).Set(labels.MetricName, "up").Labels()
	st.duration = labels.NewBuilder(st.base).Set(labels.MetricName, "scrape_duration_seconds").Labels()
	st.series = map[string]*cachedSeries{}
	return retired
}

// resolve returns the cached series for the tokenizer's current sample. A
// hit is one map lookup. A miss parses the labels, lays the target's over
// them (they win: honor_labels=false) and caches the result under a copy of
// the exposed bytes — which the label strings share, and the head shares in
// turn when it creates the series from them.
func (st *target) resolve(tok *expofmt.Tokenizer) *cachedSeries {
	if s := st.series[string(tok.Series)]; s != nil {
		return s
	}
	key, exposed := tok.Labels()
	b := labels.NewBuilder(exposed)
	for _, l := range st.base {
		b.Set(l.Name, l.Value)
	}
	s := &cachedSeries{lset: b.Labels()}
	s.hash = s.lset.Hash()
	st.series[key] = s
	return s
}

// scrapeOnce fetches, tokenizes and appends one payload. It is all or
// nothing: a fetch or parse error appends no sample, marks nothing stale
// and leaves the previous generation in place.
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
	st.gen++
	live := 0
	for _, sm := range sc.samples {
		sink.Add(sm.series.lset, sm.t, sm.v)
		if sm.series.gen != st.gen {
			sm.series.gen = st.gen
			live++
		}
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
	// Every cached series was appended again: nothing vanished, nothing to
	// walk. Otherwise mark and evict.
	if live != len(st.series) {
		sc.dead = st.markStale(sink, ts, sc.dead[:0])
	}
	if commitErr != nil {
		return n, fmt.Errorf("commit: %w", commitErr)
	}
	return n, nil
}

// markStale evicts every cached series the scrape that just ran did not
// append, and gives those the previous scrape did append a staleness marker
// so queries stop seeing them immediately (as Prometheus does). Eviction is
// what bounds the cache by what the target exposes.
func (st *target) markStale(sink Batch, ts int64, dead []*cachedSeries) []*cachedSeries {
	for key, s := range st.series {
		if s.gen == st.gen {
			continue
		}
		if s.gen == st.gen-1 {
			dead = append(dead, s)
		}
		delete(st.series, key)
	}
	if len(dead) == 0 {
		return dead
	}
	// Vanished bytes are not a vanished series: the same label set may
	// still be exposed under another spelling (label order, white space).
	// Match the survivors against the dead by hash, then by labels.
	slices.SortFunc(dead, func(a, b *cachedSeries) int { return cmp.Compare(a.hash, b.hash) })
	for _, s := range st.series {
		i, _ := slices.BinarySearchFunc(dead, s.hash, func(d *cachedSeries, h uint64) int { return cmp.Compare(d.hash, h) })
		for ; i < len(dead) && dead[i].hash == s.hash; i++ {
			if dead[i].lset.Equal(s.lset) {
				dead[i].gen = st.gen
			}
		}
	}
	for _, d := range dead {
		if d.gen != st.gen {
			sink.Add(d.lset, ts, model.StaleNaN())
		}
	}
	clear(dead)
	return dead
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
