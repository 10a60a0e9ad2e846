package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/emissions"
	"repro/internal/expofmt"
	"repro/internal/labels"
	"repro/internal/lb"
	"repro/internal/model"
	"repro/internal/promapi"
	"repro/internal/promql"
	"repro/internal/querycache"
	"repro/internal/relstore"
	"repro/internal/remotewrite"
	"repro/internal/resourcemanager"
	"repro/internal/rules"
	"repro/internal/rules/ceemsrules"
	"repro/internal/scrape"
	"repro/internal/telemetry"
	"repro/internal/thanos"
	"repro/internal/tsdb"
)

const (
	scrapeInterval = 15 * time.Second
	rulesEvery     = 4  // ticks: the paper's 1 m rule interval
	updateEvery    = 20 // ticks: the API server's 5 m aggregation pass
	adminUser      = "admin"
	zone           = "FR"
)

// simStart is the virtual clock's origin for every run.
var simStart = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// opLog records every timed operation of one kind: the CPU time it consumed
// (see stopwatch), a count (samples) and whether spans were recorded during
// it.
type opLog struct {
	dur      timings
	n        []int
	recorded []bool
}

func (l *opLog) add(w stopwatch, n int, recorded bool) {
	l.dur.add(w.stop())
	l.n = append(l.n, n)
	l.recorded = append(l.recorded, recorded)
}

func (l *opLog) total() int {
	t := 0
	for _, n := range l.n {
		t += n
	}
	return t
}

// ingestLog is what the tick loop measured since the last reset.
type ingestLog struct {
	scrape, push, rules, update opLog
	ship, compact, downsample   timings
	gen                         time.Duration
	pushBytes                   int64
	failed                      int // failed scrapes, pushes, rule passes, updates, maintenance
	attempted                   int
	samplesWritten              int // by rule evaluations
}

// handlerTransport is an http.RoundTripper that serves the request by
// calling the handler, on the caller's goroutine, with no socket in between.
// The stack's HTTP surfaces keep their semantics — methods, headers, status
// codes, bodies, the LB's proxy hop — but the kernel's TCP path and
// net/http's connection handling, which are not this repository's code and
// whose CPU cost the sandbox moves independently of everything else, are
// left out of every timing.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body == nil {
		req.Body = http.NoBody
	}
	w := &responseBuffer{header: http.Header{}, status: http.StatusOK}
	t.h.ServeHTTP(w, req)
	return &http.Response{
		Status: fmt.Sprintf("%d %s", w.status, http.StatusText(w.status)), StatusCode: w.status,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: w.header, Body: io.NopCloser(&w.body), ContentLength: int64(w.body.Len()),
		Request: req,
	}, nil
}

// responseBuffer is the http.ResponseWriter a handlerTransport hands to the
// handler.
type responseBuffer struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *responseBuffer) Header() http.Header         { return w.header }
func (w *responseBuffer) WriteHeader(code int)        { w.status = code }
func (w *responseBuffer) Write(p []byte) (int, error) { return w.body.Write(p) }

// The hosts the in-process transports answer for.
const (
	promURL = "http://promapi.bench"
	lbURL   = "http://lb.bench"
)

// stack is the whole pipeline wired in one process from the packages'
// public constructors, the way cmd/prometheus_sim and cluster.New wire it:
// fleet → exporters → scrape manager (in-process fetcher) and remote-write
// push → WAL-backed head → recording rules → API-server updater →
// sidecar/block store → PromQL engine + result cache behind the query API →
// load balancer with ownership checks → HTTP clients. The HTTP hops go
// through handlerTransport.
type stack struct {
	sc    scenario
	dir   string
	clock vclock
	tick  int
	rec   *recorder
	reg   *telemetry.Registry

	fleet     *fleet
	cpuNodes  int
	gpuNodes  []*fleetNode
	db        *tsdb.DB
	dbOpts    tsdb.Options
	scrapeMgr *scrape.Manager
	rulesMgr  *rules.Manager
	updater   *api.Updater
	apiSrv    *api.Server
	store     *thanos.Store
	sidecar   *thanos.Sidecar
	querier   *thanos.Querier
	engine    *promql.Engine
	qcache    *querycache.Cache
	lb        *lb.LB
	traced    *tracedStorage // the query API's storage wrapper; nil untraced

	// lbHandler is what a dashboard client talks to; agent is the push
	// agent's client, straight to the query API's /api/v1/write.
	lbHandler http.Handler
	agent     *http.Client

	// coldMin/coldMax bound the block store's data; the storage wrapper
	// uses them to tell head-only reads from reads that reach a block.
	coldMin, coldMax atomic.Int64
	scrapeErrs       atomic.Int64
	cleanedBase      int64 // updater.SeriesDeleted when the measured phase began
	log              ingestLog
	// scrapePayloads and pushBody are inputs captured for the probes.
	scrapePayloads []string
	pushBody       []byte
}

// exporterFetcher scrapes the in-process exporters directly: the same
// render → parse → append path as over a socket, without 100 listeners.
type exporterFetcher struct {
	byName  map[string]*fleetNode
	capture func(string)
}

func (f *exporterFetcher) Fetch(_ context.Context, target string) (io.ReadCloser, error) {
	n, ok := f.byName[target]
	if !ok {
		return nil, fmt.Errorf("no exporter for target %q", target)
	}
	body := n.exp.Render()
	if f.capture != nil {
		f.capture(body)
	}
	return io.NopCloser(strings.NewReader(body)), nil
}

// newStack builds the pipeline for a scenario under dir. rec is nil for the
// untraced run; with a recorder the storage, fetcher, batch and HTTP
// boundaries are wrapped and every stage is driven serially.
func newStack(sc scenario, dir string, rec *recorder) (*stack, error) {
	s := &stack{sc: sc, dir: dir, rec: rec, reg: telemetry.NewRegistry()}
	s.clock.set(simStart)
	telemetry.RegisterProcess(s.reg)

	var err error
	s.fleet, err = newFleet(sc.topo, sc.seed, sc.users, sc.projects, sc.jobsPerDay, simStart)
	if err != nil {
		return nil, err
	}
	s.dbOpts = tsdb.DefaultOptions()
	s.dbOpts.WALDir = filepath.Join(dir, "wal")
	s.dbOpts.Telemetry = s.reg
	if s.db, err = tsdb.Open(s.dbOpts); err != nil {
		return nil, err
	}

	// Scrape side: CPU nodes, one target group per hardware class.
	fetcher := &exporterFetcher{byName: map[string]*fleetNode{}}
	groups := map[cluster.NodeClass]*scrape.TargetGroup{}
	var groupList []*scrape.TargetGroup
	for i := range s.fleet.nodes {
		n := &s.fleet.nodes[i]
		if isGPUClass(n.class) {
			s.gpuNodes = append(s.gpuNodes, n)
			continue
		}
		s.cpuNodes++
		fetcher.byName[n.name] = n
		g := groups[n.class]
		if g == nil {
			g = &scrape.TargetGroup{JobName: "ceems", Interval: scrapeInterval,
				Labels: map[string]string{"nodeclass": string(n.class), "cluster": clusterName}}
			groups[n.class] = g
			groupList = append(groupList, g)
		}
		g.Targets = append(g.Targets, n.name)
	}
	newBatch := func() scrape.Batch { return s.db.Appender() }
	var fetch scrape.Fetcher = fetcher
	if rec != nil {
		fetcher.capture = func(body string) {
			if len(s.scrapePayloads) < 256 {
				s.scrapePayloads = append(s.scrapePayloads, body)
			}
		}
		fetch = &tracedFetcher{rec: rec, inner: fetcher}
		newBatch = func() scrape.Batch { return &tracedBatch{rec: rec, inner: s.db.Appender()} }
	}
	s.scrapeMgr = &scrape.Manager{
		Dest: s.db, Fetcher: fetch, Groups: groupList, NewBatch: newBatch,
		Now:     s.clock.now,
		OnError: func(string, error) { s.scrapeErrs.Add(1) },
	}
	if rec != nil {
		s.scrapeMgr.Parallelism = 1
	}
	s.scrapeMgr.InstrumentTelemetry(s.reg)

	// Cold tier and the fan-in querier.
	if s.store, err = thanos.NewStore(filepath.Join(dir, "blocks")); err != nil {
		return nil, err
	}
	s.store.Instrument(s.reg)
	s.sidecar = &thanos.Sidecar{DB: s.db, Store: s.store, HeadRetention: sc.headRetention}
	s.querier = &thanos.Querier{Hot: s.db, Cold: s.store}
	s.coldMin.Store(1 << 62)
	s.coldMax.Store(-(1 << 62))

	var hot, fanIn storage = s.db, s.querier
	var ruleDest rules.Appender = s.db
	if rec != nil {
		never := func(int64, int64) bool { return false }
		hot = &tracedStorage{rec: rec, inner: s.db, coldSpan: never}
		s.traced = &tracedStorage{rec: rec, inner: s.querier, coldSpan: func(mint, maxt int64) bool {
			return mint <= s.coldMax.Load() && maxt >= s.coldMin.Load()
		}}
		fanIn = s.traced
		ruleDest = &tracedAppender{rec: rec, inner: s.db}
	}

	// Recording rules over the hot head, as prometheus_sim runs them.
	ruleEngine := promql.NewEngine()
	ruleEngine.InstrumentTelemetry(s.reg)
	s.rulesMgr = &rules.Manager{
		Engine: rules.NewEngine(ruleEngine), Query: hot, Dest: ruleDest,
		Groups: ceemsrules.AllGroups(ceemsrules.DefaultOptions()),
	}

	// API server: units table, ownership, short-job cleanup.
	relDB, err := relstore.Open("")
	if err != nil {
		return nil, err
	}
	for _, schema := range api.Schemas() {
		if err := relDB.CreateTable(schema); err != nil {
			return nil, err
		}
	}
	s.updater = &api.Updater{
		Store: relDB,
		Fetchers: []resourcemanager.Fetcher{
			&resourcemanager.Local{Cluster: clusterName, Kind: model.ManagerSLURM, Source: s.fleet.sched},
		},
		Query: fanIn, Factor: emissions.OWID{}, Zone: zone,
		ShortUnitCutoff: time.Minute, Cleaner: s.db,
	}
	s.apiSrv = &api.Server{Store: relDB, Updater: s.updater}
	if err := s.apiSrv.AddAdmin(adminUser); err != nil {
		return nil, err
	}

	// Query API with the result cache and push ingest.
	s.engine = promql.NewEngine()
	s.engine.InstrumentTelemetry(s.reg)
	s.qcache = querycache.New(querycache.Options{
		MaxBytes: 64 << 20, Head: s.db, Lookback: s.engine.LookbackDelta,
		MaxSteps: s.engine.MaxSteps, Telemetry: s.reg, Name: "promapi",
	})
	handler := &promapi.Handler{
		Engine: s.engine, Query: fanIn, Now: s.clock.now, Timeout: 2 * time.Minute,
		Cache: s.qcache, Metrics: s.reg, Queries: &telemetry.QueryLog{},
		Ingest: &remotewrite.Receiver{NewBatch: newBatch, Telemetry: s.reg},
	}
	var promHandler http.Handler = handler.Mux()
	if rec != nil {
		promHandler = rec.traceHTTP(layerPromAPI, promHandler)
	}

	// Load balancer: ownership through the API server, blob cache on.
	backend, err := lb.NewBackend(promURL)
	if err != nil {
		return nil, err
	}
	s.lb = &lb.LB{
		Backends: []*lb.Backend{backend}, Strategy: lb.RoundRobin,
		Checker:   &lb.APIServerChecker{Server: s.apiSrv},
		Transport: handlerTransport{promHandler},
		Cache: querycache.New(querycache.Options{
			MaxBytes: 16 << 20, Clock: s.clock.now, Telemetry: s.reg, Name: "lb",
		}),
		CacheTTL: scrapeInterval, CacheNow: s.clock.now,
	}
	s.lb.InstrumentTelemetry(s.reg)
	s.lbHandler = s.lb
	if rec != nil {
		s.lbHandler = rec.traceHTTP(layerLB, s.lbHandler)
	}
	s.agent = &http.Client{Transport: handlerTransport{promHandler}}
	return s, nil
}

// close closes the stores and removes the run's files.
func (s *stack) close() {
	if s.db != nil {
		_ = s.db.Close() // the run is over; the directory is removed next
	}
	if s.store != nil {
		_ = s.store.Close()
	}
	_ = os.RemoveAll(s.dir)
}

// recordOp switches span recording for the next operation of a kind: every
// other one is recorded. Untraced runs record nothing.
func (s *stack) recordOp(l *opLog) bool {
	on := s.rec != nil && len(l.dur)%2 == 0
	if s.rec != nil {
		s.rec.on.Store(on)
	}
	return on
}

// step runs one 15 s tick of the write path: advance the platform, scrape
// the CPU nodes, push the GPU nodes, ingest the emission factor, and run
// rules, updater and block maintenance when their cadence falls due.
func (s *stack) step(ctx context.Context) {
	s.tick++
	s.clock.add(scrapeInterval)
	now := s.clock.now()
	s.advanceFleet()
	s.scrapePass(ctx)
	if len(s.gpuNodes) > 0 {
		s.pushPass(ctx)
	}
	if f, err := (emissions.OWID{}).Factor(ctx, zone); err == nil {
		ls := labels.FromStrings(labels.MetricName, "ceems_emission_factor_gco2_kwh", "zone", zone)
		_ = s.db.Append(ls, now.UnixMilli(), f.GramsPerKWh) // one series, strictly increasing time
	}
	if s.tick%rulesEvery == 0 {
		s.evalRules(now)
	}
	if s.tick%updateEvery == 0 {
		s.update(ctx, now)
	}
	if s.sc.shipEvery > 0 && s.tick%s.sc.shipEvery == 0 {
		s.maintain(now)
	}
}

// advanceFleet steps the simulated platform; its cost is reported, never
// counted in a metric.
func (s *stack) advanceFleet() {
	w := startWatch()
	s.fleet.step(scrapeInterval)
	s.log.gen += w.stop()
}

// scrapePass is one ScrapeAll over the CPU nodes. Its sample count is the
// head's append-epoch delta: nothing else appends while it runs.
func (s *stack) scrapePass(ctx context.Context) {
	l := &s.log
	on := s.recordOp(&l.scrape)
	errsBefore := s.scrapeErrs.Load()
	before := s.db.AppendEpoch()
	id, prev := s.rec.enter(layerScrape, "pass")
	w := startWatch()
	s.scrapeMgr.ScrapeAll(ctx)
	l.scrape.add(w, int(s.db.AppendEpoch()-before), on)
	s.rec.leave(id, prev, 0, 0, "")
	l.attempted += s.cpuNodes
	l.failed += int(s.scrapeErrs.Load() - errsBefore)
}

// pushPass is one remote-write agent round: gather every GPU node's
// exporter, stamp timestamps and target labels, frame one batch per node
// and POST the stream to /api/v1/write.
func (s *stack) pushPass(ctx context.Context) {
	l := &s.log
	on := s.recordOp(&l.push)
	root, prev := s.rec.enter(layerClient, "push")
	w := startWatch()
	ts := s.clock.now().UnixMilli()
	var body bytes.Buffer
	enc := remotewrite.NewEncoder(&body, true)
	var encErr error
	for _, n := range s.gpuNodes {
		gid, gprev := s.rec.enter(layerExporter, "gather")
		fams := n.exp.Gather()
		s.rec.leave(gid, gprev, 0, 0, "")
		stamped := make([]*expofmt.Family, len(fams))
		for i, f := range fams {
			cp := *f
			cp.Metrics = make([]expofmt.Metric, len(f.Metrics))
			for j, m := range f.Metrics {
				b := labels.NewBuilder(m.Labels)
				b.Set("job", "ceems").Set("instance", n.name).
					Set("nodeclass", string(n.class)).Set("cluster", clusterName)
				cp.Metrics[j] = expofmt.Metric{Labels: b.Labels(), Value: m.Value, TS: ts}
			}
			stamped[i] = &cp
		}
		eid, eprev := s.rec.enter(layerRemoteWrite, "encode")
		err := enc.WriteBatch(stamped)
		s.rec.leave(eid, eprev, 0, 0, "")
		if err != nil && encErr == nil {
			encErr = err
		}
	}
	if s.rec != nil && s.pushBody == nil {
		s.pushBody = append([]byte(nil), body.Bytes()...)
	}
	size := body.Len()
	appended, status, err := s.postWrite(ctx, &body)
	s.rec.leave(root, prev, int64(appended), 0, "")
	l.attempted++
	switch {
	case err != nil || encErr != nil || status != http.StatusOK:
		l.failed++
	default:
		l.push.add(w, appended, on)
		l.pushBytes += int64(size)
	}
}

func (s *stack) postWrite(ctx context.Context, body io.Reader) (appended, status int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, promURL+"/api/v1/write", body)
	if err != nil {
		return 0, 0, err
	}
	resp, err := s.agent.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var ack struct {
		Data struct {
			Appended int `json:"appended"`
		} `json:"data"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return 0, resp.StatusCode, err
	}
	return ack.Data.Appended, resp.StatusCode, nil
}

func (s *stack) evalRules(now time.Time) {
	l := &s.log
	on := s.recordOp(&l.rules)
	before := s.db.AppendEpoch()
	id, prev := s.rec.enter(layerRules, "eval_all")
	w := startWatch()
	err := s.rulesMgr.EvalAll(now)
	written := int(s.db.AppendEpoch() - before)
	l.rules.add(w, written, on)
	s.rec.leave(id, prev, int64(written), 0, "")
	l.samplesWritten += written
	l.attempted++
	if err != nil {
		l.failed++
	}
}

func (s *stack) update(ctx context.Context, now time.Time) {
	l := &s.log
	on := s.recordOp(&l.update)
	id, prev := s.rec.enter(layerAPI, "update")
	w := startWatch()
	err := s.updater.Update(ctx, now)
	l.update.add(w, 0, on)
	s.rec.leave(id, prev, 0, 0, "")
	l.attempted++
	if err != nil {
		l.failed++
	}
}

// timedMaint runs one block-lifecycle step, timed into its own series.
func (s *stack) timedMaint(name string, into *timings, f func() error) {
	if s.rec != nil {
		s.rec.on.Store(true)
	}
	id, prev := s.rec.enter(layerThanos, name)
	w := startWatch()
	err := f()
	into.add(w.stop())
	s.rec.leave(id, prev, 0, 0, "")
	s.log.attempted++
	if err != nil {
		s.log.failed++
	}
}

// ship cuts the head since the previous ship into a block, uploads it and
// truncates the head to its retention.
func (s *stack) ship(now time.Time) {
	s.timedMaint("ship", &s.log.ship, func() error { return s.sidecar.Ship(now) })
	s.noteColdRange()
}

// compactDownsample compacts the store, then downsamples blocks older than
// two (5 m) and ten (1 h) block ranges, as prometheus_sim's lifecycle loop
// does after every ship.
func (s *stack) compactDownsample(now time.Time) {
	s.timedMaint("compact", &s.log.compact, func() error {
		_, err := s.store.Compact(s.db.Tombstones())
		return err
	})
	s.timedMaint("downsample", &s.log.downsample, func() error {
		if _, err := s.store.Downsample(now.Add(-2*s.sc.blockRange).UnixMilli(), 5*time.Minute); err != nil {
			return err
		}
		_, err := s.store.Downsample(now.Add(-10*s.sc.blockRange).UnixMilli(), time.Hour)
		return err
	})
	s.noteColdRange()
}

// maintain is one background block pass: ship, compact, downsample. It
// starts from a collected heap: a pass is a few large allocations, and
// whether a GC cycle happens to land inside one would otherwise decide a
// fifth of its cost.
func (s *stack) maintain(now time.Time) {
	runtime.GC()
	s.ship(now)
	s.compactDownsample(now)
}

func (s *stack) noteColdRange() {
	for _, m := range s.store.BlockMetas() {
		if m.MinTime < s.coldMin.Load() {
			s.coldMin.Store(m.MinTime)
		}
		if m.MaxTime > s.coldMax.Load() {
			s.coldMax.Store(m.MaxTime)
		}
	}
}

// counter reads one un-labelled family's value from the registry.
func counter(fams []*expofmt.Family, name string, labelPairs ...string) float64 {
	want := labels.FromStrings(labelPairs...)
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for _, m := range f.Metrics {
			if labels.Compare(m.Labels, want) == 0 {
				return m.Value
			}
		}
	}
	return 0
}
