package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/labels"
	"repro/internal/slurmsim"
	"repro/internal/tsdb"
)

type mixKind int

const (
	mixOpen      mixKind = iota // every request a first load
	mixRefresh                  // fixed dashboards redrawn beside ingest
	mixLongRange                // history through the block store
)

// scenario is one workload's fixed work. Sizes never depend on the commit
// under test; -seconds scales them linearly from the calibrated 10 s.
type scenario struct {
	name string
	seed int64

	topo       cluster.Topology
	users      int
	projects   int
	jobsPerDay float64

	// Set-up: ticks of fleet history ingested, and synthetic history shipped
	// to blocks, before anything is measured.
	historyTicks int
	backfill     *backfillSpec

	// Measured write path: ticks of 15 s, and the block lifecycle cadence
	// (shipEvery 0 = one pass after the queries).
	ingestTicks   int
	shipEvery     int
	blockRange    time.Duration
	headRetention time.Duration

	// Measured read path.
	mix    mixKind
	opens  int           // dashboard loads in the query stage (not mixRefresh)
	window time.Duration // dashboard time range

	reopens   int // close/reopen cycles timed for restart_replay_s
	setupReps int // set-ups timed for setup_s; the run measures on the last
}

var workloadNames = []string{"ingest_churn", "dash_cold", "dash_refresh", "longrange_blocks"}

// calibratedSeconds is the run length the sizes below were calibrated for on
// a 2-core machine: the measured phase of each workload takes about this
// long at the baseline commit.
const calibratedSeconds = 10

// fleetTopo is the cluster.JeanZay(0.03) shape with the class mix kept:
// 32 CPU nodes are scraped, 10 GPU nodes of 8 GPUs push.
func fleetTopo() cluster.Topology {
	return cluster.Topology{
		Name: clusterName, IntelNodes: 24, AMDNodes: 8, GPUIncludedNodes: 6, GPUExcludedNodes: 4,
		GPUsPerNode: 8, GPUKinds: cluster.JeanZay(1).GPUKinds,
	}
}

// scenarioFor returns the named workload. tiny shrinks it to a smoke test:
// 8 nodes, 20 ticks, some 70 requests.
func scenarioFor(name string, seed int64, seconds int, tiny bool) (scenario, error) {
	sc := scenario{
		name: name, seed: seed,
		topo: fleetTopo(), users: 50, projects: 10,
		// 20 000 jobs/day on Jean-Zay's 1400 nodes is 14 per node per day;
		// ten times that per node makes label turnover visible in minutes.
		jobsPerDay: 6000,
		blockRange: 15 * time.Minute, headRetention: 30 * time.Minute,
		window: 15 * time.Minute, reopens: 11, setupReps: 3,
	}
	switch name {
	case "ingest_churn":
		sc.historyTicks, sc.ingestTicks, sc.shipEvery = 20, 200, 80
		sc.blockRange, sc.headRetention = 20*time.Minute, 40*time.Minute
		sc.mix, sc.opens = mixOpen, 300
	case "dash_cold":
		sc.historyTicks, sc.ingestTicks = 60, 100
		sc.mix, sc.opens = mixOpen, 2500
	case "dash_refresh":
		sc.historyTicks, sc.ingestTicks = 60, 120
		sc.mix = mixRefresh
	case "longrange_blocks":
		sc.topo = cluster.Topology{Name: clusterName, IntelNodes: 12, AMDNodes: 4, GPUIncludedNodes: 3, GPUExcludedNodes: 2,
			GPUsPerNode: 8, GPUKinds: cluster.JeanZay(1).GPUKinds}
		sc.jobsPerDay = 3000
		sc.historyTicks, sc.ingestTicks = 20, 100
		sc.backfill = &backfillSpec{days: 30, instances: 12, sliceDays: 2}
		sc.blockRange, sc.headRetention = 2*time.Hour, 2*time.Hour
		sc.mix, sc.opens = mixLongRange, 700
	default:
		return sc, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	scale := func(n int) int {
		if n = n * seconds / calibratedSeconds; n < 8 {
			n = 8
		}
		return n
	}
	sc.ingestTicks, sc.opens = scale(sc.ingestTicks), scale(sc.opens)
	if tiny {
		sc.topo = cluster.Topology{Name: clusterName, IntelNodes: 4, AMDNodes: 2, GPUIncludedNodes: 1, GPUExcludedNodes: 1,
			GPUsPerNode: 2, GPUKinds: cluster.JeanZay(1).GPUKinds}
		sc.jobsPerDay = 8000
		sc.historyTicks, sc.ingestTicks, sc.opens = 10, 20, 10
		sc.reopens, sc.setupReps = 1, 1
		if sc.shipEvery > 0 {
			sc.shipEvery = 10
		}
		if sc.backfill != nil {
			sc.backfill = &backfillSpec{days: 3, instances: 2, sliceDays: 1}
		}
	}
	return sc, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one self-check of the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// inputs proves two runs ran the same workload.
type inputs struct {
	JobsSubmitted int `json:"jobs_submitted"`
	HeadSeries    int `json:"head_series"`
	Requests      int `json:"requests"`
	// RequestsPlanned is the length of the seeded request list the digest
	// covers; fewer are issued only when the run hit its wall-clock deadline.
	RequestsPlanned int    `json:"requests_planned"`
	RequestDigest   string `json:"request_digest"`
	Nodes           int    `json:"nodes"`
	IngestTicks     int    `json:"ingest_ticks"`
	Clients         int    `json:"clients"`
	NProc           int    `json:"nproc"`
	GoVersion       string `json:"go_version"`
	WALFlush        string `json:"wal_flush_policy"`
}

// report is everything one run produced.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   int               `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Inputs    inputs            `json:"inputs"`
	Checks    []check           `json:"checks"`
	PhaseS    float64           `json:"measured_phase_s"`
	PhaseCPUS float64           `json:"measured_phase_cpu_s"`
	// Slowdown is the median of the calibrator's factors over the run: how
	// much slower than the reference machine this one ran.
	Slowdown float64 `json:"machine_slowdown"`

	// attribution is the traced run's per-layer table.
	attribution string
}

func (r *report) put(name string, v float64, unit string) {
	if _, dup := r.Metrics[name]; dup {
		panic("metric emitted twice: " + name)
	}
	r.Metrics[name] = metric{v, unit}
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
		r.Correct = false
	}
	r.Checks = append(r.Checks, c)
}

// setUp builds a stack and brings it to the state the measured phase starts
// from: history backfilled and shipped, the fleet ingested for historyTicks,
// the units table current.
func setUp(ctx context.Context, sc scenario, dir string, rec *recorder) (*stack, *backfiller, error) {
	s, err := newStack(sc, dir, rec)
	if err != nil {
		return nil, nil, err
	}
	var bf *backfiller
	if spec := sc.backfill; spec != nil {
		// Ship all but the last slice, uncompacted: the measured phase
		// appends and ships the last one, then compacts and downsamples the
		// whole history, so block maintenance is timed on fixed input.
		perSlice := spec.sliceDays * 24 * 60
		from := simStart.Add(-time.Duration(spec.days) * 24 * time.Hour)
		bf = newBackfiller(*spec, sc.seed, from)
		for d := 0; d+spec.sliceDays < spec.days; d += spec.sliceDays {
			if _, err := bf.appendSlice(s.db, perSlice); err != nil {
				s.close()
				return nil, nil, err
			}
			s.ship(bf.next.Add(-backfillCadence))
		}
	}
	for i := 0; i < sc.historyTicks; i++ {
		s.step(ctx)
	}
	s.update(ctx, s.clock.now())
	if s.log.failed > 0 {
		s.close()
		return nil, nil, fmt.Errorf("set-up: %d of %d operations failed", s.log.failed, s.log.attempted)
	}
	return s, bf, nil
}

// run executes one workload and returns its report. outDir receives the
// traced run's artefacts.
func run(ctx context.Context, sc scenario, seconds int, trace bool, workDir, outDir string) (*report, error) {
	rep := &report{Workload: sc.name, Seed: sc.seed, Trace: trace, Seconds: seconds, Correct: true, Metrics: map[string]metric{}}
	var rec *recorder
	reps := sc.setupReps
	if trace {
		rec, reps = newRecorder(), 1
	}

	// Set-up, timed. The measured phase runs on the last stack built.
	var (
		s      *stack
		bf     *backfiller
		setups timings
	)
	for i := 0; i < reps; i++ {
		if s != nil {
			s.close()
		}
		dir := filepath.Join(workDir, fmt.Sprintf("%s-%d", sc.name, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		w := startWatch()
		var err error
		if s, bf, err = setUp(ctx, sc, dir, rec); err != nil {
			return nil, err
		}
		setups.add(w.stop())
	}
	defer s.close()

	// Everything below is measured against a baseline taken now.
	s.log = ingestLog{}
	if rec != nil {
		rec.mu.Lock()
		rec.spans, rec.stages = nil, nil
		rec.mu.Unlock()
		rec.cur.Store(0)
	}
	base := s.reg.Gather()
	s.cleanedBase = s.updater.SeriesDeleted
	epoch0 := s.db.AppendEpoch()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	phase, phaseStart := startWatch(), time.Now()
	// Past this point in wall time the query stage stops opening dashboards.
	deadline := phaseStart.Add(3 * time.Duration(seconds) * time.Second)

	if bf != nil {
		if _, err := bf.appendSlice(s.db, sc.backfill.sliceDays*24*60); err != nil {
			return nil, err
		}
		s.maintain(s.clock.now())
	}
	var ql queryLog
	var planted int
	var planned []*request
	if sc.mix == mixRefresh {
		ql = s.refreshLoop(ctx, rep)
		for i := range ql.answers {
			planned = append(planned, ql.answers[i].req)
		}
	} else {
		for i := 0; i < sc.ingestTicks; i++ {
			s.step(ctx)
		}
		// One more aggregation pass, so every started job is in the units
		// table the LB checks ownership against.
		s.update(ctx, s.clock.now())
		var opens [][]*request
		rng := rand.New(rand.NewSource(sc.seed ^ 0x5eed))
		if sc.mix == mixLongRange {
			opens = longRangeMix(rng, *sc.backfill, s.clock.now(), sc.opens)
		} else {
			opens = openMix(rng, s.openableJobs(), s.clock.now(), sc.window, sc.opens, sc.users)
		}
		rng.Shuffle(len(opens), func(i, j int) { opens[i], opens[j] = opens[j], opens[i] })
		for _, o := range opens {
			planned = append(planned, o...)
		}
		var ms1, ms2 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		ql = s.runQueries(ctx, opens, deadline)
		runtime.ReadMemStats(&ms2)
		ql.allocBytes = ms2.TotalAlloc - ms1.TotalAlloc
		for i := range ql.answers {
			if ql.answers[i].req.want == http.StatusForbidden {
				planted++
			}
		}
		s.verifySampled(rep, ql.answers)
	}
	if bf == nil {
		s.maintain(s.clock.now())
	}
	phaseCPU := phase.seconds()
	rep.PhaseS, rep.PhaseCPUS, rep.Slowdown = time.Since(phaseStart).Seconds(), phaseCPU, median(cal.factors)

	fams := s.reg.Gather()
	delta := func(name string, labelPairs ...string) float64 {
		return counter(fams, name, labelPairs...) - counter(base, name, labelPairs...)
	}
	appended := float64(s.db.AppendEpoch() - epoch0)
	pc, lc := s.qcache.Stats(), s.lb.Cache.Stats()
	mergeNS := 0.0
	if trace {
		mergeNS = s.probeMergeReplicas() // needs the live head
	}
	cs := s.census()
	rs, err := s.restart(rep)
	if err != nil {
		return nil, err
	}

	// Failures: operations that failed plus wrong answers from the checks.
	l := &s.log
	rep.Attempted = l.attempted + len(ql.answers)
	rep.Failed = l.failed
	lat := [numClasses]timings{}
	var allRange timings
	for i := range ql.answers {
		a := &ql.answers[i]
		if !a.ok() {
			rep.Failed++
			continue
		}
		if a.status != http.StatusOK {
			continue
		}
		lat[a.req.class].add(a.dur)
		if a.req.class == classLight || a.req.class == classHeavy {
			allRange.add(a.dur)
		}
	}
	for _, c := range rep.Checks {
		if !c.OK {
			rep.Failed++
		}
	}

	// Self-checks on the counters: what the harness saw acknowledged must be
	// what the program counted.
	rep.check("scrape_acked_equals_counter", float64(l.scrape.total()) == delta("telemetry_scrape_samples_committed_total"),
		"harness %d, telemetry_scrape_samples_committed_total %v", l.scrape.total(), delta("telemetry_scrape_samples_committed_total"))
	rep.check("push_acked_equals_counter", float64(l.push.total()) == delta("telemetry_remotewrite_samples_appended_total"),
		"harness %d, telemetry_remotewrite_samples_appended_total %v", l.push.total(), delta("telemetry_remotewrite_samples_appended_total"))
	rep.check("denied_equals_planted", int(s.lb.Denied()) == planted, "lb denied %d, planted %d", s.lb.Denied(), planted)
	switch sc.mix {
	case mixRefresh:
		sp := ratio(float64(pc.Splices), float64(pc.Hits+pc.Misses+pc.Splices))
		rep.check("refresh_traffic_splices", sp >= minSpliceRatio, "splice ratio %.3f below %.2f", sp, minSpliceRatio)
	default:
		miss := ratio(float64(pc.Misses+lc.Misses), float64(pc.Hits+pc.Misses+pc.Splices+lc.Hits+lc.Misses))
		rep.check("cold_traffic_misses", miss >= minMissRatio, "miss ratio %.3f below %.2f", miss, minMissRatio)
	}

	rep.Inputs = inputs{
		JobsSubmitted: s.fleet.gen.Submitted, HeadSeries: cs.headSeries,
		Requests: len(ql.answers), RequestsPlanned: len(planned), RequestDigest: fmt.Sprintf("%016x", requestDigest(planned)),
		Nodes: len(s.fleet.nodes), IngestTicks: sc.ingestTicks, Clients: 1,
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		WALFlush: "v2 records, flush per commit, fsync on rotation/checkpoint/close (tsdb.DefaultOptions)",
	}

	if !trace {
		rep.put("setup_s", median(setups), "s")
		rep.put("scrape_samples_per_s", ratio(float64(l.scrape.total()), l.scrape.dur.sum()), "1/s")
		rep.put("push_samples_per_s", ratio(float64(l.push.total()), l.push.dur.sum()), "1/s")
		rep.put("rules_eval_p50_ms", 1e3*median(l.rules.dur), "ms")
		rep.put("wal_bytes_per_sample", ratio(delta("telemetry_tsdb_wal_flush_bytes_total"), appended), "B")
		rep.put("block_bytes_per_sample", ratio(float64(cs.blockBytes), float64(cs.blockRawSamples)), "B")
		rep.put("heap_bytes_per_series", ratio(float64(cs.heapAlloc), float64(cs.headSeries)), "B")
		rep.put("range_p50_ms", 1e3*median(lat[classLight]), "ms")
		rep.put("range_heavy_p50_ms", 1e3*median(lat[classHeavy]), "ms")
		rep.put("range_p95_ms", 1e3*quantile(allRange, 0.95), "ms")
		rep.put("instant_p50_ms", 1e3*median(lat[classInstant]), "ms")
		rep.put("meta_p50_ms", 1e3*median(lat[classMeta]), "ms")
		rep.put("queries_per_s", ratio(float64(len(ql.answers)), ql.busy.Seconds()), "1/s")
		return rep, nil
	}
	var ms3 runtime.MemStats
	runtime.ReadMemStats(&ms3)
	s.layerMetrics(rep, layerInputs{
		fams: fams, base: base, ql: ql, lat: lat, allRange: allRange, census: cs, restart: rs,
		promCache: pc, lbCache: lc, mergeNS: mergeNS, requests: planned,
		phaseCPU: phaseCPU,
		appended: appended, allocBytes: ms3.TotalAlloc - ms0.TotalAlloc, gcFraction: ms3.GCCPUFraction,
	})
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := rec.writeJSONL(filepath.Join(outDir, "spans-"+sc.name+".jsonl")); err != nil {
		return nil, err
	}
	return rep, nil
}

// Cache-mix guards: if the traffic stops being what the workload says it is,
// the run is invalid. The floors were fixed at calibration, well below the
// baseline's 0.999 (cold) and 0.70 (refresh).
const (
	minMissRatio   = 0.98
	minSpliceRatio = 0.60
)

// openableJobs are the jobs a user can open a dashboard for: started, and
// in the units table (so the ownership check can pass).
func (s *stack) openableJobs() []*slurmsim.Job {
	var out []*slurmsim.Job
	for _, j := range s.fleet.sched.JobsSince(time.Time{}) {
		if !j.StartTime.IsZero() {
			out = append(out, j)
		}
	}
	return out
}

// verifySampled compares the sampled answers (the ones whose body was kept)
// with direct evaluation. Nothing has touched the head since they were read.
func (s *stack) verifySampled(rep *report, answers []answer) {
	for i := range answers {
		if a := &answers[i]; a.body != nil && a.ok() {
			err := s.verify(a)
			rep.check("answer_matches_engine", err == nil, "%s: %v", a.req.key(), err)
		}
	}
}

// refreshLoop is dash_refresh's measured phase: reads beside writes on the
// same head. Every tick runs the write path, then one viewer redraws the six
// dashboards up to the tick's time; every fourth tick a second viewer
// repeats the refresh. Sampled answers are checked on the spot, before the
// next tick changes the head.
func (s *stack) refreshLoop(ctx context.Context, rep *report) queryLog {
	boards := refreshBoards(s.openableJobs(), s.clock.now())
	cl := s.newClient()
	var ql queryLog
	var ms1, ms2 runtime.MemStats
	for i := 0; i < s.sc.ingestTicks; i++ {
		s.step(ctx)
		reqs := refreshMix(boards, s.clock.now(), s.sc.window)
		if i%4 == 3 {
			reqs = append(reqs, reqs...)
		}
		runtime.ReadMemStats(&ms1)
		for _, r := range reqs {
			ql.add(cl.do(ctx, r, len(ql.answers)))
			if a := &ql.answers[len(ql.answers)-1]; a.body != nil {
				if a.ok() {
					err := s.verify(a)
					rep.check("answer_matches_engine", err == nil, "%s: %v", a.req.key(), err)
				}
				a.body = nil
			}
		}
		runtime.ReadMemStats(&ms2)
		ql.allocBytes += ms2.TotalAlloc - ms1.TotalAlloc
	}
	return ql
}

// censusResult is the storage accounting taken after the measured phase.
type censusResult struct {
	heapAlloc       uint64
	headSeries      int
	blockBytes      int64
	blockRawSamples int
	blocks          int
}

// census empties both caches, forces two GCs and reads the heap, then sizes
// the block directories and the WAL on disk.
func (s *stack) census() censusResult {
	var c censusResult
	s.qcache.Purge()
	s.lb.Cache.Purge()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.heapAlloc = ms.HeapAlloc
	c.headSeries = s.db.Stats().NumSeries
	c.blockBytes, _ = dirBytes(filepath.Join(s.dir, "blocks"))
	for _, m := range s.store.BlockMetas() {
		c.blocks++
		if m.Resolution == 0 {
			c.blockRawSamples += m.Stats.NumSamples
		}
	}
	return c
}

// restartResult is what the close/reopen cycles measured.
type restartResult struct {
	reopen  timings
	samples int
	segs    int
	replayS float64
}

var everySeries = labels.MustMatcher(labels.MatchRegexp, labels.MetricName, ".+")

func headDigest(db *tsdb.DB) (uint64, int, error) {
	series, err := db.Select(-(1 << 62), 1<<62, everySeries)
	if err != nil {
		return 0, 0, err
	}
	d, n := seriesDigest(series)
	return d, n, nil
}

// restart closes the head and reopens it from its WAL directory, timing
// tsdb.Open; after every reopen the head must be byte-identical to what was
// closed.
func (s *stack) restart(rep *report) (restartResult, error) {
	var rs restartResult
	want, wantN, err := headDigest(s.db)
	if err != nil {
		return rs, err
	}
	if err := s.db.Close(); err != nil {
		return rs, fmt.Errorf("close head: %w", err)
	}
	s.db = nil
	for i := 0; i < s.sc.reopens; i++ {
		// Replay allocates the whole head; start every cycle from a
		// collected heap so a GC cycle lands inside all of them or none.
		runtime.GC()
		w := startWatch()
		db, err := tsdb.Open(s.dbOpts)
		if err != nil {
			return rs, fmt.Errorf("reopen head: %w", err)
		}
		rs.reopen.add(w.stop())
		if ws, ok := db.WALStats(); ok {
			rs.samples, rs.segs = ws.Replay.Samples, ws.Replay.Segments
			rs.replayS += ws.Replay.Duration.Seconds()
		}
		got, gotN, err := headDigest(db)
		rep.check("head_identical_after_reopen", err == nil && got == want && gotN == wantN,
			"reopen %d: %d samples digest %016x, want %d samples digest %016x (%v)", i, gotN, got, wantN, want, err)
		if err := db.Close(); err != nil {
			return rs, fmt.Errorf("close reopened head: %w", err)
		}
	}
	return rs, nil
}
