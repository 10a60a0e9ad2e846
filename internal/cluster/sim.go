package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/config"
	"repro/internal/emissions"
	"repro/internal/exporter"
	"repro/internal/gpusim"
	"repro/internal/hw"
	"repro/internal/labels"
	"repro/internal/lb"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/querycache"
	"repro/internal/relstore"
	"repro/internal/resourcemanager"
	"repro/internal/rules"
	"repro/internal/rules/ceemsrules"
	"repro/internal/scrape"
	"repro/internal/slurmsim"
	"repro/internal/telemetry"
	"repro/internal/thanos"
	"repro/internal/tsdb"
)

// simTime wraps the simulated wall clock.
type simTime struct{ t time.Time }

// Sim is the assembled platform.
type Sim struct {
	Topo Topology
	// Cfg is the configuration the platform was assembled from. The tsdb
	// scrape interval is the base tick; every other cadence is a multiple.
	Cfg config.Config

	Sched *slurmsim.Scheduler
	// DB is the hot TSDB in single-node mode; nil when clustered.
	DB *tsdb.DB
	// Ring is the replicated storage layer when Cfg.Ring.Nodes > 1;
	// nil in single-node mode.
	Ring      *RingDB
	Cold      *thanos.Store
	Sidecar   *thanos.Sidecar
	Querier   *thanos.Querier
	Store     *relstore.DB
	Updater   *api.Updater
	APIServer *api.Server
	LB        *lb.LB
	Gen       *WorkloadGen

	scrapeMgr *scrape.Manager
	rulesMgr  *rules.Manager
	exporters map[string]*exporter.Exporter
	clock     time.Time
	tick      int64
	// Errors collects subsystem errors during stepping.
	Errors []string
}

// exporterFetcher scrapes the in-process exporters directly, avoiding
// thousands of real sockets while exercising the same render/parse path.
type exporterFetcher struct{ sim *Sim }

func (f *exporterFetcher) Fetch(_ context.Context, target string) (io.ReadCloser, error) {
	exp, ok := f.sim.exporters[target]
	if !ok {
		return nil, fmt.Errorf("cluster: no exporter for target %q", target)
	}
	return io.NopCloser(strings.NewReader(exp.Render())), nil
}

// gpuMapProvider feeds the exporter's GPU-map collector from the
// scheduler's binding table.
type gpuMapProvider struct {
	sched *slurmsim.Scheduler
	node  *hw.Node
}

func (p *gpuMapProvider) GPUOrdinalsByUnit() map[string][]exporter.GPUBinding {
	gpus := p.node.GPUs()
	out := map[string][]exporter.GPUBinding{}
	for id, ords := range p.sched.GPUBindingsOnNode(p.node.Spec.Name) {
		for _, ord := range ords {
			uuid := ""
			if ord < len(gpus) {
				uuid = gpus[ord].UUID
			}
			out[id] = append(out[id], exporter.GPUBinding{Ordinal: ord, UUID: uuid})
		}
	}
	return out
}

// New assembles a simulation of the topology from the configuration: the
// tsdb, thanos, ring, api_server, emissions, cluster and sim sections. With
// ring.nodes > 1 a consistent-hash ring of that many TSDB nodes replaces
// the single hot TSDB: scrapes route through quorum batch appends, queries
// scatter-gather across replicas, and there is no cold tier (each node
// prunes its head to tsdb.retention instead).
//
// reg, when not nil, receives the stack's self-instrumentation: the
// single-node TSDB internals, the scrape manager, and (in cluster mode) the
// ring's quorum commit and membership metrics. Ring member TSDBs are not
// individually instrumented — their series would collide on one registry;
// the ring-level metrics cover the replicated path.
func New(topo Topology, cfg config.Config, reg *telemetry.Registry) (*Sim, error) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	nodesByClass, err := topo.buildNodes(simTime{start})
	if err != nil {
		return nil, err
	}
	sim := &Sim{
		Topo: topo, Cfg: cfg, clock: start,
		exporters: map[string]*exporter.Exporter{},
	}
	factor, err := emissions.FromConfig(cfg.Emissions, sim.Now)
	if err != nil {
		return nil, err
	}

	// Partitions: one per node class present.
	var parts []*slurmsim.Partition
	var cpuParts, gpuParts []string
	for _, class := range Classes() {
		nodes := nodesByClass[class]
		if len(nodes) == 0 {
			continue
		}
		pname := "part-" + string(class)
		parts = append(parts, &slurmsim.Partition{Name: pname, Nodes: nodes})
		if class == ClassIntel || class == ClassAMD {
			cpuParts = append(cpuParts, pname)
		} else {
			gpuParts = append(gpuParts, pname)
		}
	}
	sim.Sched, err = slurmsim.NewScheduler(topo.Name, start, parts...)
	if err != nil {
		return nil, err
	}

	// Storage: one hot TSDB (node ""), or a replicated ring of them, which
	// journal under <wal_dir>/<node> and stay uninstrumented.
	openDB := func(node string) (*tsdb.DB, error) {
		o := tsdb.DefaultOptions()
		o.OutOfOrderWindow = cfg.TSDB.OOOWindow.Milliseconds()
		if node == "" {
			o.Telemetry = reg
		}
		if cfg.TSDB.WALDir != "" {
			o.WALDir = filepath.Join(cfg.TSDB.WALDir, node)
		}
		return tsdb.Open(o)
	}
	if cfg.Ring.Nodes > 1 {
		rf := cfg.Ring.ReplicationFactor
		if rf <= 0 {
			rf = min(3, cfg.Ring.Nodes)
		}
		w := cfg.Ring.WriteQuorum
		if w <= 0 {
			w = rf/2 + 1
		}
		nodeNames := make([]string, cfg.Ring.Nodes)
		for i := range nodeNames {
			nodeNames[i] = fmt.Sprintf("tsdb-%d", i)
		}
		sim.Ring, err = NewRingDB(rf, w, 0, openDB, nodeNames...)
		if err != nil {
			return nil, fmt.Errorf("cluster: open ring: %w", err)
		}
		if reg != nil {
			sim.Ring.InstrumentTelemetry(reg)
		}
	} else if sim.DB, err = openDB(""); err != nil {
		return nil, fmt.Errorf("cluster: open tsdb: %w", err)
	}
	var groups []*scrape.TargetGroup
	for _, class := range Classes() {
		nodes := nodesByClass[class]
		if len(nodes) == 0 {
			continue
		}
		var targets []string
		for _, n := range nodes {
			cols := []exporter.Collector{
				&exporter.CgroupCollector{FS: n.FS, Layout: exporter.SlurmLayout()},
				&exporter.RAPLCollector{FS: n.FS},
				&exporter.IPMICollector{Reader: n},
				&exporter.NodeCollector{FS: n.FS},
			}
			if len(n.Spec.GPUs) > 0 {
				cols = append(cols,
					&gpusim.DCGMCollector{Hostname: n.Spec.Name, Devices: n},
					&exporter.GPUMapCollector{
						Provider: &gpuMapProvider{sched: sim.Sched, node: n},
						Manager:  model.ManagerSLURM,
					})
			}
			sim.exporters[n.Spec.Name] = exporter.New(cols...)
			targets = append(targets, n.Spec.Name)
		}
		groups = append(groups, &scrape.TargetGroup{
			JobName: "ceems",
			Targets: targets,
			Labels: map[string]string{
				"nodeclass": string(class),
				"cluster":   topo.Name,
			},
			Interval: cfg.TSDB.ScrapeInterval,
		})
	}
	// The write destination, query source and series cleaner are the ring
	// in cluster mode, the single DB otherwise; everything downstream wires
	// against these.
	var (
		scrapeDest scrape.Appender
		newBatch   func() scrape.Batch
		hotQuery   promql.Queryable
		ruleDest   rules.Appender
		cleaner    api.SeriesDeleter
	)
	if sim.Ring != nil {
		scrapeDest = sim.Ring
		newBatch = func() scrape.Batch { return sim.Ring.NewBatch() }
		hotQuery = sim.Ring.Scatter()
		ruleDest = sim.Ring
		cleaner = sim.Ring
	} else {
		scrapeDest = sim.DB
		newBatch = func() scrape.Batch { return sim.DB.Appender() }
		hotQuery = sim.DB
		ruleDest = sim.DB
		cleaner = sim.DB
	}
	sim.scrapeMgr = &scrape.Manager{
		Dest: scrapeDest, Fetcher: &exporterFetcher{sim: sim}, Groups: groups,
		NewBatch: newBatch,
		Now:      func() time.Time { return sim.clock },
	}
	if reg != nil {
		sim.scrapeMgr.InstrumentTelemetry(reg)
	}

	// Recording rules: all four hardware-class groups + emissions.
	ropts := ceemsrules.DefaultOptions()
	ropts.Interval = cfg.TSDB.RuleInterval
	ropts.RateWindow = cfg.TSDB.RateWindow
	sim.rulesMgr = &rules.Manager{
		Engine: rules.NewEngine(nil), Query: hotQuery, Dest: ruleDest,
		Groups: ceemsrules.AllGroups(ropts),
	}
	if reg != nil {
		sim.rulesMgr.Engine.InstrumentTelemetry(reg)
	}

	// Long-term storage, in memory. The thanos sidecar ships blocks from
	// one concrete hot DB, which keeps 2x the cut cadence so lookback
	// windows never straddle a gap; in cluster mode every replica retains
	// its own head instead (Step prunes on the ship cadence) and queries
	// stay on the ring.
	updaterQuery := hotQuery
	if sim.Ring == nil {
		sim.Cold, err = thanos.NewStore("")
		if err != nil {
			return nil, err
		}
		sim.Sidecar = &thanos.Sidecar{DB: sim.DB, Store: sim.Cold, HeadRetention: 2 * cfg.Thanos.ShipInterval}
		sim.Querier = &thanos.Querier{Hot: sim.DB, Cold: sim.Cold}
		updaterQuery = sim.Querier
	}

	// API server, on an in-memory store.
	sim.Store, err = relstore.Open("")
	if err != nil {
		return nil, err
	}
	for _, s := range api.Schemas() {
		if err := sim.Store.CreateTable(s); err != nil {
			return nil, err
		}
	}
	sim.Updater = &api.Updater{
		Store: sim.Store,
		Fetchers: []resourcemanager.Fetcher{
			&resourcemanager.Local{Cluster: topo.Name, Kind: model.ManagerSLURM, Source: sim.Sched},
		},
		Query:           updaterQuery,
		Factor:          factor,
		Zone:            cfg.Cluster.Zone,
		ShortUnitCutoff: cfg.APIServer.ShortUnitCutoff,
		Cleaner:         cleaner,
	}
	sim.APIServer = &api.Server{Store: sim.Store, Updater: sim.Updater}
	for _, admin := range cfg.APIServer.AdminUsers {
		if err := sim.APIServer.AddAdmin(admin); err != nil {
			return nil, err
		}
	}

	// Load balancer over the (single, in this sim) query backend; the
	// backend handler is installed by callers that serve HTTP. Ownership
	// checks go straight to the API server. The response cache runs on the
	// simulated clock so TTL expiry tracks simulated, not wall, time.
	sim.LB = &lb.LB{
		Strategy: lb.RoundRobin,
		Checker:  &lb.APIServerChecker{Server: sim.APIServer},
		Cache: querycache.New(querycache.Options{
			MaxBytes: 16 << 20,
			Clock:    func() time.Time { return sim.clock },
		}),
		CacheTTL: cfg.TSDB.ScrapeInterval,
	}

	sim.Gen = NewWorkloadGen(topo.Seed, cfg.Sim.Users, cfg.Sim.Projects, cfg.Sim.JobsPerDay, cpuParts, gpuParts)
	return sim, nil
}

// Now returns the simulated time.
func (s *Sim) Now() time.Time { return s.clock }

// Step advances one scrape interval: submit workload, advance hardware and
// scheduler, scrape all nodes, ingest the emission factor, and run the
// slower loops (rules, updater, sidecar) when their cadence divides the
// tick.
func (s *Sim) Step(ctx context.Context) {
	s.tick++
	dt := s.Cfg.TSDB.ScrapeInterval
	s.clock = s.clock.Add(dt)

	s.Gen.Tick(s.Sched, dt)
	s.Sched.Advance(dt)
	s.scrapeMgr.ScrapeAll(ctx)

	// Emission factor as a series (so rules can join against it).
	if f, err := s.Updater.Factor.Factor(ctx, s.Cfg.Cluster.Zone); err == nil {
		ls := labels.FromStrings(labels.MetricName, "ceems_emission_factor_gco2_kwh", "zone", s.Cfg.Cluster.Zone)
		if s.Ring != nil {
			if err := s.Ring.Append(ls, s.clock.UnixMilli(), f.GramsPerKWh); err != nil {
				s.recordError("emissions", err)
			}
		} else if err := s.DB.Append(ls, s.clock.UnixMilli(), f.GramsPerKWh); err != nil {
			s.recordError("emissions", err)
		}
	}

	if s.every(s.Cfg.TSDB.RuleInterval) {
		if err := s.rulesMgr.EvalAll(s.clock); err != nil {
			s.recordError("rules", err)
		}
	}
	if s.every(s.Cfg.APIServer.UpdateInterval) {
		if err := s.Updater.Update(ctx, s.clock); err != nil {
			s.recordError("updater", err)
		}
	}
	if s.every(s.Cfg.Thanos.ShipInterval) {
		if s.Sidecar != nil {
			if err := s.Sidecar.Ship(s.clock); err != nil {
				s.recordError("sidecar", err)
			}
		} else if s.Ring != nil && s.Cfg.TSDB.RetentionPeriod > 0 {
			// No cold tier in cluster mode: every replica prunes its own
			// head on the same cadence the sidecar would have shipped.
			// A down member is skipped by design; a failed checkpoint is not.
			_, outs := s.Ring.Truncate(s.clock.Add(-s.Cfg.TSDB.RetentionPeriod).UnixMilli())
			for _, mo := range outs {
				if mo.Err != nil && !errors.Is(mo.Err, ErrNodeDown) {
					s.recordError("truncate "+mo.Member, mo.Err)
				}
			}
		}
	}
}

// every reports whether the cadence fires on this tick.
func (s *Sim) every(interval time.Duration) bool {
	if interval <= 0 {
		return false
	}
	ticks := int64(interval / s.Cfg.TSDB.ScrapeInterval)
	if ticks <= 0 {
		ticks = 1
	}
	return s.tick%ticks == 0
}

func (s *Sim) recordError(sub string, err error) {
	if len(s.Errors) < 100 {
		s.Errors = append(s.Errors, fmt.Sprintf("%s: %v", sub, err))
	}
}

// RunFor advances the simulation by the given simulated duration.
func (s *Sim) RunFor(ctx context.Context, d time.Duration) {
	steps := int(d / s.Cfg.TSDB.ScrapeInterval)
	for i := 0; i < steps; i++ {
		s.Step(ctx)
	}
}

// FinalizeUpdate forces a final aggregate pass (e.g. before reading
// results at the end of an experiment).
func (s *Sim) FinalizeUpdate(ctx context.Context) error {
	return s.Updater.Update(ctx, s.clock)
}

// Engine returns a PromQL engine bound to the fan-in querier (or, in
// cluster mode, the quorum scatter-gather) for ad-hoc queries against the
// simulation.
func (s *Sim) Engine() (*promql.Engine, promql.Queryable) {
	if s.Ring != nil {
		return promql.NewEngine(), s.Ring.Scatter()
	}
	return promql.NewEngine(), s.Querier
}
