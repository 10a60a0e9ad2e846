package cluster

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/config"
	"repro/internal/exporter"
	"repro/internal/gpusim"
	"repro/internal/hw"
	"repro/internal/labels"
	"repro/internal/lb"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/resourcemanager"
	"repro/internal/scrape"
	"repro/internal/slurmsim"
	"repro/internal/telemetry"
)

// simTime wraps the simulated wall clock.
type simTime struct{ t time.Time }

// Sim is the assembled platform.
type Sim struct {
	Topo Topology
	// Cfg is the configuration the platform was assembled from. The tsdb
	// scrape interval is the base tick; every other cadence is a multiple.
	Cfg config.Config

	// Prometheus is the role the simulated fleet is scraped into, as
	// prometheus_sim assembles it: its head or ring, block store, rules,
	// query source and query API handler.
	*Prometheus
	// Role is the API server as ceems_api_server assembles it, accounting
	// the simulated scheduler's units from Query into an in-memory store.
	*api.Role

	Sched *slurmsim.Scheduler
	LB    *lb.LB
	Gen   *WorkloadGen

	scrapeMgr *scrape.Manager
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
// Prometheus role from the tsdb, thanos and ring sections (NewPrometheus),
// and around it the simulated fleet, the API server and the LB from the
// api_server, lb, emissions, cluster and sim sections. reg, when not nil,
// receives the role's instruments and the scrape manager's.
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

	// The Prometheus role, scraping one target group per node class of
	// in-process exporters on the simulated clock.
	if sim.Prometheus, err = NewPrometheus(cfg, reg); err != nil {
		return nil, err
	}
	sim.Handler.Now = sim.Now
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
	sim.scrapeMgr = &scrape.Manager{
		Dest: sim.head, Fetcher: &exporterFetcher{sim: sim}, Groups: groups,
		NewBatch: sim.NewBatch,
		Now:      func() time.Time { return sim.clock },
	}
	if reg != nil {
		sim.scrapeMgr.InstrumentTelemetry(reg)
	}

	// The API server keeps its accounting in memory, whatever
	// api_server.data_dir says: its Updater deletes a short unit's series
	// right after an Upsert that is not yet fsynced (docs/ARCHITECTURE.md
	// §11), so on disk a crash could keep neither the row nor the series.
	apiCfg := cfg
	apiCfg.APIServer.DataDir, apiCfg.APIServer.BackupDir = "", ""
	sim.Role, err = api.Open(apiCfg, sim.Now, api.InProcess(sim.Query), sim.head,
		&resourcemanager.Local{Cluster: topo.Name, Kind: model.ManagerSLURM, Source: sim.Sched})
	if err != nil {
		sim.Prometheus.Close()
		return nil, err
	}

	// Load balancer over the (single, in this sim) query backend; the
	// backend handler is installed by callers that serve HTTP. Ownership
	// checks go straight to the API server.
	sim.LB = &lb.LB{
		Strategy:     lb.Strategy(cfg.LB.Strategy),
		QueryTimeout: cfg.LB.QueryTimeout,
		Checker:      &lb.APIServerChecker{Server: sim.Server},
	}

	sim.Gen = NewWorkloadGen(topo.Seed, cfg.Sim.Users, cfg.Sim.Projects, cfg.Sim.JobsPerDay, cpuParts, gpuParts)
	return sim, nil
}

// Now returns the simulated time.
func (s *Sim) Now() time.Time { return s.clock }

// Step advances one scrape interval: submit workload, advance hardware and
// scheduler, scrape all nodes, ingest the emission factor, and run the
// slower loops (rules, updater, block lifecycle) when their cadence divides
// the tick.
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
		if err := s.head.Append(ls, s.clock.UnixMilli(), f.GramsPerKWh); err != nil {
			s.recordError("emissions", err)
		}
	}

	if s.every(s.Cfg.TSDB.RuleInterval) {
		if err := s.Rules.EvalAll(s.clock); err != nil {
			s.recordError("rules", err)
		}
	}
	if s.every(s.Cfg.APIServer.UpdateInterval) {
		if err := s.Updater.Update(ctx, s.clock); err != nil {
			s.recordError("updater", err)
		}
	}
	if s.every(s.Cfg.Thanos.ShipInterval) {
		if err := s.Maintain(s.clock); err != nil {
			s.recordError("maintenance", err)
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

// Engine returns a PromQL engine and the role's query source (the hot/cold
// fan-in, the ring's quorum read, or the head) for ad-hoc queries against
// the simulation.
func (s *Sim) Engine() (*promql.Engine, promql.Queryable) {
	return promql.NewEngine(), s.Query
}
