// Command cluster_sim runs the entire CEEMS stack end-to-end over a
// simulated HPC platform driven from one YAML config file (the paper's
// single-file configuration): simulated nodes, SLURM, exporters, TSDB,
// recording rules, Thanos, the API server, and the load balancer, with a
// synthetic 20k-jobs/day-style workload. It serves the Prometheus API
// (behind the LB) and the CEEMS API over HTTP and periodically prints the
// Fig. 2 dashboards.
//
// Usage:
//
//	cluster_sim -config ceems.yaml -accel 60 -duration 2h
//	cluster_sim -duration 1h            # built-in defaults
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // profiling endpoints on the -pprof-addr listener
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/lb"
	"repro/internal/model"
	"repro/internal/promapi"
	"repro/internal/relstore"
	"repro/internal/remotewrite"
	"repro/internal/scrape"
	"repro/internal/telemetry"
)

func main() {
	var (
		cfgPath    = flag.String("config", "", "YAML config file (empty uses defaults)")
		accel      = flag.Float64("accel", 120, "simulated seconds per wall second")
		duration   = flag.Duration("duration", time.Hour, "simulated duration to run")
		promListen = flag.String("prom-listen", ":9090", "Prometheus API (behind LB) listen address")
		apiListen  = flag.String("api-listen", ":9200", "CEEMS API server listen address")
		report     = flag.Duration("report", 10*time.Minute, "simulated interval between dashboard prints")
		walDir     = flag.String("wal-dir", "", "TSDB write-ahead-log directory; a restarted sim replays it (empty = memory-only head)")
		nodes      = flag.Int("cluster-nodes", 1, "number of TSDB storage nodes; >1 runs the consistent-hash ring with quorum replication (per-node WALs under -wal-dir/<node>)")
		replFactor = flag.Int("replication-factor", 0, "ring replication factor R (copies per series); 0 picks min(3, cluster-nodes)")
		writeQ     = flag.Int("write-quorum", 0, "write quorum W (node acks before a scrape commit returns); 0 picks the majority R/2+1; reads need R-W+1 live replicas")
		chaos      = flag.String("chaos", "", "chaos scenario on the ring: kill | partition | diskfull (inject at 1/3 of the run, recover at 2/3; needs -cluster-nodes > 1)")
		hintLimit  = flag.Int("hint-limit", 0, "hinted-handoff queue bound per dead/partitioned node (drop-oldest past it); 0 keeps the default, -1 disables hinting")
		remoteWr   = flag.Bool("remote-write", false, "serve POST /api/v1/write on the Prometheus API: framed expofmt push ingest with 429 backpressure; clustered runs commit pushed samples with W-quorum semantics (see /api/v1/status/ingest)")
		rwMaxInf   = flag.Int("remote-write-max-inflight", 0, "max concurrently committing remote-write requests before 429 (0 = 2x GOMAXPROCS)")
		oooWin     = flag.Duration("ooo-window", 0, "accept samples up to this far behind each node's max time (remote-write retry tolerance); 0 keeps strict ordering")
		slowThr    = flag.Duration("slow-query-threshold", 0, "queries at or above this duration land in the slow-query ring at /api/v1/status/queries (0 disables the slow log; active-query tracking always on)")
		slowCap    = flag.Int("slow-query-capacity", 0, "slow-query ring size (0 = 128)")
		pprofAdr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables); kept off the query listeners so profiling is never exposed to query clients")
	)
	flag.Parse()

	cfg := config.Default()
	if *cfgPath != "" {
		var err error
		cfg, err = config.Load(*cfgPath)
		if err != nil {
			log.Fatalf("config: %v", err)
		}
	}
	topo := cluster.Topology{
		Name:             cfg.Cluster.Name,
		IntelNodes:       cfg.Sim.IntelNodes,
		AMDNodes:         cfg.Sim.AMDNodes,
		GPUIncludedNodes: cfg.Sim.GPUIncludedNodes,
		GPUExcludedNodes: cfg.Sim.GPUExcludedNodes,
		GPUsPerNode:      4,
		GPUKinds:         []model.GPUKind{model.GPUV100, model.GPUA100, model.GPUH100},
		Seed:             cfg.Sim.Seed,
	}
	opts := cluster.DefaultOptions()
	opts.ScrapeInterval = cfg.TSDB.ScrapeInterval
	opts.RuleInterval = cfg.TSDB.RuleInterval
	opts.UpdateInterval = cfg.APIServer.UpdateInterval
	opts.ShipInterval = cfg.Thanos.ShipInterval
	opts.ShortUnitCutoff = cfg.APIServer.ShortUnitCutoff
	opts.Zone = cfg.Cluster.Zone
	opts.WALDir = *walDir
	opts.ClusterNodes = *nodes
	opts.ReplicationFactor = *replFactor
	opts.WriteQuorum = *writeQ
	opts.HintLimit = *hintLimit
	opts.OutOfOrderWindow = *oooWin
	// One registry for the whole process: the sim registers the TSDB (or
	// ring), scrape manager, and caches; /metrics on the Prometheus API
	// serves it for self-scraping.
	reg := telemetry.NewRegistry()
	telemetry.RegisterProcess(reg)
	opts.Telemetry = reg
	if *chaos != "" && *nodes <= 1 {
		log.Fatalf("-chaos %q needs -cluster-nodes > 1", *chaos)
	}

	sim, err := cluster.New(topo, opts, cfg.Sim.Users, cfg.Sim.Projects, cfg.Sim.JobsPerDay)
	if err != nil {
		log.Fatalf("sim: %v", err)
	}
	if sim.Ring != nil {
		log.Printf("cluster: %d-node ring, R=%d W=%d (reads need %d live replicas per owner group)",
			len(sim.Ring.MemberNames()), sim.Ring.R, sim.Ring.W, sim.Ring.R-sim.Ring.W+1)
		for _, n := range sim.Ring.MemberNames() {
			if ws, ok := sim.Ring.Member(n).DB().WALStats(); ok && ws.Replay.Samples > 0 {
				r := ws.Replay
				log.Printf("%s: wal replay: %d segments, %d samples recovered, %d torn-tail repairs, in %v",
					n, r.Segments, r.Samples, r.TornRepairs, r.Duration)
			}
		}
	} else if ws, ok := sim.DB.WALStats(); ok {
		r := ws.Replay
		log.Printf("tsdb: wal replay: %d shards, %d segments, %d records, %d samples recovered, %d torn-tail repairs, in %v",
			r.Shards, r.Segments, r.Records, r.Samples, r.TornRepairs, r.Duration)
	}
	for _, admin := range cfg.APIServer.AdminUsers {
		sim.APIServer.AddAdmin(admin)
	}
	log.Printf("cluster_sim: %q with %d nodes (%d GPUs), %.0f jobs/day, %.0fx acceleration",
		topo.Name, topo.TotalNodes(), topo.TotalGPUs(), cfg.Sim.JobsPerDay, *accel)

	// HTTP endpoints: Prometheus API behind the LB, plus the CEEMS API.
	// The query source is the thanos fan-in, or the quorum scatter-gather
	// when clustered — sim.Engine() picks the right one.
	_, qsrc := sim.Engine()
	promH := &promapi.Handler{
		Query: qsrc, Now: sim.Now,
		Metrics: reg,
		Queries: &telemetry.QueryLog{SlowThreshold: *slowThr, SlowCapacity: *slowCap},
	}
	if *remoteWr {
		rcv := &remotewrite.Receiver{MaxInflight: *rwMaxInf, Telemetry: reg}
		if sim.Ring != nil {
			// Pushed batches take the same W-quorum commit path as scrapes.
			rcv.NewBatch = func() scrape.Batch { return sim.Ring.NewBatch() }
		} else {
			rcv.NewBatch = func() scrape.Batch { return sim.DB.Appender() }
		}
		promH.Ingest = rcv
		log.Printf("remote-write ingest enabled (max in-flight %d, ooo window %v)", rcv.Stats().MaxInflight, *oooWin)
	}
	promHandler := promH.Mux()
	go func() {
		// The raw backend listens on a derived port; the LB fronts it.
		backendAddr := "127.0.0.1:19090"
		go http.ListenAndServe(backendAddr, promHandler)
		b, err := lb.NewBackend("http://" + backendAddr)
		if err != nil {
			log.Fatalf("lb backend: %v", err)
		}
		sim.LB.Backends = []*lb.Backend{b}
		// After Backends: the per-backend bridges close over the final list.
		// The LB then also answers /metrics itself from the same registry.
		sim.LB.InstrumentTelemetry(reg)
		log.Printf("prometheus API via LB on %s (access controlled)", *promListen)
		log.Fatal(http.ListenAndServe(*promListen, sim.LB))
	}()
	go func() {
		log.Printf("CEEMS API on %s", *apiListen)
		log.Fatal(http.ListenAndServe(*apiListen, sim.APIServer.Handler()))
	}()
	if *pprofAdr != "" {
		go func() {
			// net/http/pprof registered itself on DefaultServeMux; serve that
			// mux only here, never on the query listeners.
			log.Printf("pprof: serving on %s", *pprofAdr)
			log.Fatal(http.ListenAndServe(*pprofAdr, nil))
		}()
	}

	ctx := context.Background()
	stepsPerWallSec := *accel / opts.ScrapeInterval.Seconds()
	if stepsPerWallSec <= 0 {
		stepsPerWallSec = 1
	}
	total := int(*duration / opts.ScrapeInterval)
	reportEvery := int(*report / opts.ScrapeInterval)
	sleep := time.Duration(float64(time.Second) / stepsPerWallSec)
	// Chaos schedule: break one node a third of the way in, repair it at
	// two thirds, and let the final third prove convergence.
	injectAt, recoverAt := total/3, 2*total/3
	for i := 0; i < total; i++ {
		sim.Step(ctx)
		if *chaos != "" {
			if i == injectAt {
				injectChaos(sim, *chaos)
			}
			if i == recoverAt {
				recoverChaos(sim, *chaos)
			}
		}
		if reportEvery > 0 && i%reportEvery == reportEvery-1 {
			printReport(sim)
		}
		time.Sleep(sleep)
	}
	if err := sim.FinalizeUpdate(ctx); err != nil {
		log.Printf("final update: %v", err)
	}
	printReport(sim)
	for _, e := range sim.Errors {
		log.Printf("subsystem error: %s", e)
	}
}

// chaosVictim picks the highest-named ring member as the node to break.
func chaosVictim(sim *cluster.Sim) string {
	names := sim.Ring.MemberNames()
	return names[len(names)-1]
}

func injectChaos(sim *cluster.Sim, kind string) {
	victim := chaosVictim(sim)
	switch kind {
	case "kill":
		if err := sim.Ring.Kill(victim); err != nil {
			log.Printf("chaos: kill %s: %v", victim, err)
			return
		}
		log.Printf("chaos: killed %s mid-scrape; scrapes continue on W=%d acks", victim, sim.Ring.W)
	case "partition":
		sim.Ring.Partition(victim)
		log.Printf("chaos: partitioned %s from the coordinator", victim)
	case "diskfull":
		sim.Ring.SetDiskFull(victim, true)
		log.Printf("chaos: %s rejects writes (WAL disk full); it still serves reads", victim)
	default:
		log.Fatalf("unknown -chaos scenario %q (want kill | partition | diskfull)", kind)
	}
}

func recoverChaos(sim *cluster.Sim, kind string) {
	victim := chaosVictim(sim)
	switch kind {
	case "kill":
		replay, sync, err := sim.Ring.Rejoin(victim)
		if err != nil {
			log.Printf("chaos: rejoin %s: %v", victim, err)
			return
		}
		hs := sim.Ring.HintStats()
		log.Printf("chaos: %s rejoined: WAL replayed %d samples (%d series, %d torn-tail repairs), hints drained %d samples, handoff pulled %d missed samples from peers",
			victim, replay.Samples, replay.Series, replay.TornRepairs, hs.SamplesDrained, sync.SamplesApplied)
	case "partition":
		sim.Ring.Heal()
		if sync, err := sim.Ring.SyncNode(victim); err != nil {
			log.Printf("chaos: post-heal sync %s: %v", victim, err)
		} else {
			log.Printf("chaos: %s healed; anti-entropy repaired %d samples", victim, sync.SamplesApplied)
		}
	case "diskfull":
		sim.Ring.SetDiskFull(victim, false)
		if sync, err := sim.Ring.SyncNode(victim); err != nil {
			log.Printf("chaos: post-diskfull sync %s: %v", victim, err)
		} else {
			log.Printf("chaos: %s writable again; anti-entropy repaired %d samples", victim, sync.SamplesApplied)
		}
	}
}

func printReport(sim *cluster.Sim) {
	st := sim.Sched.Stats()
	fmt.Printf("\n===== %s (simulated) =====\n", sim.Now().Format(time.RFC3339))
	if sim.Ring != nil {
		var series int
		var samples uint64
		live := 0
		for _, n := range sim.Ring.MemberNames() {
			if db := sim.Ring.Member(n).DB(); db != nil {
				s := db.Stats()
				series += s.NumSeries
				samples += s.NumSamples
				live++
			}
		}
		fmt.Printf("jobs: %d pending / %d running / %d finished | ring: %d/%d nodes up, %d series, %d samples (replicated)\n",
			st.Pending, st.Running, st.Finished, live, len(sim.Ring.MemberNames()), series, samples)
		if hs := sim.Ring.HintStats(); hs.SamplesQueued+hs.SamplesDropped+hs.TombstonesQueued > 0 || hs.Pending > 0 {
			fmt.Printf("hints: %d queued / %d drained / %d dropped samples, %d tombstones, %d pending\n",
				hs.SamplesQueued, hs.SamplesDrained, hs.SamplesDropped, hs.TombstonesQueued, hs.Pending)
		}
		if rs := sim.Ring.Scatter().RepairStatsSnapshot(); rs.SeriesRepaired+rs.Dropped+rs.Errors > 0 {
			fmt.Printf("read-repair: %d series / %d samples back-filled, %d dropped, %d errors\n",
				rs.SeriesRepaired, rs.SamplesRepaired, rs.Dropped, rs.Errors)
		}
	} else {
		ts := sim.DB.Stats()
		fmt.Printf("jobs: %d pending / %d running / %d finished | tsdb: %d series, %d samples | cold blocks: %d\n",
			st.Pending, st.Running, st.Finished, ts.NumSeries, ts.NumSamples, sim.Cold.NumBlocks())
	}
	// Top users table (Fig 2a shape).
	rows, err := sim.Store.Select("users", relstore.Query{OrderBy: "total_energy_j", Desc: true, Limit: 5})
	if err == nil && len(rows) > 0 {
		fmt.Println("top users by energy:")
		for _, r := range rows {
			fmt.Printf("  %-8v units=%-4v energy=%8.4f kWh  co2=%7.2f g\n",
				r["user"], r["num_units"], toF(r["total_energy_j"])/3.6e6, toF(r["emissions_g"]))
		}
	}
	os.Stdout.Sync()
}

func toF(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	}
	return 0
}
