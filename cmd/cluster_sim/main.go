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
	"net"
	"net/http"
	_ "net/http/pprof" // profiling endpoints on the -pprof-addr listener
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/lb"
	"repro/internal/model"
	"repro/internal/promapi"
	"repro/internal/querycache"
	"repro/internal/relstore"
	"repro/internal/remotewrite"
	"repro/internal/scrape"
	"repro/internal/telemetry"
)

func main() {
	// These four steer one simulator run; every deployment setting is a key
	// of the configuration.
	var (
		accel    = flag.Float64("accel", 120, "simulated seconds per wall second")
		duration = flag.Duration("duration", time.Hour, "simulated duration to run")
		report   = flag.Duration("report", 10*time.Minute, "simulated interval between dashboard prints")
		chaos    = flag.String("chaos", "", "chaos scenario on the ring: kill | partition | diskfull (inject at 1/3 of the run, recover at 2/3; needs -cluster-nodes > 1)")
	)
	cfg, err := config.ForCommand("cluster_sim", flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	if *chaos != "" && cfg.Ring.Nodes <= 1 {
		log.Fatalf("-chaos %q needs -cluster-nodes > 1", *chaos)
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
	// One registry for the whole process: the sim registers the TSDB (or
	// ring), scrape manager, and caches; /metrics on the Prometheus API
	// serves it for self-scraping.
	reg := telemetry.NewRegistry()
	telemetry.RegisterProcess(reg)

	sim, err := cluster.New(topo, cfg, reg)
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
	log.Printf("cluster_sim: %q with %d nodes (%d GPUs), %.0f jobs/day, %.0fx acceleration",
		topo.Name, topo.TotalNodes(), topo.TotalGPUs(), cfg.Sim.JobsPerDay, *accel)

	// HTTP endpoints: Prometheus API behind the LB, plus the CEEMS API.
	// The query source is the thanos fan-in, or the ring's quorum read
	// when clustered — sim.Engine() picks the right one.
	eng, qsrc := sim.Engine()
	promH := &promapi.Handler{
		Engine: eng, Query: qsrc, Now: sim.Now,
		Timeout: cfg.TSDB.QueryTimeout,
		Metrics: reg,
		Queries: &telemetry.QueryLog{SlowThreshold: cfg.TSDB.SlowQueryThreshold},
	}
	if cfg.TSDB.QueryCacheBytes > 0 {
		// The LB caches nothing; this cache serves range answers exactly,
		// invalidated by the append progress of the ring or the head.
		var head querycache.Head = sim.DB
		if sim.Ring != nil {
			head = sim.Ring
		}
		promH.Cache = querycache.New(querycache.Options{
			MaxBytes:  cfg.TSDB.QueryCacheBytes,
			Head:      head,
			Lookback:  eng.LookbackDelta,
			MaxSteps:  eng.MaxSteps,
			Telemetry: reg,
			Name:      "promapi",
		})
	}
	if cfg.TSDB.RemoteWrite {
		rcv := &remotewrite.Receiver{Telemetry: reg}
		if sim.Ring != nil {
			// Pushed batches take the same W-quorum commit path as scrapes.
			rcv.NewBatch = func() scrape.Batch { return sim.Ring.NewBatch() }
		} else {
			rcv.NewBatch = func() scrape.Batch { return sim.DB.Appender() }
		}
		promH.Ingest = rcv
		log.Printf("remote-write ingest enabled (max in-flight %d, ooo window %v)", rcv.Stats().MaxInflight, cfg.TSDB.OOOWindow)
	}
	// The raw Prometheus API has one client, the LB in this process, so it
	// takes whatever loopback port is free; bound before the LB is told
	// about it, so the LB never proxies to nothing.
	rawLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("prometheus API: %v", err)
	}
	backend, err := lb.NewBackend("http://" + rawLn.Addr().String())
	if err != nil {
		log.Fatalf("lb backend: %v", err)
	}
	sim.LB.Backends = []*lb.Backend{backend}
	// After Backends: the per-backend bridges close over the final list.
	// The LB then also answers /metrics itself from the same registry.
	sim.LB.InstrumentTelemetry(reg)
	go func() { log.Fatal(http.Serve(rawLn, promH.Mux())) }()
	go func() {
		log.Printf("prometheus API via LB on %s (access controlled)", cfg.TSDB.Listen)
		log.Fatal(http.ListenAndServe(cfg.TSDB.Listen, sim.LB))
	}()
	go func() {
		log.Printf("CEEMS API on %s", cfg.APIServer.Listen)
		log.Fatal(http.ListenAndServe(cfg.APIServer.Listen, sim.APIServer.Handler()))
	}()
	if cfg.TSDB.PprofAddr != "" {
		go func() {
			// net/http/pprof registered itself on DefaultServeMux; serve that
			// mux only here, never on the query listeners.
			log.Printf("pprof: serving on %s", cfg.TSDB.PprofAddr)
			log.Fatal(http.ListenAndServe(cfg.TSDB.PprofAddr, nil))
		}()
	}

	ctx := context.Background()
	stepsPerWallSec := *accel / cfg.TSDB.ScrapeInterval.Seconds()
	if stepsPerWallSec <= 0 {
		stepsPerWallSec = 1
	}
	total := int(*duration / cfg.TSDB.ScrapeInterval)
	reportEvery := int(*report / cfg.TSDB.ScrapeInterval)
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
		log.Printf("chaos: %s rejoined: WAL replayed %d samples (%d series, %d torn-tail repairs), handoff pulled %d missed samples from peers",
			victim, replay.Samples, replay.Series, replay.TornRepairs, sync.SamplesApplied)
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
