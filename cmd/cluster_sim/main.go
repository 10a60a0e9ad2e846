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
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/lb"
	"repro/internal/model"
	"repro/internal/relstore"
	"repro/internal/serve"
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
	// Bound before the role opens: the Prometheus API behind the LB, and the
	// CEEMS API. The raw Prometheus API has one client, the LB in this
	// process, so it takes whatever loopback port is free.
	raw := &serve.Server{Name: "raw prometheus API", Addr: "127.0.0.1:0"}
	viaLB := &serve.Server{Name: "prometheus API via LB (access controlled)", Addr: cfg.TSDB.Listen}
	ceemsAPI := &serve.Server{Name: "CEEMS API", Addr: cfg.APIServer.Listen}
	servers := append(serve.Profiles(cfg.TSDB.PprofAddr), raw, viaLB, ceemsAPI)
	if err := serve.Bind(servers...); err != nil {
		log.Fatal(err)
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
	log.Printf("cluster_sim: %q with %d nodes (%d GPUs), %.0f jobs/day, %.0fx acceleration",
		topo.Name, topo.TotalNodes(), topo.TotalGPUs(), cfg.Sim.JobsPerDay, *accel)
	backend, err := lb.NewBackend("http://" + raw.BoundAddr())
	if err != nil {
		log.Fatalf("lb backend: %v", err)
	}
	sim.LB.Backends = []*lb.Backend{backend}
	// After Backends: the per-backend bridges close over the final list.
	// The LB then also answers /metrics itself from the same registry.
	sim.LB.InstrumentTelemetry(reg)
	raw.Handler, viaLB.Handler, ceemsAPI.Handler = sim.Handler.Mux(), sim.LB, sim.Server.Handler()

	run := func(ctx context.Context) {
		pace := time.Second // wall time per simulated step
		if *accel > 0 {
			pace = max(time.Duration(float64(cfg.TSDB.ScrapeInterval) / *accel), 1)
		}
		total := int(*duration / cfg.TSDB.ScrapeInterval)
		reportEvery := int(*report / cfg.TSDB.ScrapeInterval)
		tick := time.NewTicker(pace)
		defer tick.Stop()
		// Chaos schedule: break one node a third of the way in, repair it at
		// two thirds, and let the final third prove convergence.
		injectAt, recoverAt := total/3, 2*total/3
		for i := 0; i < total; i++ {
			sim.Step(ctx)
			if *chaos != "" && i == injectAt {
				injectChaos(sim, *chaos)
			}
			if *chaos != "" && i == recoverAt {
				recoverChaos(sim, *chaos)
			}
			if reportEvery > 0 && i%reportEvery == reportEvery-1 {
				printReport(sim)
			}
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
		if err := sim.FinalizeUpdate(ctx); err != nil {
			log.Printf("final update: %v", err)
		}
		printReport(sim)
		for _, e := range sim.Errors {
			log.Printf("subsystem error: %s", e)
		}
	}
	// The run ends when -duration is simulated, or at SIGINT/SIGTERM.
	if err := serve.Run(context.Background(), serve.Process{
		Servers: servers,
		Loops:   []serve.Loop{run},
		Closers: []func() error{sim.Prometheus.Close, sim.Role.Close},
	}); err != nil {
		log.Fatal(err)
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
		fmt.Printf("jobs: %d pending / %d running / %d finished | tsdb: %d series, %d samples",
			st.Pending, st.Running, st.Finished, ts.NumSeries, ts.NumSamples)
		if sim.Cold != nil {
			fmt.Printf(" | blocks: %d", sim.Cold.NumBlocks())
		}
		fmt.Println()
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
