// Jean-Zay example: a scaled-down version of the paper's deployment — a
// heterogeneous cluster (Intel, AMD, two GPU server types) under SLURM with
// a realistic workload mix, monitored by the full CEEMS stack. After two
// simulated hours it prints the three Fig. 2 dashboards.
//
//	go run ./examples/jeanzay
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/relstore"
)

func main() {
	topo := cluster.Topology{
		Name:             "jean-zay-demo",
		IntelNodes:       6,
		AMDNodes:         3,
		GPUIncludedNodes: 2,
		GPUExcludedNodes: 2,
		GPUsPerNode:      4,
		GPUKinds:         []model.GPUKind{model.GPUV100, model.GPUA100, model.GPUH100},
		Seed:             2026,
	}
	cfg := config.Default()
	cfg.Sim.Users, cfg.Sim.Projects, cfg.Sim.JobsPerDay = 12, 5, 4000
	sim, err := cluster.New(topo, cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	fmt.Printf("simulating %d nodes (%d GPUs) for 2 hours at 4000 jobs/day...\n",
		topo.TotalNodes(), topo.TotalGPUs())
	sim.RunFor(ctx, 2*time.Hour)
	if err := sim.FinalizeUpdate(ctx); err != nil {
		log.Fatal(err)
	}
	st := sim.Sched.Stats()
	fmt.Printf("done: %d submitted, %d finished, %d still running\n\n",
		sim.Gen.Submitted, st.Finished, st.Running)

	// Fig 2a: aggregate usage per user.
	fmt.Println("── Fig 2a: aggregate usage metrics ──────────────────────────")
	users, _ := sim.Store.Select("users", relstore.Query{OrderBy: "total_energy_j", Desc: true})
	fmt.Printf("%-8s %6s %10s %8s %8s %11s %9s\n",
		"USER", "UNITS", "CPU-HRS", "CPU%", "GPU%", "ENERGY kWh", "CO2 g")
	for _, r := range users {
		fmt.Printf("%-8v %6v %10.1f %8.1f %8.1f %11.4f %9.2f\n",
			r["user"], r["num_units"], f(r["cpu_time_sec"])/3600,
			f(r["avg_cpu_usage"])*100, f(r["avg_gpu_usage"])*100,
			f(r["total_energy_j"])/3.6e6, f(r["emissions_g"]))
	}

	// Fig 2b: job list of the heaviest user.
	heavy := users[0]["user"].(string)
	fmt.Printf("\n── Fig 2b: SLURM jobs of %s ─────────────────────────────\n", heavy)
	units, _ := sim.Store.Select("units", relstore.Query{
		Where:   []relstore.Cond{{Col: "user", Op: relstore.OpEq, Val: heavy}},
		OrderBy: "total_energy_j", Desc: true, Limit: 10,
	})
	fmt.Printf("%-6s %-14s %-10s %8s %5s %5s %11s %8s\n",
		"JOBID", "PARTITION", "STATE", "ELAPSED", "CPUS", "GPUS", "ENERGY kWh", "CO2 g")
	for _, r := range units {
		fmt.Printf("%-6v %-14v %-10v %7vs %5v %5v %11.5f %8.3f\n",
			r["id"], r["partition"], r["state"], r["elapsed_sec"],
			r["cpus"], r["gpus"], f(r["total_energy_j"])/3.6e6, f(r["emissions_g"]))
	}

	// Fig 2c: time series of the longest-running unit.
	long, _ := sim.Store.Select("units", relstore.Query{OrderBy: "elapsed_sec", Desc: true, Limit: 1})
	uid := long[0]["id"].(string)
	fmt.Printf("\n── Fig 2c: time-series metrics of job %s ────────────────\n", uid)
	eng, q := sim.Engine()
	for _, panel := range []struct{ title, query string }{
		{"attributed power (W)", fmt.Sprintf(`{__name__=~"uuid:total_watts:.+",uuid=%q}`, uid)},
		{"CPU share of node", fmt.Sprintf(`{__name__=~"uuid:cpu_share:.+",uuid=%q}`, uid)},
	} {
		m, err := eng.Range(q, panel.query, sim.Now().Add(-90*time.Minute), sim.Now(), time.Minute)
		if err != nil {
			log.Fatal(err)
		}
		for _, sr := range m {
			fmt.Printf("%-22s %s\n", panel.title, spark(sr.Samples))
		}
	}
}

func f(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	}
	return 0
}

var runes = []rune("▁▂▃▄▅▆▇█")

func spark(samples []model.Sample) string {
	if len(samples) == 0 {
		return "(no data)"
	}
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, s := range samples {
		mn, mx = math.Min(mn, s.V), math.Max(mx, s.V)
	}
	var b strings.Builder
	for _, s := range samples {
		i := 0
		if mx > mn {
			i = int((s.V - mn) / (mx - mn) * float64(len(runes)-1))
		}
		b.WriteRune(runes[i])
	}
	return fmt.Sprintf("%s  [%.1f .. %.1f]", b.String(), mn, mx)
}
