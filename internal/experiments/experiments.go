// Package experiments regenerates every evaluation artifact of the paper
// (experiments E1-E10 plus ablations A1-A4, indexed by Registry): each experiment
// runs the real stack over the simulated platform and renders the table or
// panel the paper shows. The ceems_bench binary and the repository-level
// benchmarks are thin wrappers over this package.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exporter"
	"repro/internal/grafana"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/relstore"
)

// Result is one experiment's rendered output plus headline numbers.
type Result struct {
	ID       string
	Title    string
	Text     string
	Headline map[string]float64
}

// Registry maps experiment IDs to runners.
var Registry = map[string]func(ctx context.Context) (*Result, error){
	"eq1":            RunEq1,
	"fig2a":          RunFig2a,
	"fig2b":          RunFig2b,
	"fig2c":          RunFig2c,
	"overhead":       RunOverhead,
	"scale":          RunScale,
	"rules":          RunRuleVariants,
	"emissions":      RunEmissions,
	"lb":             RunLB,
	"ablate-attr":    RunAblateAttribution,
	"ablate-sources": RunAblateSources,
	"ablate-agg":     RunAblateAggregation,
	"ablate-cleanup": RunAblateCleanup,
}

// IDs returns the experiment identifiers, sorted.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

var simStart = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// RunEq1 is E2: validate the Eq. 1 attribution on a node with controlled
// workloads — conservation, per-job estimates vs ground truth, and the
// sweep over job counts.
func RunEq1(_ context.Context) (*Result, error) {
	var buf strings.Builder
	fmt.Fprintf(&buf, "E2 — Eq. 1 job power estimation (paper §III.A)\n")
	fmt.Fprintf(&buf, "One Intel node (64 cpus), N jobs with controlled CPU/mem profiles.\n\n")
	tw := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "N JOBS\tIPMI W\tSUM Eq1 W\tCONSERVATION ERR\tMAX |Eq1-TRUTH|/TRUTH")
	head := map[string]float64{}
	for _, nJobs := range []int{1, 2, 4, 8} {
		spec := hw.DefaultIntelSpec("eq1")
		spec.NoiseFrac = 0
		node, err := hw.NewNode(spec, simStart)
		if err != nil {
			return nil, err
		}
		cpusEach := spec.TotalCPUs() / nJobs
		for j := 0; j < nJobs; j++ {
			util := 0.3 + 0.6*float64(j)/float64(nJobs)
			err := node.AddWorkload(&hw.Workload{
				ID: fmt.Sprintf("job_%d", j), CPUs: cpusEach,
				MemLimit: spec.MemBytes / int64(nJobs),
				CPUUtil:  func(time.Duration) float64 { return util },
				MemUtil:  func(time.Duration) float64 { return util },
			})
			if err != nil {
				return nil, err
			}
		}
		var elapsed float64
		for i := 0; i < 40; i++ {
			node.Advance(15 * time.Second)
			elapsed += 15
		}
		ipmi, _ := node.PowerReading()
		cpuW, dramW, _ := node.ComponentPowers()
		// Build samples from the simulator's own accounting.
		nodeSample := core.NodeSample{
			IPMIWatts: ipmi, RAPLCPUWatts: cpuW, RAPLDRAMWatts: dramW,
			NumUnits: nJobs,
		}
		var units []core.UnitSample
		var truths []float64
		for j := 0; j < nJobs; j++ {
			te, _ := node.Truth(fmt.Sprintf("job_%d", j))
			util := 0.3 + 0.6*float64(j)/float64(nJobs)
			u := core.UnitSample{
				CPURate:  te.CPUSeconds / elapsed,
				MemBytes: util * float64(spec.MemBytes) / float64(nJobs),
			}
			nodeSample.CPURate += u.CPURate
			nodeSample.MemBytes += u.MemBytes
			units = append(units, u)
			truths = append(truths, te.HostJoules/elapsed)
		}
		nodeSample.CPURate += 0.004 * float64(spec.TotalCPUs()) // OS baseline
		est := core.IntelVariant()
		powers, err := est.AttributeAll(nodeSample, units)
		if err != nil {
			return nil, err
		}
		var sum, maxErr float64
		for j, p := range powers {
			sum += p
			if truths[j] > 0 {
				maxErr = math.Max(maxErr, math.Abs(p-truths[j])/truths[j])
			}
		}
		consErr := math.Abs(sum-ipmi) / ipmi
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%.2f%%\t%.1f%%\n", nJobs, ipmi, sum, consErr*100, maxErr*100)
		head[fmt.Sprintf("conservation_err_n%d", nJobs)] = consErr
		head[fmt.Sprintf("max_truth_err_n%d", nJobs)] = maxErr
	}
	tw.Flush()
	buf.WriteString("\nConservation: Σ per-job Eq. 1 power equals the IPMI reading (the formula\n" +
		"splits 0.9+0.1 of P_ipmi exactly). Truth error reflects idle-power smearing:\n" +
		"Eq. 1 attributes by activity shares while true idle draw is uniform.\n")
	return &Result{ID: "eq1", Title: "Eq. 1 validation", Text: buf.String(), Headline: head}, nil
}

// simConfig is the default configuration with the synthetic workload set.
// It sets no thanos.dir, so the experiments run head-only: their heads keep
// tsdb.retention (15 days), far more than any run. The maintenance pass runs
// every 30 simulated minutes, so a run given a block store (the accounting
// tests' fault-free run) reads through the hot/cold seam as a deployment's
// older data would.
func simConfig(users, projects int, jobsPerDay float64) config.Config {
	cfg := config.Default()
	cfg.Sim.Users, cfg.Sim.Projects, cfg.Sim.JobsPerDay = users, projects, jobsPerDay
	cfg.Thanos.ShipInterval = 30 * time.Minute
	return cfg
}

// newSmallSim builds the compact mixed cluster (jz-mini) the dashboard
// experiments run, with its block store in blocksDir (thanos.dir; empty
// keeps the head-only role).
func newSmallSim(blocksDir string) (*cluster.Sim, error) {
	topo := cluster.Topology{
		Name: "jz-mini", IntelNodes: 4, AMDNodes: 2,
		GPUIncludedNodes: 1, GPUExcludedNodes: 1,
		GPUsPerNode: 4, GPUKinds: []model.GPUKind{model.GPUA100},
		Seed: 11,
	}
	cfg := simConfig(8, 4, 3000)
	cfg.Thanos.Dir = blocksDir
	return cluster.New(topo, cfg, nil)
}

// smallSim builds and runs a compact mixed cluster for the dashboard
// experiments.
func smallSim(ctx context.Context, d time.Duration) (*cluster.Sim, error) {
	sim, err := newSmallSim("")
	if err != nil {
		return nil, err
	}
	sim.RunFor(ctx, d)
	if err := sim.FinalizeUpdate(ctx); err != nil {
		return nil, err
	}
	return sim, nil
}

// RunFig2a is E3: the per-user aggregate usage panel.
func RunFig2a(ctx context.Context) (*Result, error) {
	sim, err := smallSim(ctx, 2*time.Hour)
	if err != nil {
		return nil, err
	}
	rows, err := sim.Store.Select("users", relstore.Query{OrderBy: "total_energy_j", Desc: true})
	if err != nil {
		return nil, err
	}
	var buf strings.Builder
	fmt.Fprintf(&buf, "E3 — Fig. 2a: aggregate usage metrics per user (2 h window)\n\n")
	tw := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "USER\tUNITS\tCPU-HOURS\tAVG CPU%\tAVG GPU%\tENERGY kWh\tEMISSIONS g")
	head := map[string]float64{}
	for _, r := range rows {
		fmt.Fprintf(tw, "%v\t%v\t%.1f\t%.1f\t%.1f\t%.4f\t%.2f\n",
			r["user"], r["num_units"],
			f(r["cpu_time_sec"])/3600, f(r["avg_cpu_usage"])*100,
			f(r["avg_gpu_usage"])*100, f(r["total_energy_j"])/3.6e6,
			f(r["emissions_g"]))
		head["energy_kwh_total"] += f(r["total_energy_j"]) / 3.6e6
		head["emissions_g_total"] += f(r["emissions_g"])
	}
	tw.Flush()
	head["num_users"] = float64(len(rows))
	return &Result{ID: "fig2a", Title: "Fig 2a user aggregates", Text: buf.String(), Headline: head}, nil
}

// RunFig2b is E4: the per-job listing of one user.
func RunFig2b(ctx context.Context) (*Result, error) {
	sim, err := smallSim(ctx, 90*time.Minute)
	if err != nil {
		return nil, err
	}
	// Pick the user with the most units.
	users, err := sim.Store.Select("users", relstore.Query{OrderBy: "num_units", Desc: true, Limit: 1})
	if err != nil || len(users) == 0 {
		return nil, fmt.Errorf("experiments: no users (%v)", err)
	}
	user := users[0]["user"].(string)
	units, err := sim.Store.Select("units", relstore.Query{
		Where:   []relstore.Cond{{Col: "user", Op: relstore.OpEq, Val: user}},
		OrderBy: "created_at",
	})
	if err != nil {
		return nil, err
	}
	var buf strings.Builder
	fmt.Fprintf(&buf, "E4 — Fig. 2b: SLURM jobs of user %s with aggregate metrics\n\n", user)
	tw := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "JOBID\tPARTITION\tSTATE\tELAPSED\tCPUS\tGPUS\tAVG CPU%\tENERGY kWh\tCO2 g")
	for _, r := range units {
		fmt.Fprintf(tw, "%v\t%v\t%v\t%vs\t%v\t%v\t%.1f\t%.5f\t%.3f\n",
			r["id"], r["partition"], r["state"], r["elapsed_sec"], r["cpus"], r["gpus"],
			f(r["avg_cpu_usage"])*100, f(r["total_energy_j"])/3.6e6, f(r["emissions_g"]))
	}
	tw.Flush()
	return &Result{
		ID: "fig2b", Title: "Fig 2b job list", Text: buf.String(),
		Headline: map[string]float64{"jobs_listed": float64(len(units))},
	}, nil
}

// RunFig2c is E5: the time-series CPU metrics of one job.
func RunFig2c(ctx context.Context) (*Result, error) {
	sim, err := smallSim(ctx, time.Hour)
	if err != nil {
		return nil, err
	}
	// Find a long-running unit.
	units, err := sim.Store.Select("units", relstore.Query{
		Where:   []relstore.Cond{{Col: "elapsed_sec", Op: relstore.OpGe, Val: int64(1800)}},
		OrderBy: "elapsed_sec", Desc: true, Limit: 1,
	})
	if err != nil || len(units) == 0 {
		return nil, fmt.Errorf("experiments: no long job found (%v)", err)
	}
	uid := units[0]["id"].(string)
	eng, q := sim.Engine()
	var buf strings.Builder
	fmt.Fprintf(&buf, "E5 — Fig. 2c: time-series CPU metrics of job %s (1 h, 1 min steps)\n\n", uid)
	for _, panel := range []struct{ title, query string }{
		{"CPU usage (share of node)", fmt.Sprintf(`{__name__=~"uuid:cpu_share:.+",uuid=%q}`, uid)},
		{"Attributed power (W)", fmt.Sprintf(`{__name__=~"uuid:total_watts:.+",uuid=%q}`, uid)},
		{"Memory used (GiB)", fmt.Sprintf(`ceems_compute_unit_memory_used_bytes{uuid=%q} / 1073741824`, uid)},
	} {
		m, err := eng.Range(q, panel.query, sim.Now().Add(-time.Hour), sim.Now(), time.Minute)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&buf, "%s\n", panel.title)
		for _, sr := range m {
			points := make([]grafana.Point, len(sr.Samples))
			var mn, mx = math.Inf(1), math.Inf(-1)
			for i, s := range sr.Samples {
				points[i] = grafana.Point{Value: s.V}
				mn, mx = math.Min(mn, s.V), math.Max(mx, s.V)
			}
			fmt.Fprintf(&buf, "  %s  [min %.3f max %.3f, %d pts]\n", grafana.Sparkline(points, 60), mn, mx, len(points))
		}
	}
	return &Result{ID: "fig2c", Title: "Fig 2c time series", Text: buf.String(),
		Headline: map[string]float64{}}, nil
}

// RunOverhead is E6: exporter footprint vs the paper's 15-20 MB / "scrape
// under a microsecond of CPU" claims.
func RunOverhead(_ context.Context) (*Result, error) {
	spec := hw.DefaultIntelSpec("overhead")
	node, err := hw.NewNode(spec, simStart)
	if err != nil {
		return nil, err
	}
	for j := 0; j < 16; j++ {
		node.AddWorkload(&hw.Workload{
			ID: fmt.Sprintf("job_%d", j), CPUs: 4, MemLimit: 8 << 30,
		})
	}
	node.Advance(15 * time.Second)
	exp := exporter.New(
		&exporter.CgroupCollector{FS: node.FS, Layout: exporter.SlurmLayout()},
		&exporter.RAPLCollector{FS: node.FS},
		&exporter.IPMICollector{Reader: node},
		&exporter.NodeCollector{FS: node.FS},
	)
	// Warm up, then measure.
	for i := 0; i < 100; i++ {
		exp.Render()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapInuse) / (1 << 20)
	const iters = 2000
	start := time.Now()
	var bytes int
	for i := 0; i < iters; i++ {
		bytes = len(exp.Render())
	}
	perScrape := time.Since(start) / iters

	var buf strings.Builder
	fmt.Fprintf(&buf, "E6 — Exporter overhead (paper §II.B.a: 15-20 MB memory)\n\n")
	tw := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "METRIC\tPAPER\tMEASURED")
	fmt.Fprintf(tw, "resident memory\t15-20 MB\t%.1f MB heap in use (process total adds Go runtime)\n", heapMB)
	fmt.Fprintf(tw, "scrape CPU time\t\"<1 µs\"\t%v per full scrape (16 jobs, %d B payload)\n", perScrape, bytes)
	tw.Flush()
	buf.WriteString("\nThe paper's \"<1 microsecond of CPU time\" reads as per-request overhead\n" +
		"beyond collection; a full collect+render pass measures in the tens of\n" +
		"microseconds here, which is consistent in magnitude with a lightweight\n" +
		"exporter scraped every 15 s.\n")
	return &Result{ID: "overhead", Title: "Exporter overhead", Text: buf.String(),
		Headline: map[string]float64{"heap_mb": heapMB, "scrape_us": float64(perScrape.Microseconds())}}, nil
}

// RunScale is E7: the 1400-node / 20k-jobs-per-day claim, scaled by wall
// time budget: the full topology is built and driven for a few simulated
// minutes, measuring ingest throughput.
func RunScale(ctx context.Context) (*Result, error) {
	topo := cluster.JeanZay(1.0)
	start := time.Now()
	sim, err := cluster.New(topo, simConfig(100, 25, 20000), nil)
	if err != nil {
		return nil, err
	}
	buildTime := time.Since(start)

	start = time.Now()
	const steps = 20 // 5 simulated minutes
	for i := 0; i < steps; i++ {
		sim.Step(ctx)
	}
	stepTime := time.Since(start)
	if err := sim.FinalizeUpdate(ctx); err != nil {
		return nil, err
	}
	st := sim.DB.Stats()
	sched := sim.Sched.Stats()

	simulated := time.Duration(steps) * sim.Cfg.TSDB.ScrapeInterval
	rtf := simulated.Seconds() / stepTime.Seconds()
	var buf strings.Builder
	fmt.Fprintf(&buf, "E7 — Jean-Zay scale (paper §III: ~1400 nodes, ~20k jobs/day)\n\n")
	tw := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "METRIC\tVALUE")
	fmt.Fprintf(tw, "nodes built\t%d (%d GPUs)\n", topo.TotalNodes(), topo.TotalGPUs())
	fmt.Fprintf(tw, "build time\t%v\n", buildTime.Round(time.Millisecond))
	fmt.Fprintf(tw, "simulated time\t%v in %v wall (%.1fx real time)\n", simulated, stepTime.Round(time.Millisecond), rtf)
	fmt.Fprintf(tw, "samples ingested\t%d (%.0f samples/s wall)\n", st.NumSamples, float64(st.NumSamples)/stepTime.Seconds())
	fmt.Fprintf(tw, "active series\t%d\n", st.NumSeries)
	fmt.Fprintf(tw, "chunk bytes\t%.1f MB\n", float64(st.BytesInChunks)/(1<<20))
	fmt.Fprintf(tw, "jobs submitted\t%d (target %.0f for the window)\n", sim.Gen.Submitted, 20000.0/(24*3600)*simulated.Seconds())
	fmt.Fprintf(tw, "jobs running\t%d\n", sched.Running)
	tw.Flush()
	if len(sim.Errors) > 0 {
		fmt.Fprintf(&buf, "\nsubsystem errors: %d (first: %s)\n", len(sim.Errors), sim.Errors[0])
	}
	return &Result{ID: "scale", Title: "1400-node scale", Text: buf.String(),
		Headline: map[string]float64{
			"nodes":          float64(topo.TotalNodes()),
			"realtime_x":     rtf,
			"samples_per_s":  float64(st.NumSamples) / stepTime.Seconds(),
			"active_series":  float64(st.NumSeries),
			"jobs_submitted": float64(sim.Gen.Submitted),
		}}, nil
}

// f coerces relstore values to float64.
func f(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	}
	return 0
}

// WriteAll runs every experiment and writes the combined report.
func WriteAll(ctx context.Context, w io.Writer) error {
	for _, id := range IDs() {
		res, err := Registry[id](ctx)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		fmt.Fprintf(w, "%s\n%s\n", strings.Repeat("=", 72), res.Text)
	}
	return nil
}
