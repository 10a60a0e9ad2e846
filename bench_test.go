// Repository-level benchmarks: one per table/figure/claim in the paper's
// evaluation (`ceems_bench -list` prints the experiment index; committed
// baselines are described in docs/BENCHMARKS.md). Each benchmark drives
// the same code paths as the corresponding ceems_bench experiment; the
// experiments print the tables, the benchmarks measure the machinery.
package repro

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/emissions"
	"repro/internal/exporter"
	"repro/internal/hw"
	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/resourcemanager"
	"repro/internal/rules"
	"repro/internal/rules/ceemsrules"
	"repro/internal/rules/rulefeed"
	"repro/internal/slurmsim"
	"repro/internal/tsdb"
)

var benchStart = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// BenchmarkEq1Attribution — E2: the Eq. 1 estimator itself.
func BenchmarkEq1Attribution(b *testing.B) {
	est := core.IntelVariant()
	node := core.NodeSample{
		IPMIWatts: 850, RAPLCPUWatts: 400, RAPLDRAMWatts: 100,
		CPURate: 48, MemBytes: 128e9, NumUnits: 8,
	}
	units := make([]core.UnitSample, 8)
	for i := range units {
		units[i] = core.UnitSample{CPURate: 6, MemBytes: 16e9}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := est.AttributeAll(node, units); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExporterScrape — E6: one full exporter collect+render pass on a
// busy node (the paper's 15-20 MB / low-CPU claim).
func BenchmarkExporterScrape(b *testing.B) {
	node, err := hw.NewNode(hw.DefaultIntelSpec("bench"), benchStart)
	if err != nil {
		b.Fatal(err)
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
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(exp.Render())
	}
	b.SetBytes(int64(n))
}

// BenchmarkRulesEvalNode — E8: one evaluation of the full Intel Eq. 1 rule
// group over a populated node.
func BenchmarkRulesEvalNode(b *testing.B) {
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	// 8 units × (cpu + mem) + node metrics, 20 scrapes.
	for i := int64(0); i < 20; i++ {
		ts := i * 15000
		for u := 0; u < 8; u++ {
			db.Append(labels.FromStrings(labels.MetricName, "ceems_compute_unit_cpu_usage_seconds_total",
				"uuid", fmt.Sprintf("%d", u), "instance", "n1", "nodeclass", "intel"), ts, float64(i)*30)
			db.Append(labels.FromStrings(labels.MetricName, "ceems_compute_unit_memory_used_bytes",
				"uuid", fmt.Sprintf("%d", u), "instance", "n1", "nodeclass", "intel"), ts, 8e9)
		}
		db.Append(labels.FromStrings(labels.MetricName, "ceems_ipmi_dcmi_current_watts", "instance", "n1", "nodeclass", "intel"), ts, 500)
		db.Append(labels.FromStrings(labels.MetricName, "ceems_rapl_package_joules_total", "instance", "n1", "nodeclass", "intel", "index", "0"), ts, float64(i)*3000)
		db.Append(labels.FromStrings(labels.MetricName, "ceems_rapl_dram_joules_total", "instance", "n1", "nodeclass", "intel", "index", "0"), ts, float64(i)*500)
		for _, mode := range []string{"user", "system", "idle"} {
			db.Append(labels.FromStrings(labels.MetricName, "ceems_cpu_seconds_total", "instance", "n1", "nodeclass", "intel", "mode", mode), ts, float64(i)*100)
		}
		for _, f := range []string{"MemTotal", "MemAvailable"} {
			v := 256e9
			if f == "MemAvailable" {
				v = 192e9
			}
			db.Append(labels.FromStrings(labels.MetricName, "ceems_meminfo_bytes", "instance", "n1", "nodeclass", "intel", "field", f), ts, v)
		}
		db.Append(labels.FromStrings(labels.MetricName, "ceems_compute_units", "instance", "n1", "nodeclass", "intel"), ts, 8)
	}
	g := ceemsrules.IntelGroup(ceemsrules.DefaultOptions())
	eng := rules.NewEngine(nil)
	sink := tsdb.MustOpen(tsdb.DefaultOptions())
	ts := model.MillisToTime(19 * 15000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.EvalGroup(g, db, shiftedAppender{sink, int64(i)}, ts); err != nil {
			b.Fatal(err)
		}
	}
}

// selectCounter is a head that counts the reads it serves; everything else,
// the batch commit included, is the embedded DB's.
type selectCounter struct {
	*tsdb.DB
	selects int
}

func (c *selectCounter) SelectWithHints(h model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	c.selects++
	return c.DB.SelectWithHints(h, ms...)
}

// BenchmarkRulesEvalFleet — one EvalAll of ceemsrules.AllGroups (60 rules,
// five groups) over a fleet in steady state, three jobs per instance,
// reading and writing the same head as prometheus_sim does. Every iteration
// scrapes the fleet once more (untimed) and evaluates 15 s later, so the
// rules always write at a fresh timestamp. selects/op is the storage reads
// one EvalAll issues, ns/series the cost per recorded series — flat from 42
// to 1400 instances when nothing in the evaluation is per-rule overhead.
func BenchmarkRulesEvalFleet(b *testing.B) {
	for _, instances := range []int{42, 1400} {
		b.Run(fmt.Sprint(instances), func(b *testing.B) {
			head := &selectCounter{DB: tsdb.MustOpen(tsdb.DefaultOptions())}
			fleet := rulefeed.New(instances, 3)
			scrape := func(ts int64) {
				a := head.Appender()
				fleet.Scrape(ts, a.Add)
				if _, err := a.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			m := &rules.Manager{
				Engine: rules.NewEngine(nil), Query: head, Dest: head,
				Groups: ceemsrules.AllGroups(ceemsrules.DefaultOptions()),
			}
			ts := benchStart.UnixMilli()
			for i := 0; i < 10; i++ { // fill the rate windows, warm the plan
				scrape(ts)
				if err := m.EvalAll(model.MillisToTime(ts)); err != nil {
					b.Fatal(err)
				}
				ts += 15000
			}
			head.selects = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				scrape(ts)
				b.StartTimer()
				if err := m.EvalAll(model.MillisToTime(ts)); err != nil {
					b.Fatal(err)
				}
				ts += 15000
			}
			b.StopTimer()
			series := 0
			for _, st := range m.Engine.Stats() {
				series += st.SeriesLastWrite
			}
			b.ReportMetric(float64(head.selects)/float64(b.N), "selects/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(series), "ns/series")
		})
	}
}

type shiftedAppender struct {
	db  *tsdb.DB
	off int64
}

func (s shiftedAppender) Append(l labels.Labels, t int64, v float64) error {
	return s.db.Append(l, t+s.off, v)
}

// BenchmarkTSDBIngestFleet — E7 ingest path: appending one scrape's worth
// of samples for a 100-node fleet.
func BenchmarkTSDBIngestFleet(b *testing.B) {
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	const nodes = 100
	const seriesPerNode = 40
	sets := make([]labels.Labels, 0, nodes*seriesPerNode)
	for n := 0; n < nodes; n++ {
		for s := 0; s < seriesPerNode; s++ {
			sets = append(sets, labels.FromStrings(
				labels.MetricName, fmt.Sprintf("metric_%d", s),
				"instance", fmt.Sprintf("node%03d", n)))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := int64(i) * 15000
		for _, ls := range sets {
			db.Append(ls, ts, float64(i))
		}
	}
	b.ReportMetric(float64(len(sets)), "samples/op")
}

// BenchmarkShardedAppendParallel measures head append throughput under
// goroutine parallelism (b.RunParallel scales with -cpu). Each goroutine
// writes its own series set with monotonically increasing timestamps, the
// exporter-fleet ingest shape. With the lock-striped head, ns/op should
// drop materially from -cpu 1 to -cpu 8 on multicore hardware; the old
// global-RWMutex head flatlined here. Shards is pinned (not GOMAXPROCS)
// so the striping is exercised identically on any host.
func BenchmarkShardedAppendParallel(b *testing.B) {
	opts := tsdb.DefaultOptions()
	opts.Shards = 16
	db := tsdb.MustOpen(opts)
	var worker atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		id := worker.Add(1)
		const seriesPerWorker = 64
		sets := make([]labels.Labels, seriesPerWorker)
		for i := range sets {
			sets[i] = labels.FromStrings(
				labels.MetricName, fmt.Sprintf("metric_%d", i),
				"instance", fmt.Sprintf("w%03d", id))
		}
		ts := int64(0)
		i := 0
		for pb.Next() {
			if i%seriesPerWorker == 0 {
				ts += 15000
			}
			if err := db.Append(sets[i%seriesPerWorker], ts, float64(i)); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkShardedSelectParallel measures concurrent query fan-out over the
// sharded head: many goroutines issuing Selects at once, the CEEMS LB shape
// where Grafana dashboards fan user panels across the cluster.
func BenchmarkShardedSelectParallel(b *testing.B) {
	opts := tsdb.DefaultOptions()
	opts.Shards = 16
	db := tsdb.MustOpen(opts)
	for n := 0; n < 200; n++ {
		for s := 0; s < 20; s++ {
			ls := labels.FromStrings(
				labels.MetricName, fmt.Sprintf("metric_%d", s),
				"instance", fmt.Sprintf("node%03d", n))
			for j := int64(0); j < 50; j++ {
				if err := db.Append(ls, j*15000, float64(j)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			m := labels.MustMatcher(labels.MatchEqual, labels.MetricName,
				fmt.Sprintf("metric_%d", i%20))
			res, err := db.Select(0, 1<<60, m)
			if err != nil {
				b.Error(err)
				return
			}
			if len(res) != 200 {
				b.Errorf("got %d series", len(res))
				return
			}
			i++
		}
	})
}

// BenchmarkAPIServerUpdate — E7/A3: one aggregation pass of the API server
// over a churn-heavy scheduler (the 20k jobs/day shape).
func BenchmarkAPIServerUpdate(b *testing.B) {
	var nodes []*hw.Node
	for i := 0; i < 8; i++ {
		n, _ := hw.NewNode(hw.DefaultIntelSpec(fmt.Sprintf("n%d", i)), benchStart)
		nodes = append(nodes, n)
	}
	sched, err := slurmsim.NewScheduler("bench", benchStart, &slurmsim.Partition{Name: "cpu", Nodes: nodes})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		sched.Submit(slurmsim.JobSpec{
			Name: "j", User: fmt.Sprintf("u%d", i%20), Account: fmt.Sprintf("p%d", i%5),
			Partition: "cpu", CPUsPerNode: 8, MemPerNode: 4 << 30,
			Duration: time.Duration(1+i%10) * time.Minute,
		})
	}
	for i := 0; i < 80; i++ {
		sched.Advance(15 * time.Second)
	}
	role, err := api.Open(config.Default(), nil, api.InProcess(tsdb.MustOpen(tsdb.DefaultOptions())), nil,
		&resourcemanager.Local{Cluster: "bench", Kind: model.ManagerSLURM, Source: sched})
	if err != nil {
		b.Fatal(err)
	}
	up := role.Updater
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := up.Update(ctx, benchStart.Add(time.Duration(80+i)*15*time.Second)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPromQLEq1Query — E5 query path: an instant Eq. 1-style join.
func BenchmarkPromQLEq1Query(b *testing.B) {
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	for n := 0; n < 50; n++ {
		inst := fmt.Sprintf("n%02d", n)
		for i := int64(0); i < 40; i++ {
			db.Append(labels.FromStrings(labels.MetricName, "ipmi_watts", "instance", inst), i*15000, 500)
			db.Append(labels.FromStrings(labels.MetricName, "rapl_cpu_joules_total", "instance", inst), i*15000, float64(i)*6000)
			db.Append(labels.FromStrings(labels.MetricName, "rapl_dram_joules_total", "instance", inst), i*15000, float64(i)*900)
		}
	}
	eng := promql.NewEngine()
	q := `0.9 * ipmi_watts * on (instance) (rate(rapl_cpu_joules_total[2m]) / (rate(rapl_cpu_joules_total[2m]) + rate(rapl_dram_joules_total[2m])))`
	ts := model.MillisToTime(39 * 15000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := eng.Instant(db, q, ts)
		if err != nil {
			b.Fatal(err)
		}
		if len(v.(promql.Vector)) != 50 {
			b.Fatal("wrong result size")
		}
	}
}

// rangeBenchDB seeds a head with `series` distinct counter series, one
// sample every intervalMs over spanMs.
func rangeBenchDB(b *testing.B, series int, intervalMs, spanMs int64) *tsdb.DB {
	b.Helper()
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	for s := 0; s < series; s++ {
		ls := labels.FromStrings(
			labels.MetricName, "bench_requests_total",
			"instance", fmt.Sprintf("node%04d", s%(series/4+1)),
			"shard", fmt.Sprintf("%d", s))
		for ts := int64(0); ts <= spanMs; ts += intervalMs {
			if err := db.Append(ls, ts, float64(ts)/1000); err != nil {
				b.Fatal(err)
			}
		}
	}
	return db
}

func benchRangeQuery(b *testing.B, db *tsdb.DB, q string, spanMs, stepMs int64, wantSeries int) {
	b.Helper()
	eng := promql.NewEngine()
	start := model.MillisToTime(0)
	end := model.MillisToTime(spanMs)
	step := time.Duration(stepMs) * time.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := eng.Range(db, q, start, end, step)
		if err != nil {
			b.Fatal(err)
		}
		if len(m) != wantSeries {
			b.Fatalf("got %d series, want %d", len(m), wantSeries)
		}
	}
}

// BenchmarkRangeQuerySparse — a Grafana-style panel over sparse data: few
// series, one sample per minute, queried at a 15 s step over 2 h (the steps
// far outnumber the samples).
func BenchmarkRangeQuerySparse(b *testing.B) {
	const spanMs = 2 * 3600 * 1000
	db := rangeBenchDB(b, 8, 60_000, spanMs)
	benchRangeQuery(b, db, `rate(bench_requests_total[5m])`, spanMs, 15_000, 8)
}

// BenchmarkRangeQueryDense — dense scrape cadence (15 s) with an aggregation
// over a rate, queried over 1 h at the scrape step.
func BenchmarkRangeQueryDense(b *testing.B) {
	const spanMs = 3600 * 1000
	db := rangeBenchDB(b, 64, 15_000, spanMs)
	benchRangeQuery(b, db, `sum by (instance) (rate(bench_requests_total[2m]))`, spanMs, 15_000, 17)
}

// BenchmarkRangeQueryHighCardinality — many series, short window: the
// per-step Select tax is dominated by postings/merge overhead.
func BenchmarkRangeQueryHighCardinality(b *testing.B) {
	const spanMs = 15 * 60 * 1000
	db := rangeBenchDB(b, 2000, 30_000, spanMs)
	benchRangeQuery(b, db, `sum(rate(bench_requests_total[2m]))`, spanMs, 30_000, 1)
}

// BenchmarkRangeQueryFleetPanels — the operator's fleet dashboard as
// bench/'s dash_cold heavy class asks for it: 42 instances × 2 sockets, an
// hour of 15 s scrapes, and the four heavy panel shapes over the last 15
// minutes at a 15 s step (61 steps). One op evaluates all four panels.
func BenchmarkRangeQueryFleetPanels(b *testing.B) {
	const spanMs = 3600 * 1000
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	for n := 0; n < 42; n++ {
		inst := fmt.Sprintf("node%04d", n)
		class := []string{"intel", "amd", "gpu"}[n%3]
		for sock := 0; sock < 2; sock++ {
			joules := labels.FromStrings(labels.MetricName, "fleet_rapl_package_joules_total",
				"instance", inst, "nodeclass", class, "socket", fmt.Sprintf("%d", sock))
			watts := labels.FromStrings(labels.MetricName, "fleet_socket_watts",
				"instance", inst, "nodeclass", class, "socket", fmt.Sprintf("%d", sock))
			for ts := int64(0); ts <= spanMs; ts += 15_000 {
				if err := db.Append(joules, ts, float64(ts)/1000*float64(80+n+sock)); err != nil {
					b.Fatal(err)
				}
				if err := db.Append(watts, ts, float64(80+n+sock)+float64(ts%60_000)/1000); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	panels := []struct {
		q      string
		series int
	}{
		{`sum by (instance) (rate(fleet_rapl_package_joules_total[2m]))`, 42},
		{`sum by (nodeclass) (fleet_socket_watts)`, 3},
		{`count by (instance) (fleet_socket_watts)`, 42},
		{`avg by (instance) (fleet_socket_watts)`, 42},
	}
	eng := promql.NewEngine()
	start, end := model.MillisToTime(spanMs-900_000), model.MillisToTime(spanMs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range panels {
			m, err := eng.Range(db, p.q, start, end, 15*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			if len(m) != p.series {
				b.Fatalf("%s: got %d series, want %d", p.q, len(m), p.series)
			}
		}
	}
}

// BenchmarkClusterStep — E7: one 15 s step of the full simulated platform
// at 1/10 Jean-Zay scale (~140 nodes).
func BenchmarkClusterStep(b *testing.B) {
	topo := cluster.JeanZay(0.1)
	cfg := config.Default()
	cfg.Sim.Users, cfg.Sim.Projects, cfg.Sim.JobsPerDay = 50, 10, 20000
	sim, err := cluster.New(topo, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	sim.Step(ctx) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step(ctx)
	}
	b.ReportMetric(float64(topo.TotalNodes()), "nodes")
}

// BenchmarkEmissionsFactor — E9: cached factor lookups.
func BenchmarkEmissionsFactor(b *testing.B) {
	c := &emissions.Cached{Provider: emissions.OWID{}}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Factor(ctx, "FR"); err != nil {
			b.Fatal(err)
		}
	}
}
