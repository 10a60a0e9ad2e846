package cluster

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/grafana"
	"repro/internal/lb"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/relstore"
)

func smallTopo() Topology {
	return Topology{
		Name: "itest", IntelNodes: 3, AMDNodes: 2,
		GPUIncludedNodes: 1, GPUExcludedNodes: 1,
		GPUsPerNode: 4, GPUKinds: []model.GPUKind{model.GPUA100},
		Seed: 7,
	}
}

// testConfig is the default configuration with the synthetic workload set
// and a block store in a temporary directory, cut every 30 simulated
// minutes, so an hour-long run ships.
func testConfig(t *testing.T, users, projects int, jobsPerDay float64) config.Config {
	cfg := config.Default()
	cfg.Sim.Users, cfg.Sim.Projects, cfg.Sim.JobsPerDay = users, projects, jobsPerDay
	cfg.Thanos.Dir = t.TempDir()
	cfg.Thanos.ShipInterval = 30 * time.Minute
	return cfg
}

// TestFullStack is the E1 (Fig. 1) experiment: every component wired
// together over a mixed cluster, driven for an hour of simulated time.
func TestFullStack(t *testing.T) {
	sim, err := New(smallTopo(), testConfig(t, 6, 3, 2000), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sim.RunFor(ctx, time.Hour)
	if err := sim.FinalizeUpdate(ctx); err != nil {
		t.Fatalf("final update: %v", err)
	}
	for _, e := range sim.Errors {
		t.Errorf("subsystem error: %s", e)
	}

	// Jobs flowed through the scheduler.
	st := sim.Sched.Stats()
	if sim.Gen.Submitted < 30 {
		t.Fatalf("only %d jobs submitted", sim.Gen.Submitted)
	}
	if st.Finished == 0 {
		t.Error("no jobs finished in an hour")
	}

	// TSDB holds node series for every class.
	eng, q := sim.Engine()
	counts := map[NodeClass]int{
		ClassIntel: 3, ClassAMD: 2, ClassGPUIncluded: 1, ClassGPUExcluded: 1,
	}
	for _, class := range Classes() {
		v, err := eng.Instant(q, `count(ceems_ipmi_dcmi_current_watts{nodeclass="`+string(class)+`"})`, sim.Now())
		if err != nil {
			t.Fatalf("query %s: %v", class, err)
		}
		vec := v.(promql.Vector)
		if len(vec) != 1 || int(vec[0].V) != counts[class] {
			t.Errorf("class %s: ipmi series = %+v, want %d", class, vec, counts[class])
		}
	}
	v, err := eng.Instant(q, `sum(instance:node_watts:intel)`, sim.Now())
	if err != nil {
		t.Fatal(err)
	}
	if vec := v.(promql.Vector); len(vec) != 1 || vec[0].V < 300 || vec[0].V > 2000 {
		t.Errorf("intel fleet power = %+v, want 3 nodes x 150-450 W", vec)
	}

	// Units table populated with energy.
	rows, err := sim.Store.Select("units", relstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no units in API store")
	}
	withEnergy := 0
	for _, r := range rows {
		if e, _ := r["total_energy_j"].(float64); e > 0 {
			withEnergy++
		}
	}
	if withEnergy == 0 {
		t.Error("no unit accumulated energy")
	}

	// Sidecar shipped blocks to long-term storage.
	if sim.Cold.NumBlocks() == 0 {
		t.Error("no blocks shipped to cold storage")
	}

	// Cardinality cleanup ran (1-minute jobs exist at this churn).
	if sim.Updater.SeriesDeleted == 0 {
		t.Log("note: no short-unit series deleted (acceptable at low churn)")
	}
}

// TestFullHTTPPath exercises the complete Grafana→LB→Prometheus-API and
// Grafana→CEEMS-API paths over real HTTP, including access control.
func TestFullHTTPPath(t *testing.T) {
	topo := smallTopo()
	topo.GPUIncludedNodes = 0
	topo.GPUExcludedNodes = 0
	sim, err := New(topo, testConfig(t, 4, 2, 1500), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sim.RunFor(ctx, 30*time.Minute)
	if err := sim.FinalizeUpdate(ctx); err != nil {
		t.Fatal(err)
	}

	// Serve the role's Prometheus API, front it with the LB.
	promSrv := httptest.NewServer(sim.Handler.Mux())
	defer promSrv.Close()
	backend, err := lb.NewBackend(promSrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	sim.LB.Backends = []*lb.Backend{backend}
	lbSrv := httptest.NewServer(sim.LB)
	defer lbSrv.Close()

	apiSrv := httptest.NewServer(sim.Server.Handler())
	defer apiSrv.Close()

	promDS := &grafana.PromDS{BaseURL: lbSrv.URL}
	ceemsDS := &grafana.CEEMSDS{BaseURL: apiSrv.URL}

	// Find a unit and its owner.
	rows, err := sim.Store.Select("units", relstore.Query{Limit: 200})
	if err != nil || len(rows) == 0 {
		t.Fatalf("units: %d, %v", len(rows), err)
	}
	var owner, uid string
	for _, r := range rows {
		if e, _ := r["total_energy_j"].(float64); e > 0 {
			owner = r["user"].(string)
			uid = r["id"].(string)
			break
		}
	}
	if owner == "" {
		t.Fatal("no unit with energy found")
	}
	other := "user00"
	if owner == "user00" {
		other = "user01"
	}

	// Owner can query their unit's power series through the LB.
	res, err := promDS.Instant(owner, `{__name__=~"uuid:total_watts:.+",uuid="`+uid+`"}`, sim.Now())
	if err != nil {
		t.Fatalf("owner query: %v", err)
	}
	_ = res
	// Foreign user is denied by the LB.
	if _, err := promDS.Instant(other, `{__name__=~"uuid:total_watts:.+",uuid="`+uid+`"}`, sim.Now()); err == nil {
		t.Error("cross-user query was not denied")
	} else if !strings.Contains(err.Error(), "403") && !strings.Contains(err.Error(), "does not own") {
		t.Errorf("unexpected denial error: %v", err)
	}
	if sim.LB.Denied() == 0 {
		t.Error("LB denial not counted")
	}

	// Fig 2a/2b dashboards render for the owner.
	var sb strings.Builder
	if err := grafana.RenderUserOverview(&sb, ceemsDS, owner); err != nil {
		t.Fatalf("user overview: %v", err)
	}
	if !strings.Contains(sb.String(), "ENERGY") {
		t.Errorf("overview missing columns: %s", sb.String())
	}
	sb.Reset()
	if err := grafana.RenderJobList(&sb, ceemsDS, owner); err != nil {
		t.Fatalf("job list: %v", err)
	}
	if !strings.Contains(sb.String(), owner) && !strings.Contains(sb.String(), "job-") {
		t.Errorf("job list empty: %s", sb.String())
	}
	// Fig 2c time series through the LB.
	sb.Reset()
	err = grafana.RenderTimeSeries(&sb, promDS, owner, "CPU usage",
		`{__name__=~"uuid:cpu_share:.+",uuid="`+uid+`"}`,
		sim.Now().Add(-20*time.Minute), sim.Now(), time.Minute)
	if err != nil {
		t.Fatalf("timeseries: %v", err)
	}
}

func TestTopologyValidate(t *testing.T) {
	if err := (Topology{}).Validate(); err == nil {
		t.Error("empty topology accepted")
	}
	topo := Topology{Name: "x", GPUIncludedNodes: 1}
	if err := topo.Validate(); err == nil {
		t.Error("GPU nodes without kinds accepted")
	}
	jz := JeanZay(1.0)
	if jz.TotalNodes() < 1300 || jz.TotalNodes() > 1500 {
		t.Errorf("Jean-Zay nodes = %d, want ~1400", jz.TotalNodes())
	}
	if jz.TotalGPUs() < 3500 {
		t.Errorf("Jean-Zay GPUs = %d, want > 3500", jz.TotalGPUs())
	}
	small := JeanZay(0.001)
	if small.TotalNodes() < 4 {
		t.Errorf("scaled topology collapsed: %d", small.TotalNodes())
	}
}

func TestWorkloadGenDistribution(t *testing.T) {
	g := NewWorkloadGen(1, 8, 3, 20000, []string{"cpu"}, []string{"gpu"})
	nGPU, nCPU := 0, 0
	var totalDur time.Duration
	for i := 0; i < 2000; i++ {
		spec := g.jobSpec()
		if spec.GPUsPerNode > 0 {
			nGPU++
		} else {
			nCPU++
		}
		totalDur += spec.Duration
		if spec.CPUsPerNode <= 0 || spec.Duration < 30*time.Second {
			t.Fatalf("bad spec: %+v", spec)
		}
		if spec.User == "" || spec.Account == "" {
			t.Fatal("missing identity")
		}
	}
	gpuFrac := float64(nGPU) / 2000
	if gpuFrac < 0.25 || gpuFrac > 0.45 {
		t.Errorf("gpu fraction = %v, want ~0.35", gpuFrac)
	}
	meanDur := totalDur / 2000
	if meanDur < 10*time.Minute || meanDur > 2*time.Hour {
		t.Errorf("mean duration = %v", meanDur)
	}
}

func TestPoissonRate(t *testing.T) {
	g := NewWorkloadGen(99, 1, 1, 0, []string{"c"}, nil)
	total := 0
	for i := 0; i < 1000; i++ {
		total += g.poisson(3.0)
	}
	mean := float64(total) / 1000
	if mean < 2.7 || mean > 3.3 {
		t.Errorf("poisson mean = %v, want ~3", mean)
	}
	if g.poisson(0) != 0 {
		t.Error("poisson(0) != 0")
	}
}

// 20k jobs/day on the full topology: verify the generator hits the rate.
func TestChurnRate(t *testing.T) {
	g := NewWorkloadGen(5, 100, 20, 20000, []string{"c"}, nil)
	// A simulated hour of ticks.
	rate := 0
	for i := 0; i < 240; i++ {
		rate += g.poisson(20000.0 / (24 * 3600) * 15)
	}
	// Expect ~833 jobs/hour ± 20%.
	if rate < 650 || rate > 1050 {
		t.Errorf("hourly churn = %d, want ~833", rate)
	}
}
