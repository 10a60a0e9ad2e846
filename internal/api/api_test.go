package api

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/emissions"
	"repro/internal/exporter"
	"repro/internal/gpusim"
	"repro/internal/hw"
	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/relstore"
	"repro/internal/resourcemanager"
	"repro/internal/rules"
	"repro/internal/rules/ceemsrules"
	"repro/internal/scrape"
	"repro/internal/slurmsim"
	"repro/internal/tsdb"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
var _ = gpusim.Handler

// testRig is a full miniature CEEMS deployment over one SLURM cluster.
type testRig struct {
	sched   *slurmsim.Scheduler
	db      *tsdb.DB
	sm      *scrape.Manager
	rm      *rules.Manager
	store   *relstore.DB
	updater *Updater
	server  *Server
	clock   time.Time
}

type rigFetcher struct{ exps map[string]*exporter.Exporter }

func (f *rigFetcher) Fetch(_ context.Context, target string) (io.ReadCloser, error) {
	return io.NopCloser(strings.NewReader(f.exps[target].Render())), nil
}

func newRig(t *testing.T, nNodes int) *testRig {
	t.Helper()
	var nodes []*hw.Node
	exps := map[string]*exporter.Exporter{}
	var targets []string
	for i := 0; i < nNodes; i++ {
		spec := hw.DefaultIntelSpec("node" + string(rune('a'+i)))
		spec.NoiseFrac = 0
		n, err := hw.NewNode(spec, t0)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		exps[spec.Name] = exporter.New(
			&exporter.CgroupCollector{FS: n.FS, Layout: exporter.SlurmLayout()},
			&exporter.RAPLCollector{FS: n.FS},
			&exporter.IPMICollector{Reader: n},
			&exporter.NodeCollector{FS: n.FS},
		)
		targets = append(targets, spec.Name)
	}
	sched, err := slurmsim.NewScheduler("testcluster", t0, &slurmsim.Partition{Name: "cpu", Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	rig := &testRig{sched: sched, db: db, clock: t0}
	rig.sm = &scrape.Manager{
		Dest:    db,
		Fetcher: &rigFetcher{exps: exps},
		Groups: []*scrape.TargetGroup{{
			JobName: "ceems", Targets: targets,
			Labels: map[string]string{"nodeclass": "intel", "cluster": "testcluster"},
		}},
		Now: func() time.Time { return rig.clock },
	}
	rig.rm = &rules.Manager{
		Engine: rules.NewEngine(nil), Query: db, Dest: db,
		Groups: []*rules.Group{ceemsrules.IntelGroup(ceemsrules.DefaultOptions())},
	}
	store, err := relstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Schemas() {
		if err := store.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	rig.store = store
	rig.updater = &Updater{
		Store: store,
		Fetchers: []resourcemanager.Fetcher{
			&resourcemanager.Local{Cluster: "testcluster", Kind: model.ManagerSLURM, Source: sched},
		},
		Querier:         InProcess(db),
		Factor:          emissions.OWID{},
		Zone:            "FR",
		ShortUnitCutoff: 30 * time.Second,
		Cleaner:         db,
	}
	rig.server = &Server{Store: store, Updater: rig.updater}
	return rig
}

// step advances 15 simulated seconds: scheduler+hardware, scrape, rules.
func (r *testRig) step(t *testing.T) {
	t.Helper()
	r.sched.Advance(15 * time.Second)
	r.clock = r.clock.Add(15 * time.Second)
	r.sm.ScrapeAll(context.Background())
	if err := r.rm.EvalAll(r.clock); err != nil {
		t.Fatalf("rules: %v", err)
	}
}

func TestUpdaterEndToEnd(t *testing.T) {
	rig := newRig(t, 2)
	_, err := rig.sched.Submit(slurmsim.JobSpec{
		Name: "sim", User: "alice", Account: "projA", Partition: "cpu",
		CPUsPerNode: 32, MemPerNode: 64 << 30, Duration: 10 * time.Minute,
		CPUUtil: func(time.Duration) float64 { return 0.8 },
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.sched.Submit(slurmsim.JobSpec{
		Name: "sim2", User: "bob", Account: "projA", Partition: "cpu",
		CPUsPerNode: 16, MemPerNode: 32 << 30, Duration: 10 * time.Minute,
		CPUUtil: func(time.Duration) float64 { return 0.5 },
	})
	for i := 0; i < 16; i++ { // 4 minutes
		rig.step(t)
	}
	if err := rig.updater.Update(context.Background(), rig.clock); err != nil {
		t.Fatalf("Update: %v", err)
	}

	// Unit rows exist with aggregates.
	row, ok, err := rig.store.Get(TableUnits, "testcluster/slurm/1")
	if err != nil || !ok {
		t.Fatalf("unit row: %v %v", ok, err)
	}
	u := rowToUnit(row)
	if u.User != "alice" || u.State != model.UnitRunning {
		t.Errorf("unit = %+v", u)
	}
	if u.Aggregate.TotalEnergyJoules <= 0 {
		t.Errorf("no energy attributed: %+v", u.Aggregate)
	}
	if u.Aggregate.EmissionsGrams <= 0 {
		t.Error("no emissions")
	}
	if u.Aggregate.AvgCPUUsage < 0.7 || u.Aggregate.AvgCPUUsage > 0.9 {
		t.Errorf("avg cpu usage = %v, want ~0.8", u.Aggregate.AvgCPUUsage)
	}
	// alice's 32-cpu 80% job should out-consume bob's 16-cpu 50% job.
	row2, _, _ := rig.store.Get(TableUnits, "testcluster/slurm/2")
	u2 := rowToUnit(row2)
	if u2.Aggregate.TotalEnergyJoules >= u.Aggregate.TotalEnergyJoules {
		t.Errorf("energy ordering wrong: %v vs %v",
			u2.Aggregate.TotalEnergyJoules, u.Aggregate.TotalEnergyJoules)
	}

	// Rollups.
	urow, ok, _ := rig.store.Get(TableUsers, "testcluster/alice")
	if !ok {
		t.Fatal("user rollup missing")
	}
	if urow["num_units"].(int64) != 1 || urow["total_energy_j"].(float64) <= 0 {
		t.Errorf("user rollup = %v", urow)
	}
	prow, ok, _ := rig.store.Get(TableProjects, "testcluster/projA")
	if !ok || prow["num_units"].(int64) != 2 {
		t.Errorf("project rollup = %v", prow)
	}

	// Incremental update: energy grows between passes.
	before := u.Aggregate.TotalEnergyJoules
	for i := 0; i < 8; i++ {
		rig.step(t)
	}
	if err := rig.updater.Update(context.Background(), rig.clock); err != nil {
		t.Fatal(err)
	}
	row, _, _ = rig.store.Get(TableUnits, "testcluster/slurm/1")
	after := rowToUnit(row).Aggregate.TotalEnergyJoules
	if after <= before {
		t.Errorf("energy did not accumulate: %v -> %v", before, after)
	}
}

func TestTSDBCleanupOfShortUnits(t *testing.T) {
	rig := newRig(t, 1)
	rig.sched.Submit(slurmsim.JobSpec{
		Name: "short", User: "u", Account: "p", Partition: "cpu",
		CPUsPerNode: 4, MemPerNode: 1 << 30, Duration: 15 * time.Second,
	})
	for i := 0; i < 8; i++ {
		rig.step(t)
	}
	seriesBefore := rig.db.Stats().NumSeries
	if err := rig.updater.Update(context.Background(), rig.clock); err != nil {
		t.Fatal(err)
	}
	if rig.updater.SeriesDeleted == 0 {
		t.Error("short unit series not cleaned")
	}
	if rig.db.Stats().NumSeries >= seriesBefore {
		t.Error("cardinality did not drop")
	}
	// Aggregates survive in the DB even though series are gone.
	row, ok, _ := rig.store.Get(TableUnits, "testcluster/slurm/1")
	if !ok || rowToUnit(row).State != model.UnitCompleted {
		t.Error("unit row lost after cleanup")
	}
}

func doReq(t *testing.T, h http.Handler, path, user string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if user != "" {
		req.Header.Set("X-Grafana-User", user)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestServerAccessControl(t *testing.T) {
	rig := newRig(t, 2)
	rig.sched.Submit(slurmsim.JobSpec{Name: "a", User: "alice", Account: "p1", Partition: "cpu",
		CPUsPerNode: 4, MemPerNode: 1 << 30, Duration: 10 * time.Minute})
	rig.sched.Submit(slurmsim.JobSpec{Name: "b", User: "bob", Account: "p2", Partition: "cpu",
		CPUsPerNode: 4, MemPerNode: 1 << 30, Duration: 10 * time.Minute})
	for i := 0; i < 10; i++ {
		rig.step(t)
	}
	rig.updater.Update(context.Background(), rig.clock)
	rig.server.AddAdmin("root")
	h := rig.server.Handler()

	// Alice sees only her unit.
	rec := doReq(t, h, "/api/v1/units", "alice")
	var units []model.Unit
	json.Unmarshal(rec.Body.Bytes(), &units)
	if len(units) != 1 || units[0].User != "alice" {
		t.Errorf("alice units = %+v", units)
	}
	// Admin sees all.
	rec = doReq(t, h, "/api/v1/units", "root")
	json.Unmarshal(rec.Body.Bytes(), &units)
	if len(units) != 2 {
		t.Errorf("admin units = %d", len(units))
	}
	// Admin filters by user.
	rec = doReq(t, h, "/api/v1/units?user=bob", "root")
	json.Unmarshal(rec.Body.Bytes(), &units)
	if len(units) != 1 || units[0].User != "bob" {
		t.Errorf("filtered units = %+v", units)
	}
	// No identity → 401.
	if rec := doReq(t, h, "/api/v1/units", ""); rec.Code != http.StatusUnauthorized {
		t.Errorf("anonymous status = %d", rec.Code)
	}
	// Users rollup restricted.
	rec = doReq(t, h, "/api/v1/users", "alice")
	var rows []map[string]any
	json.Unmarshal(rec.Body.Bytes(), &rows)
	if len(rows) != 1 {
		t.Errorf("alice user rows = %v", rows)
	}
	// Projects: alice only sees p1.
	rec = doReq(t, h, "/api/v1/projects", "alice")
	json.Unmarshal(rec.Body.Bytes(), &rows)
	if len(rows) != 1 || rows[0]["project"] != "p1" {
		t.Errorf("alice projects = %v", rows)
	}
}

func TestVerifyEndpoint(t *testing.T) {
	rig := newRig(t, 1)
	rig.sched.Submit(slurmsim.JobSpec{Name: "a", User: "alice", Account: "p", Partition: "cpu",
		CPUsPerNode: 4, MemPerNode: 1 << 30, Duration: 10 * time.Minute})
	for i := 0; i < 4; i++ {
		rig.step(t)
	}
	rig.updater.Update(context.Background(), rig.clock)
	rig.server.AddAdmin("root")
	h := rig.server.Handler()

	cases := []struct {
		user, uuid string
		code       int
	}{
		{"alice", "testcluster/slurm/1", 200},
		{"alice", "1", 200}, // bare ID
		{"bob", "testcluster/slurm/1", 403},
		{"bob", "1", 403},
		{"root", "1", 200},               // admin bypass
		{"alice", "nonexistent-id", 403}, // unknown unit denied
	}
	for _, c := range cases {
		rec := doReq(t, h, "/api/v1/units/verify?user="+c.user+"&uuid="+c.uuid, c.user)
		if rec.Code != c.code {
			t.Errorf("verify(%s, %s) = %d, want %d", c.user, c.uuid, rec.Code, c.code)
		}
	}
	// Without a uuid the endpoint answers whether the user is an admin.
	for user, code := range map[string]int{"root": 200, "alice": 403} {
		if rec := doReq(t, h, "/api/v1/units/verify?user="+user, user); rec.Code != code {
			t.Errorf("admin check(%s) = %d, want %d", user, rec.Code, code)
		}
	}
	if rec := doReq(t, h, "/api/v1/units/verify?uuid=1", ""); rec.Code != 400 {
		t.Errorf("missing user = %d", rec.Code)
	}
}

func TestHealthEndpoint(t *testing.T) {
	rig := newRig(t, 1)
	rec := doReq(t, rig.server.Handler(), "/api/v1/health", "")
	if rec.Code != 200 {
		t.Fatalf("health = %d", rec.Code)
	}
	var body map[string]any
	json.Unmarshal(rec.Body.Bytes(), &body)
	if body["status"] != "ok" {
		t.Errorf("health body = %v", body)
	}
}

func TestSlurmDBDFetcher(t *testing.T) {
	rig := newRig(t, 1)
	rig.sched.Submit(slurmsim.JobSpec{Name: "j", User: "u", Account: "a", Partition: "cpu",
		CPUsPerNode: 4, MemPerNode: 1 << 30, Duration: time.Minute})
	rig.step(t)
	srv := httptest.NewServer(rig.sched.DBDHandler())
	defer srv.Close()
	f := &resourcemanager.SlurmDBD{Cluster: "testcluster", BaseURL: srv.URL}
	units, err := f.FetchUnits(context.Background(), t0)
	if err != nil {
		t.Fatalf("FetchUnits: %v", err)
	}
	if len(units) != 1 || units[0].User != "u" {
		t.Errorf("units = %+v", units)
	}
	if f.Manager() != model.ManagerSLURM || f.ClusterID() != "testcluster" {
		t.Error("fetcher metadata wrong")
	}
}

func TestUnitRowRoundTrip(t *testing.T) {
	u := model.Unit{
		UUID: "c/slurm/9", ID: "9", Cluster: "c", Manager: model.ManagerSLURM,
		Name: "n", User: "u", Project: "p", Partition: "part",
		State: model.UnitCompleted, CreatedAt: 1, StartedAt: 2, EndedAt: 3,
		ElapsedSec: 1, CPUs: 4, MemoryBytes: 1024, GPUs: 2,
		GPUOrdinals: []int{0, 3}, Nodes: []string{"n1", "n2"}, ExitCode: 1,
		Aggregate: model.UsageAggregate{
			AvgCPUUsage: 0.5, CPUTimeSec: 100, TotalEnergyJoules: 999,
			EmissionsGrams: 1.5, NumSamples: 10,
		},
	}
	got := rowToUnit(unitToRow(u))
	if got.UUID != u.UUID || got.User != u.User || got.State != u.State {
		t.Errorf("metadata round trip: %+v", got)
	}
	if len(got.GPUOrdinals) != 2 || got.GPUOrdinals[1] != 3 {
		t.Errorf("gpu ordinals = %v", got.GPUOrdinals)
	}
	if got.Aggregate != u.Aggregate {
		t.Errorf("aggregate round trip: %+v", got.Aggregate)
	}
}

var _ = labels.MetricName
