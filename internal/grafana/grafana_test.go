package grafana

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/config"
	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promapi"
	"repro/internal/relstore"
	"repro/internal/tsdb"
)

func promBackend(t *testing.T) (*httptest.Server, *tsdb.DB) {
	t.Helper()
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	ls := labels.FromStrings(labels.MetricName, "power_watts", "uuid", "7")
	for i := int64(0); i <= 40; i++ {
		db.Append(ls, i*15000, 100+float64(i))
	}
	h := &promapi.Handler{Query: db, Now: func() time.Time { return time.UnixMilli(600_000) }}
	srv := httptest.NewServer(h.Mux())
	t.Cleanup(srv.Close)
	return srv, db
}

func TestPromDSForwardsUserHeader(t *testing.T) {
	var gotUser string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotUser = r.Header.Get("X-Grafana-User")
		w.Write([]byte(`{"status":"success","data":{"resultType":"vector","result":[]}}`))
	}))
	defer srv.Close()
	ds := &PromDS{BaseURL: srv.URL}
	if _, err := ds.Instant("alice", "up", time.Now()); err != nil {
		t.Fatal(err)
	}
	if gotUser != "alice" {
		t.Errorf("X-Grafana-User = %q", gotUser)
	}
}

func TestPromDSInstantAndRange(t *testing.T) {
	srv, _ := promBackend(t)
	ds := &PromDS{BaseURL: srv.URL}
	res, err := ds.Instant("u", "power_watts", time.UnixMilli(600_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Value != 140 || res[0].Metric["uuid"] != "7" {
		t.Errorf("instant = %+v", res)
	}
	rr, err := ds.Range("u", "power_watts", time.UnixMilli(0), time.UnixMilli(600_000), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr) != 1 || len(rr[0].Points) != 11 {
		t.Errorf("range = %+v", rr)
	}
}

func TestPromDSErrorSurfaced(t *testing.T) {
	srv, _ := promBackend(t)
	ds := &PromDS{BaseURL: srv.URL}
	if _, err := ds.Instant("u", "sum(", time.Now()); err == nil {
		t.Error("parse error not surfaced")
	}
}

func ceemsBackend(t *testing.T) *httptest.Server {
	t.Helper()
	role, err := api.Open(config.Default(), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := role.Store
	store.Upsert(api.TableUnits, relstore.Row{
		"uuid": "c/slurm/1", "id": "1", "cluster": "c", "user": "alice",
		"project": "p", "name": "train", "partition": "cpu", "state": "running",
		"elapsed_sec": int64(120), "cpus": int64(8),
		"avg_cpu_usage": 0.75, "total_energy_j": 3.6e6, "emissions_g": 56.0,
	})
	store.Upsert(api.TableUsers, relstore.Row{
		"key": "c/alice", "cluster": "c", "user": "alice", "num_units": int64(1),
		"cpu_time_sec": 720.0, "avg_cpu_usage": 0.75, "total_energy_j": 3.6e6,
		"emissions_g": 56.0,
	})
	s := httptest.NewServer(role.Server.Handler())
	t.Cleanup(s.Close)
	return s
}

func TestRenderUserOverview(t *testing.T) {
	srv := ceemsBackend(t)
	ds := &CEEMSDS{BaseURL: srv.URL}
	var sb strings.Builder
	if err := RenderUserOverview(&sb, ds, "alice"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"alice", "1.000", "56.0", "ENERGY kWh"} {
		if !strings.Contains(out, want) {
			t.Errorf("overview missing %q:\n%s", want, out)
		}
	}
}

func TestRenderJobList(t *testing.T) {
	srv := ceemsBackend(t)
	ds := &CEEMSDS{BaseURL: srv.URL}
	var sb strings.Builder
	if err := RenderJobList(&sb, ds, "alice"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "c/slurm/1") || !strings.Contains(out, "train") {
		t.Errorf("job list missing fields:\n%s", out)
	}
	if !strings.Contains(out, "75.0") {
		t.Errorf("cpu%% missing:\n%s", out)
	}
}

func TestRenderTimeSeries(t *testing.T) {
	srv, _ := promBackend(t)
	ds := &PromDS{BaseURL: srv.URL}
	var sb strings.Builder
	err := RenderTimeSeries(&sb, ds, "u", "Power", `power_watts{uuid="7"}`,
		time.UnixMilli(0), time.UnixMilli(600_000), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Power") || !strings.Contains(out, "max") {
		t.Errorf("timeseries render:\n%s", out)
	}
	// Ramp should render increasing spark levels.
	if !strings.ContainsRune(out, '█') || !strings.ContainsRune(out, '▁') {
		t.Errorf("sparkline missing ramp:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	pts := make([]Point, 100)
	for i := range pts {
		pts[i] = Point{Value: float64(i)}
	}
	s := Sparkline(pts, 10)
	if len([]rune(s)) != 10 {
		t.Errorf("width = %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[9] != '█' {
		t.Errorf("ramp = %q", s)
	}
	if Sparkline(nil, 10) != "" {
		t.Error("empty input should render empty")
	}
	// Constant series renders uniformly.
	for i := range pts {
		pts[i] = Point{Value: 5}
	}
	s = Sparkline(pts, 10)
	for _, r := range s {
		if r != '▁' {
			t.Errorf("constant series = %q", s)
			break
		}
	}
	_ = model.UnitRunning
}
