package cluster

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/resourcemanager"
	"repro/internal/scrape"
)

// failingFetcher wraps the sim's fetcher and fails a chosen target.
type failingFetcher struct {
	inner  scrape.Fetcher
	broken map[string]bool
}

func (f *failingFetcher) Fetch(ctx context.Context, target string) (io.ReadCloser, error) {
	if f.broken[target] {
		return nil, errors.New("injected: exporter unreachable")
	}
	return f.inner.Fetch(ctx, target)
}

// A node whose exporter dies mid-run must show up=0, its series must go
// stale, and the rest of the fleet must keep attributing power.
func TestExporterFailureIsolated(t *testing.T) {
	topo := Topology{Name: "failtest", IntelNodes: 3, Seed: 9}
	sim, err := New(topo, testConfig(t, 3, 2, 2000), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sim.RunFor(ctx, 15*time.Minute)

	// Kill one exporter.
	victim := "failtest-intel-0000"
	sim.scrapeMgr.Fetcher = &failingFetcher{
		inner:  &exporterFetcher{sim: sim},
		broken: map[string]bool{victim: true},
	}
	sim.RunFor(ctx, 15*time.Minute)

	eng, q := sim.Engine()
	v, err := eng.Instant(q, `up{instance="`+victim+`"}`, sim.Now())
	if err != nil {
		t.Fatal(err)
	}
	vec := v.(promql.Vector)
	if len(vec) != 1 || vec[0].V != 0 {
		t.Errorf("victim up = %+v, want 0", vec)
	}
	// Healthy nodes still report.
	v, _ = eng.Instant(q, `count(up == 1)`, sim.Now())
	if vec := v.(promql.Vector); len(vec) != 1 || vec[0].V != 2 {
		t.Errorf("healthy nodes = %+v, want 2", vec)
	}
	// Power attribution continues on the survivors.
	v, _ = eng.Instant(q, `count(uuid:host_watts:intel)`, sim.Now())
	if vec := v.(promql.Vector); len(vec) == 0 || vec[0].V == 0 {
		t.Error("no attribution on surviving nodes")
	}
	// The victim's node-level series are absent from fresh evaluations
	// once staleness kicks in (no sample within lookback newer than the
	// failure).
	v, _ = eng.Instant(q, `ceems_ipmi_dcmi_current_watts{instance="`+victim+`"}`, sim.Now())
	if vec := v.(promql.Vector); len(vec) != 0 {
		t.Errorf("dead exporter still reporting ipmi: %+v", vec)
	}
}

// brokenManager fails FetchUnits.
type brokenManager struct{}

func (brokenManager) ClusterID() string              { return "broken" }
func (brokenManager) Manager() model.ResourceManager { return model.ManagerSLURM }
func (brokenManager) FetchUnits(context.Context, time.Time) ([]model.Unit, error) {
	return nil, errors.New("injected: slurmdbd down")
}

// A failing resource manager must not poison the updater: the error is
// reported, other fetchers still update.
func TestResourceManagerFailureIsolated(t *testing.T) {
	topo := Topology{Name: "rmfail", IntelNodes: 2, Seed: 4}
	sim, err := New(topo, testConfig(t, 2, 2, 2000), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sim.RunFor(ctx, 20*time.Minute)

	sim.Updater.Fetchers = append([]resourcemanager.Fetcher{brokenManager{}}, sim.Updater.Fetchers...)
	err = sim.Updater.Update(ctx, sim.Now())
	if err == nil {
		t.Fatal("broken fetcher error swallowed")
	}
	// The healthy SLURM fetcher still populated units.
	n, err2 := sim.Store.Count("units")
	if err2 != nil || n == 0 {
		t.Errorf("healthy fetcher blocked: %d units, %v", n, err2)
	}
}

// A rejected emission-factor append on the single-node head must be
// reported like the ring path's, not dropped.
func TestEmissionsAppendErrorRecorded(t *testing.T) {
	topo := Topology{Name: "emfail", IntelNodes: 1, Seed: 5}
	sim, err := New(topo, testConfig(t, 1, 1, 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	// A factor sample an hour ahead makes the next tick's append out of
	// order.
	ls := labels.FromStrings(labels.MetricName, "ceems_emission_factor_gco2_kwh", "zone", sim.Cfg.Cluster.Zone)
	if err := sim.DB.Append(ls, sim.Now().Add(time.Hour).UnixMilli(), 1); err != nil {
		t.Fatal(err)
	}
	sim.Step(context.Background())
	for _, e := range sim.Errors {
		if strings.HasPrefix(e, "emissions: ") {
			return
		}
	}
	t.Fatalf("rejected emission-factor append not recorded; errors: %q", sim.Errors)
}

// Stale markers must not break counter functions when a job restarts on
// the same node with the same uuid-like labels.
func TestCounterAcrossStaleGap(t *testing.T) {
	topo := Topology{Name: "gap", IntelNodes: 1, Seed: 2}
	sim, err := New(topo, testConfig(t, 1, 1, 0), nil) // no workload gen
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sim.RunFor(ctx, 10*time.Minute)
	eng, q := sim.Engine()
	// Node-level counters never go stale while the node lives.
	v, err := eng.Instant(q, `rate(ceems_rapl_package_joules_total[5m])`, sim.Now())
	if err != nil {
		t.Fatal(err)
	}
	vec := v.(promql.Vector)
	if len(vec) != 2 { // 2 sockets
		t.Fatalf("rapl rates = %d series", len(vec))
	}
	for _, s := range vec {
		if s.V <= 0 {
			t.Errorf("non-positive package power: %+v", s)
		}
	}
	_ = labels.MetricName
}
