package cluster

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/labels"
	"repro/internal/lb"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/thanos"
)

// tinyTopo is two CPU nodes: enough series for every block stage, cheap
// enough for half a simulated day under race.
func tinyTopo() Topology {
	return Topology{Name: "tiny", IntelNodes: 1, AMDNodes: 1, Seed: 3}
}

// TestPrometheusBlockLifecycle: a Sim with thanos.dir set runs the block
// store's maintenance pass on its cadence. After 12 simulated hours at a
// 30 min cadence, more passes at the same time settle: one pass compacts
// and downsamples nothing, and then no instant lies under two blocks of one
// resolution, so each range was downsampled once, and no 5m block is of a
// higher level than the highest raw one (one that grows with history
// would be). Range queries eligible for 5m and 1h aggregates answer, over
// the store and through the role's querier, as the same queries forced raw
// do. The directory, reopened, holds compacted blocks (level > 1) and
// downsampled ones at 5m and at 1h.
func TestPrometheusBlockLifecycle(t *testing.T) {
	cfg := testConfig(t, 2, 1, 200)
	sim, err := New(tinyTopo(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunFor(context.Background(), 12*time.Hour)
	for _, e := range sim.Errors {
		t.Errorf("subsystem error: %s", e)
	}
	settled := false
	for pass := 1; pass <= 10 && !settled; pass++ {
		compacted, downsampled, err := sim.sidecar.Maintain(sim.Now(), cfg.Thanos.ShipInterval)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("pass %d at the run's end: %d compactions, %d downsampled blocks", pass, compacted, downsampled)
		settled = compacted == 0 && downsampled == 0
	}
	if !settled {
		t.Fatal("maintenance at the run's end did not settle in 10 passes")
	}
	metas := sim.Cold.BlockMetas()
	levels := map[int64]int{} // the highest, by resolution
	for i, a := range metas {
		levels[a.Resolution] = max(levels[a.Resolution], a.Level)
		for _, b := range metas[i+1:] {
			if a.Resolution == b.Resolution && b.MinTime <= a.MaxTime && a.MinTime <= b.MaxTime {
				t.Errorf("resolution %dms: blocks [%d, %d] and [%d, %d] overlap", a.Resolution, a.MinTime, a.MaxTime, b.MinTime, b.MaxTime)
			}
		}
	}
	if l5m := levels[(5 * time.Minute).Milliseconds()]; l5m > levels[0] {
		t.Errorf("a 5m block is at level %d, the highest raw block at %d", l5m, levels[0])
	}
	eng, querier := sim.Engine()
	end := sim.Now().Truncate(time.Hour).Add(-time.Millisecond) // every step a 5m and a 1h bucket's end
	for _, q := range []promql.Queryable{sim.Cold, querier} {
		var eligible, aggregated int
		for _, fn := range []string{"sum_over_time", "max_over_time"} {
			for _, metric := range []string{"ceems_ipmi_dcmi_current_watts", "ceems_rapl_package_joules_total"} {
				for _, step := range []time.Duration{time.Hour, 6 * time.Hour} {
					query := fmt.Sprintf("%s(%s[%dh])", fn, metric, int(step.Hours()))
					got, err := eng.Range(aggrCount{q, &eligible, &aggregated}, query, end.Add(-11*time.Hour), end, step)
					if err != nil {
						t.Fatal(err)
					}
					raw, err := eng.Range(forcedRaw{q}, query, end.Add(-11*time.Hour), end, step)
					if err != nil {
						t.Fatal(err)
					}
					if !closeMatrices(got, raw, fn == "sum_over_time") {
						t.Errorf("%T: %s step %v:\n got  %v\n want %v", q, query, step, got, raw)
					}
				}
			}
		}
		if aggregated == 0 {
			t.Errorf("%T: none of %d eligible reads was served from aggregates", q, eligible)
		}
	}
	if err := sim.Prometheus.Close(); err != nil {
		t.Fatal(err)
	}
	store, err := thanos.NewStore(cfg.Thanos.Dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	maxLevel, byRes := 0, map[time.Duration]int{}
	for _, m := range store.BlockMetas() {
		maxLevel = max(maxLevel, m.Level)
		byRes[time.Duration(m.Resolution)*time.Millisecond]++
	}
	t.Logf("%d blocks on disk: max level %d, by resolution %v", store.NumBlocks(), maxLevel, byRes)
	if maxLevel < 2 {
		t.Errorf("max block level %d: nothing was compacted", maxLevel)
	}
	for _, res := range []time.Duration{0, 5 * time.Minute, time.Hour} {
		if byRes[res] == 0 {
			t.Errorf("no block at resolution %v on disk", res)
		}
	}
}

// forcedRaw reads its store with the consuming function dropped from the
// hints, so that no aggregate may serve it.
type forcedRaw struct{ promql.Queryable }

func (q forcedRaw) SelectWithHints(h model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	h.Func = ""
	return q.Queryable.SelectWithHints(h, ms...)
}

// aggrCount counts the reads of its store aggregates may serve, and those
// they did: where the read forced raw returns another number of samples.
type aggrCount struct {
	promql.Queryable
	eligible, aggregated *int
}

func (q aggrCount) SelectWithHints(h model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	out, err := q.Queryable.SelectWithHints(h, ms...)
	if err != nil || h.Func == "" {
		return out, err
	}
	raw, err := forcedRaw{q.Queryable}.SelectWithHints(h, ms...)
	*q.eligible++
	n := 0
	for i := range out {
		n += len(out[i].Samples)
	}
	for i := range raw {
		n -= len(raw[i].Samples)
	}
	if n != 0 {
		*q.aggregated++
	}
	return out, err
}

// closeMatrices reports whether a and b hold the same series and points,
// values to the bit or, with sum set, within 1e-9 of the larger magnitude
// (float re-association).
func closeMatrices(a, b promql.Matrix, sum bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Labels.Equal(b[i].Labels) || len(a[i].Samples) != len(b[i].Samples) {
			return false
		}
		for j, x := range a[i].Samples {
			y := b[i].Samples[j]
			if x.T != y.T || (x.V != y.V && !(sum && math.Abs(x.V-y.V) <= 1e-9*max(1, math.Abs(x.V), math.Abs(y.V)))) {
				return false
			}
		}
	}
	return true
}

// TestPrometheusHeadOnlyPrunesToRetention: without thanos.dir the role
// keeps no block store, queries read the head, and each maintenance pass
// truncates the head at tsdb.retention.
func TestPrometheusHeadOnlyPrunesToRetention(t *testing.T) {
	cfg := testConfig(t, 2, 1, 200)
	cfg.Thanos.Dir = ""
	cfg.TSDB.RetentionPeriod = time.Hour
	sim, err := New(tinyTopo(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunFor(context.Background(), 3*time.Hour)
	for _, e := range sim.Errors {
		t.Errorf("subsystem error: %s", e)
	}
	if sim.Cold != nil {
		t.Fatal("a head-only role opened a block store")
	}
	if _, q := sim.Engine(); q != sim.DB {
		t.Errorf("query source %T, want the head", q)
	}
	// The last pass ran at the end of the run.
	cutoff := sim.Now().Add(-time.Hour).UnixMilli()
	if mint, ok := sim.DB.MinTime(); !ok || mint < cutoff {
		t.Errorf("head MinTime %d (%v), want >= the retention cutoff %d", mint, ok, cutoff)
	}
}

// TestPrometheusRingPrunesMembers: a ring keeps no block store even when
// thanos.dir is set, and every member prunes its head to tsdb.retention.
func TestPrometheusRingPrunesMembers(t *testing.T) {
	cfg := testConfig(t, 2, 1, 200)
	cfg.Ring = config.RingConfig{Nodes: 3, ReplicationFactor: 3, WriteQuorum: 2}
	cfg.TSDB.RetentionPeriod = time.Hour
	sim, err := New(tinyTopo(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sim.Ring.Close() })
	sim.RunFor(context.Background(), 3*time.Hour)
	for _, e := range sim.Errors {
		t.Errorf("subsystem error: %s", e)
	}
	if sim.Cold != nil || sim.DB != nil {
		t.Fatalf("ring role has a block store (%v) or a single head (%v)", sim.Cold != nil, sim.DB != nil)
	}
	cutoff := sim.Now().Add(-time.Hour).UnixMilli()
	for _, n := range sim.Ring.MemberNames() {
		if mint, ok := sim.Ring.Member(n).DB().MinTime(); !ok || mint < cutoff {
			t.Errorf("%s: head MinTime %d (%v), want >= the retention cutoff %d", n, mint, ok, cutoff)
		}
	}
}

// TestSimLBHonoursQueryTimeout: the LB in front of the Sim's query API is
// built from the lb section, so lb.query_timeout bounds a request to a
// stalled backend and the LB answers 504.
func TestSimLBHonoursQueryTimeout(t *testing.T) {
	cfg := testConfig(t, 1, 1, 0)
	cfg.LB.QueryTimeout = 50 * time.Millisecond
	cfg.LB.Strategy = string(lb.LeastConnection)
	cfg.APIServer.AdminUsers = []string{"ops"}
	sim, err := New(tinyTopo(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sim.LB.Strategy != lb.LeastConnection {
		t.Errorf("LB strategy %q, want lb.strategy %q", sim.LB.Strategy, cfg.LB.Strategy)
	}
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(2 * time.Second):
		}
	}))
	defer stalled.Close()
	backend, err := lb.NewBackend(stalled.URL)
	if err != nil {
		t.Fatal(err)
	}
	sim.LB.Backends = []*lb.Backend{backend}
	req := httptest.NewRequest(http.MethodGet, "/api/v1/query?query=up", nil)
	req.Header.Set("X-Grafana-User", "ops")
	rec := httptest.NewRecorder()
	sim.LB.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("stalled backend answered %d through the LB, want 504 after lb.query_timeout", rec.Code)
	}
}
