package api

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/emissions"
	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promapi"
	"repro/internal/relstore"
	"repro/internal/resourcemanager"
	"repro/internal/tsdb"
)

// fixedUnits is a resource manager whose unit list never changes.
type fixedUnits []model.Unit

func (f fixedUnits) Units(time.Time) []model.Unit { return f }

// base is where accountingHead's samples start, 2^17 s. Up to 1.024·2^17 s,
// a float product cut short reads many decimal seconds one millisecond
// early; the pass times and job 2's end below are such times.
var base = time.Unix(1<<17, 0)

// accountingHead is one head of 40 minutes of 15 s samples holding every
// series shape the updater asks about, and the units they belong to: two
// CPU-only jobs (one of them ended), a GPU job with GPU series, a GPU job
// with none, and a job that never started. Values are random, so a sum in
// another order or a value that does not read back bit for bit shows.
func accountingHead(t *testing.T) (*tsdb.DB, fixedUnits) {
	t.Helper()
	const cluster = "c"
	ms := func(d time.Duration) int64 { return base.Add(d).UnixMilli() }
	job := func(id, user, project string, cpus, gpus int, start, end time.Duration) model.Unit {
		u := model.Unit{UUID: cluster + "/slurm/" + id, ID: id, Cluster: cluster, Manager: model.ManagerSLURM,
			User: user, Project: project, State: model.UnitRunning, CreatedAt: ms(0),
			CPUs: cpus, MemoryBytes: 16 << 30, GPUs: gpus}
		if start > 0 {
			u.StartedAt = ms(start)
		} else {
			u.State = model.UnitPending
		}
		if end > 0 {
			u.State, u.EndedAt, u.ElapsedSec = model.UnitCompleted, ms(end), int64((end - start).Seconds())
		}
		return u
	}
	units := fixedUnits{
		job("1", "alice", "pa", 8, 0, time.Minute, 0),
		job("2", "alice", "pb", 4, 0, 2*time.Minute, 17*time.Minute+12*time.Millisecond),
		job("3", "bob", "pa", 16, 2, 3*time.Minute, 0),
		job("4", "bob", "pb", 16, 1, 4*time.Minute, 0),
		job("5", "carol", "pa", 2, 0, 0, 0),
	}
	rng := rand.New(rand.NewSource(1))
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	for _, u := range units[:4] {
		sel := []string{"uuid", u.ID, "cluster", cluster}
		type series struct {
			name  string
			value func() float64
		}
		cpuSec := 0.0
		all := []series{
			{"uuid:host_watts:intel", func() float64 { return 80 + 40*rng.Float64() }},
			{"ceems_compute_unit_cpu_usage_seconds_total", func() float64 { cpuSec += 15 * float64(u.CPUs) * rng.Float64(); return cpuSec }},
			{"ceems_compute_unit_memory_used_bytes", func() float64 { return float64(u.MemoryBytes) * rng.Float64() }},
		}
		if u.ID == "3" {
			all = append(all,
				series{"uuid:total_watts:nvidia", func() float64 { return 400 + 300*rng.Float64() }},
				series{"uuid:gpu_util_percent:nvidia", func() float64 { return 100 * rng.Float64() }})
		}
		for _, s := range all {
			ls := labels.FromStrings(append([]string{labels.MetricName, s.name}, sel...)...)
			for ts := u.StartedAt; ts <= ms(40*time.Minute) && (u.EndedAt == 0 || ts <= u.EndedAt); ts += 15_000 {
				if err := db.Append(ls, ts, s.value()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return db, units
}

// accountingUpdater is an updater over a fresh in-memory store that asks q.
func accountingUpdater(t *testing.T, units fixedUnits, q Querier) *Updater {
	t.Helper()
	return &Updater{
		Store:    unitStore(t, "", Schemas(), nil),
		Fetchers: []resourcemanager.Fetcher{&resourcemanager.Local{Cluster: "c", Kind: model.ManagerSLURM, Source: units}},
		Querier:  q, Factor: emissions.OWID{}, Zone: "FR",
	}
}

// sameRows reports how two stores' rows of one table differ, to the bit:
// "" when they hold the same rows.
func sameRows(t *testing.T, a, b *relstore.DB, table string) string {
	t.Helper()
	ra, err := a.Select(table, relstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Select(table, relstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != len(rb) {
		return fmt.Sprintf("%d rows against %d", len(ra), len(rb))
	}
	for i := range ra {
		if len(ra[i]) != len(rb[i]) {
			return fmt.Sprintf("row %v against %v", ra[i], rb[i])
		}
		for col, va := range ra[i] {
			vb := rb[i][col]
			fa, aFloat := va.(float64)
			fb, bFloat := vb.(float64)
			if aFloat && bFloat && math.Float64bits(fa) == math.Float64bits(fb) || !aFloat && reflect.DeepEqual(va, vb) {
				continue
			}
			return fmt.Sprintf("row %d column %s: %v against %v", i, col, va, vb)
		}
	}
	return ""
}

// TestAccountingStandaloneMatchesInProcess: the standalone API server's
// pass, which asks a promapi.Client over HTTP, and the in-process pass,
// which binds an engine to the head, write the same unit, user and project
// rows to the bit, over passes that end between whole seconds.
func TestAccountingStandaloneMatchesInProcess(t *testing.T) {
	db, units := accountingHead(t)
	srv := httptest.NewServer((&promapi.Handler{Query: db}).Mux())
	defer srv.Close()
	remote := accountingUpdater(t, units, &promapi.Client{BaseURL: srv.URL})
	local := accountingUpdater(t, units, InProcess(db))
	ctx := context.Background()
	for _, now := range []time.Time{base.Add(10*time.Minute + time.Millisecond), base.Add(25*time.Minute + 9*time.Millisecond), base.Add(40*time.Minute + 20*time.Millisecond)} {
		for _, u := range []*Updater{remote, local} {
			if err := u.Update(ctx, now); err != nil {
				t.Fatal(err)
			}
		}
		for _, table := range []string{TableUnits, TableUsers, TableProjects} {
			if diff := sameRows(t, remote.Store, local.Store, table); diff != "" {
				t.Errorf("after the pass at %v, %s: standalone %s in process", now, table, diff)
			}
		}
	}
	rows, _ := local.Store.Select(TableUnits, relstore.Query{})
	for _, row := range rows {
		u := rowToUnit(row)
		if started := u.StartedAt > 0; started != (u.Aggregate.TotalEnergyJoules > 0) {
			t.Errorf("unit %s: %v J", u.UUID, u.Aggregate.TotalEnergyJoules)
		}
		if (u.ID == "3") != (u.Aggregate.AvgGPUUsage > 0) || (u.ID == "3") != (u.Aggregate.GPUEnergyJoules > 0) {
			t.Errorf("unit %s: GPU usage %v, GPU energy %v J", u.UUID, u.Aggregate.AvgGPUUsage, u.Aggregate.GPUEnergyJoules)
		}
	}
	if len(rows) != len(units) {
		t.Errorf("%d unit rows, want %d", len(rows), len(units))
	}
}

// TestAccountingPassStopsOnCancel: a pass whose context is done returns the
// context's error, writes no unit row and holds fetch_from back, so the
// next pass covers the whole window.
func TestAccountingPassStopsOnCancel(t *testing.T) {
	db, units := accountingHead(t)
	u := accountingUpdater(t, units, InProcess(db))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	now := base.Add(20 * time.Minute)
	if err := u.Update(ctx, now); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pass: %v, want context.Canceled", err)
	}
	if n, err := u.Store.Count(TableUnits); err != nil || n != 0 {
		t.Errorf("cancelled pass wrote %d unit rows (%v)", n, err)
	}
	if meta, _, _ := u.Store.Get(tableMeta, "fetch_from"); meta != nil && i64(meta, "value") > now.Add(-time.Hour).UnixMilli() {
		t.Errorf("cancelled pass moved fetch_from to %v", time.UnixMilli(i64(meta, "value")))
	}
	if err := u.Update(context.Background(), now); err != nil {
		t.Fatal(err)
	}
	if n, _ := u.Store.Count(TableUnits); n != len(units) {
		t.Errorf("the next pass wrote %d unit rows, want %d", n, len(units))
	}
}

// TestUpdaterQueryAdapter: an updater given only the deprecated Query asks
// that store through an engine of its own, and writes what an updater
// given the same store through InProcess writes.
func TestUpdaterQueryAdapter(t *testing.T) {
	db, units := accountingHead(t)
	adapted := accountingUpdater(t, units, nil)
	adapted.Query = db
	local := accountingUpdater(t, units, InProcess(db))
	for _, u := range []*Updater{adapted, local} {
		if err := u.Update(context.Background(), base.Add(30*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if diff := sameRows(t, adapted.Store, local.Store, TableUnits); diff != "" {
		t.Errorf("units: adapter %s InProcess", diff)
	}
	if n, _ := adapted.Store.Count(TableUnits); n != len(units) {
		t.Errorf("%d unit rows, want %d", n, len(units))
	}
}
