package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/relstore"
)

// restart builds the API server role again over the store in dir with
// api.Open, as a restarted ceems_api_server does: nothing of the old role's
// memory survives, and its store is left as it is.
func restart(t *testing.T, sim *cluster.Sim, dir string) {
	t.Helper()
	cfg := sim.Cfg
	cfg.APIServer.DataDir = dir
	role, err := api.Open(cfg, sim.Now, sim.Updater.Querier, sim.Updater.Cleaner, sim.Updater.Fetchers...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { role.Close() })
	sim.Role = role
}

// TestAccountingExactAcrossRestart restarts the API server at 30, 60 and
// 90 min of the 2 h jz-mini run, on a store directory-backed from the first
// pass, in two ways: a fresh role over the store as a killed server leaves
// it, and the store closed and reopened at the restart. A directory has one
// open store, so the killed server's store is closed too, as its exit
// closes its files: relstore writes through an unbuffered file, so Close
// adds no byte a kill would lose; only its error goes unchecked.
// Each unit's window starts at its row's accounted_until, so the run must
// end where the uninterrupted one does: fleet host joules within 0.5 %, and
// no job more than 0.1 % above its uninterrupted value.
func TestAccountingExactAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("six 2 h simulations")
	}
	jobs := accountJobs(t)
	want := hostJoules(jobs)
	wantJob := make(map[string]float64, len(jobs))
	for _, j := range jobs {
		wantJob[j.id] = j.host
	}
	for _, reopen := range []bool{false, true} {
		for _, at := range []time.Duration{30 * time.Minute, 60 * time.Minute, 90 * time.Minute} {
			name := fmt.Sprintf("fresh_updater_at_%dm", int(at.Minutes()))
			if reopen {
				name = fmt.Sprintf("reopened_store_at_%dm", int(at.Minutes()))
			}
			t.Run(name, func(t *testing.T) {
				ctx := context.Background()
				sim, err := newSmallSim("")
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				restart(t, sim, dir)
				sim.RunFor(ctx, at)
				if err := sim.Store.Close(); err != nil && reopen {
					t.Fatal(err)
				}
				restart(t, sim, dir)
				sim.RunFor(ctx, 2*time.Hour-at)
				if err := sim.FinalizeUpdate(ctx); err != nil {
					t.Fatal(err)
				}
				for _, e := range sim.Errors {
					t.Errorf("subsystem error: %s", e)
				}
				jobs := simAccounts(t, sim)
				for _, j := range jobs {
					if j.host > wantJob[j.id]*1.001 {
						t.Errorf("job %s: %.6g J, %.4f× its uninterrupted %.6g J", j.id, j.host, j.host/wantJob[j.id], wantJob[j.id])
					}
				}
				got := hostJoules(jobs)
				t.Logf("fleet host joules %.5f× the uninterrupted run's", got/want)
				if math.Abs(got/want-1) > 0.005 {
					t.Errorf("fleet host joules %.6g, %.5f× the uninterrupted run's %.6g", got, got/want, want)
				}
			})
		}
	}
}

// accountingColumns are the units columns a crashed pass must restore.
var accountingColumns = []string{"host_energy_j", "gpu_energy_j", "total_energy_j", "emissions_g"}

// unitAccounts maps every unit's uuid to its accounting columns.
func unitAccounts(t *testing.T, db *relstore.DB) map[string][]float64 {
	t.Helper()
	rows, err := db.Select(api.TableUnits, relstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]float64, len(rows))
	for _, row := range rows {
		for _, c := range accountingColumns {
			v, _ := row[c].(float64)
			out[row["uuid"].(string)] = append(out[row["uuid"].(string)], v)
		}
	}
	return out
}

// TestAccountingCrashAtAnyByte cuts the relstore WAL inside one updater
// pass at every record boundary and one byte into every record, reopens
// the store and runs a fresh Updater at the same simulated time. The store
// is directory-backed and nothing cleans the TSDB, as in ceems_api_server.
// A unit's aggregate and its accounted_until share one WAL record, so a cut
// leaves each unit before or after its increment, and the rerun must end
// on the uncut store's energy and emissions for every unit, and keep them
// across one more open.
func TestAccountingCrashAtAnyByte(t *testing.T) {
	if testing.Short() {
		t.Skip("reopens the store and reruns a pass at every cut")
	}
	ctx := context.Background()
	sim, err := newSmallSim("")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	restart(t, sim, dir)
	sim.Updater.Cleaner = nil
	sim.RunFor(ctx, 30*time.Minute)
	// Step to the next pass's time with the sim's own passes off, so the
	// pass under test writes every record after the mark.
	interval := sim.Cfg.APIServer.UpdateInterval
	sim.Cfg.APIServer.UpdateInterval = 0
	sim.RunFor(ctx, interval)
	walPath := filepath.Join(dir, "wal.jsonl") // the relstore's WAL file
	before, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Updater.Update(ctx, sim.Now()); err != nil {
		t.Fatal(err)
	}
	want := unitAccounts(t, sim.Store)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	var cuts []int
	for off := len(before); off < len(wal); off += bytes.IndexByte(wal[off:], '\n') + 1 {
		cuts = append(cuts, off, off+1)
	}
	cuts = append(cuts, len(wal))
	if len(cuts) < 40 {
		t.Fatalf("the pass wrote %d WAL records; want a pass over many units", len(cuts)/2)
	}
	check := func(db *relstore.DB, at string) {
		t.Helper()
		got := unitAccounts(t, db)
		for uuid, w := range want {
			g, ok := got[uuid]
			if !ok {
				t.Errorf("%s: unit %s has no row", at, uuid)
				continue
			}
			for i, c := range accountingColumns {
				if math.Abs(g[i]-w[i]) > 1e-12*math.Abs(w[i]) {
					t.Errorf("%s: unit %s %s = %.17g, the uncut store has %.17g", at, uuid, c, g[i], w[i])
				}
			}
		}
	}
	for _, cut := range cuts {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, "wal.jsonl"), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		restart(t, sim, cutDir)
		if err := sim.Updater.Update(ctx, sim.Now()); err != nil {
			t.Fatalf("cut at byte %d: pass after reopen: %v", cut, err)
		}
		check(sim.Store, fmt.Sprintf("cut at byte %d, after the pass", cut))
		// What that pass wrote must itself survive the next open.
		sim.Store.Close()
		restart(t, sim, cutDir)
		check(sim.Store, fmt.Sprintf("cut at byte %d, reopened after the pass", cut))
	}
}

// TestAccountingLegacyStore opens, with api.Open, a store written under the
// units schema from before accounted_until, with no meta table. A
// legacy row counts as accounted up to the first pass's now, so that pass
// leaves every terminated unit's aggregate as it was.
func TestAccountingLegacyStore(t *testing.T) {
	ctx := context.Background()
	sim, err := newSmallSim("")
	if err != nil {
		t.Fatal(err)
	}
	sim.RunFor(ctx, time.Hour)
	dir := t.TempDir()
	legacy, err := relstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range api.Schemas() {
		if s.Name == "meta" {
			continue
		}
		s.Columns = slices.DeleteFunc(slices.Clone(s.Columns), func(c relstore.Column) bool { return c.Name == "accounted_until" })
		rows, err := sim.Store.Select(s.Name, relstore.Query{})
		if err != nil {
			t.Fatal(err)
		}
		if err := legacy.CreateTable(s); err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			delete(row, "accounted_until")
			if err := legacy.Upsert(s.Name, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := legacy.Close(); err != nil {
		t.Fatal(err)
	}

	restart(t, sim, dir)
	before, err := sim.Store.Select(api.TableUnits, relstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	sim.RunFor(ctx, sim.Cfg.APIServer.UpdateInterval) // one pass
	for _, e := range sim.Errors {
		t.Errorf("subsystem error: %s", e)
	}
	after := unitAccounts(t, sim.Store)
	terminated := 0
	for _, row := range before {
		if s, _ := row["state"].(string); !model.UnitState(s).Terminated() {
			continue
		}
		terminated++
		uuid := row["uuid"].(string)
		for i, c := range accountingColumns {
			if w, _ := row[c].(float64); after[uuid][i] != w {
				t.Errorf("terminated unit %s: %s %.17g after the first pass, %.17g before", uuid, c, after[uuid][i], w)
			}
		}
	}
	if terminated < 20 {
		t.Fatalf("%d terminated units in the legacy store; want most of an hour's jobs", terminated)
	}
}
