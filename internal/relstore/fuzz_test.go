package relstore_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/api"
	"repro/internal/relstore"
)

// accountingStates writes a store the way the API server's accounting
// passes do — its tables, units with their aggregates and accounted_until,
// the rollups, a checkpoint between two passes — and returns its snapshot
// and its WAL.
func accountingStates(tb testing.TB) (snapshot, wal []byte) {
	tb.Helper()
	dir := tb.TempDir()
	db, err := relstore.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, s := range api.Schemas() {
		if err := db.CreateTable(s); err != nil {
			tb.Fatal(err)
		}
	}
	pass := func(at int64) {
		for i := range 4 {
			uuid := fmt.Sprintf("jz/slurm/%d", i)
			err := db.Upsert(api.TableUnits, relstore.Row{
				"uuid": uuid, "id": fmt.Sprint(i), "cluster": "jz", "manager": "slurm",
				"user": fmt.Sprintf("user%d", i%2), "project": "p0", "state": "RUNNING",
				"started_at": int64(1000 * i), "cpus": int64(4),
				"host_energy_j": 1.5e3 * float64(at) / 7, "gpu_energy_j": 0.1,
				"total_energy_j": 1.5e3*float64(at)/7 + 0.1, "emissions_g": 3.25e-2 * float64(at),
				"accounted_until": at,
			})
			if err != nil {
				tb.Fatal(err)
			}
		}
		if err := db.Upsert(api.TableUsers, relstore.Row{"key": "jz/user0", "cluster": "jz", "user": "user0", "total_energy_j": float64(at)}); err != nil {
			tb.Fatal(err)
		}
		if _, err := db.Delete(api.TableUnits, "jz/slurm/3"); err != nil {
			tb.Fatal(err)
		}
	}
	pass(60_000)
	if err := db.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	pass(120_000)
	if err := db.Close(); err != nil {
		tb.Fatal(err)
	}
	if snapshot, err = os.ReadFile(filepath.Join(dir, "snapshot.json")); err != nil {
		tb.Fatal(err)
	}
	if wal, err = os.ReadFile(filepath.Join(dir, "wal.jsonl")); err != nil {
		tb.Fatal(err)
	}
	return snapshot, wal
}

// dump is every table's rows in primary-key order.
func dump(t *testing.T, db *relstore.DB) map[string][]relstore.Row {
	t.Helper()
	out := map[string][]relstore.Row{}
	for _, name := range db.Tables() {
		rows, err := db.Select(name, relstore.Query{})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = rows
	}
	return out
}

// FuzzRelstoreOpen writes arbitrary bytes as a store's snapshot and as its
// WAL and opens it. Open ends in an error or a store, never a panic, and
// allocates in proportion to the bytes it reads; a store it opens, closed
// and opened again, holds the same rows. The seeds are the accounting
// crash harness's states: the WAL cut at every record boundary and one
// byte into every record, over the checkpoint's snapshot and over none.
func FuzzRelstoreOpen(f *testing.F) {
	snapshot, wal := accountingStates(f)
	for off := 0; off < len(wal); off += bytes.IndexByte(wal[off:], '\n') + 1 {
		f.Add(snapshot, wal[:off])
		f.Add([]byte(nil), wal[:off+1])
	}
	f.Add(snapshot, wal)
	f.Add(wal, snapshot)
	f.Add([]byte(`{"seq":1,"tables":{"t":{"schema":{"name":"t","columns":[{"name":"k","type":"text"}],"primary_key":"k"},"rows":{"a":{"k":1}}}}}`), []byte(nil))

	open := func(t *testing.T, dir string) (*relstore.DB, uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		db, err := relstore.Open(dir)
		runtime.ReadMemStats(&after)
		return db, after.TotalAlloc - before.TotalAlloc, err
	}
	f.Fuzz(func(t *testing.T, snap, log []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{"snapshot.json": snap, "wal.jsonl": log} {
			if len(data) == 0 {
				continue
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		db, alloc, err := open(t, dir)
		// JSON decoding into maps, rows and their index entries: a few
		// hundred bytes per input byte at the densest.
		if limit := 1<<20 + 1024*uint64(len(snap)+len(log)); alloc > limit {
			t.Fatalf("opening a %d-byte snapshot and a %d-byte WAL allocated %d bytes, limit %d", len(snap), len(log), alloc, limit)
		}
		if err != nil {
			return
		}
		want := dump(t, db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db, _, err = open(t, dir)
		if err != nil {
			t.Fatalf("reopening a store that opened: %v", err)
		}
		defer db.Close()
		if got := dump(t, db); !reflect.DeepEqual(got, want) {
			t.Fatalf("reopened store holds\n%v\nwant\n%v", got, want)
		}
	})
}
