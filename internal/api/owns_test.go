package api

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/relstore"
)

// unitStore returns a store holding the given units under schemas.
func unitStore(t testing.TB, dir string, schemas []relstore.Schema, units []model.Unit) *relstore.DB {
	t.Helper()
	store, err := relstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range schemas {
		if err := store.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range units {
		if err := store.Upsert(TableUnits, unitToRow(u)); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

func unit(cluster, id, user string) model.Unit {
	return model.Unit{UUID: cluster + "/slurm/" + id, ID: id, Cluster: cluster, Manager: model.ManagerSLURM, User: user}
}

// schemasBeforeIDIndex is Schemas() as it stood before units.id was indexed.
func schemasBeforeIDIndex() []relstore.Schema {
	ss := Schemas()
	for i := range ss {
		ss[i].Indexes = slices.DeleteFunc(slices.Clone(ss[i].Indexes), func(c string) bool { return c == "id" })
	}
	return ss
}

// TestOwnsUnitVerdicts pins what the LB's ownership check answers, on a
// store created with today's schema and on one written before units.id was
// indexed and reopened with it: the index changes the cost, never a verdict.
func TestOwnsUnitVerdicts(t *testing.T) {
	units := []model.Unit{
		unit("c1", "100", "alice"),
		unit("c1", "101", "bob"),
		unit("c1", "300", "alice"), // 300 runs on both clusters, one owner
		unit("c2", "300", "alice"),
		unit("c1", "400", "alice"), // 400 too, two owners
		unit("c2", "400", "bob"),
	}
	cases := []struct {
		user, uuid string
		want       bool
	}{
		{"alice", "c1/slurm/100", true},
		{"bob", "c1/slurm/100", false},
		{"alice", "100", true},
		{"bob", "100", false},
		{"bob", "101", true},
		{"alice", "300", true},
		{"bob", "300", false},
		{"alice", "400", false}, // a bare id must be the user's on every cluster
		{"bob", "400", false},
		{"bob", "c2/slurm/400", true},
		{"alice", "999", false},
		{"alice", "c9/slurm/100", false},
		{"", "100", false},
	}
	check := func(t *testing.T, store *relstore.DB) {
		t.Helper()
		srv := &Server{Store: store}
		for _, c := range cases {
			got, err := srv.OwnsUnit(c.user, c.uuid)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("OwnsUnit(%q, %q) = %v, want %v", c.user, c.uuid, got, c.want)
			}
		}
	}
	t.Run("fresh", func(t *testing.T) { check(t, unitStore(t, "", Schemas(), units)) })
	t.Run("reopened from the schema without the id index", func(t *testing.T) {
		dir := t.TempDir()
		old := unitStore(t, dir, schemasBeforeIDIndex(), units)
		check(t, old)
		if err := old.Close(); err != nil {
			t.Fatal(err)
		}
		store := unitStore(t, dir, Schemas(), nil)
		defer store.Close()
		check(t, store)
	})
}

// BenchmarkOwnsUnit measures the LB's bare-id ownership check against a
// units table of growing size: with units.id indexed the cost is that of the
// rows sharing the id, not of the table.
func BenchmarkOwnsUnit(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"1k_units", 1000}, {"100k_units", 100000}} {
		b.Run(size.name, func(b *testing.B) {
			units := make([]model.Unit, size.n)
			for i := range units {
				units[i] = unit("c1", fmt.Sprint(i), fmt.Sprintf("user%02d", i%40))
			}
			srv := &Server{Store: unitStore(b, "", Schemas(), units)}
			runtime.GC() // the fixture's garbage is not the check's cost
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := i % size.n
				if owns, err := srv.OwnsUnit(fmt.Sprintf("user%02d", id%40), fmt.Sprint(id)); err != nil || !owns {
					b.Fatalf("OwnsUnit: %v, %v", owns, err)
				}
			}
		})
	}
}
