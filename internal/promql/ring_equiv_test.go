package promql_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/querycache"
	"repro/internal/tsdb"
)

// TestRingScatterMatchesOracleRandom: the differential tests' random PromQL
// through a replicated ring (R=3, W=2) read by its scatter-gather, against
// the single head holding the same dataset, the oracle here. Each dataset is
// copied into two rings through the quorum batch: one fed whole, and one
// fed in two parts with a member killed during the second, rejoined
// (WAL replay plus SyncNode), and then a different member killed, so reads
// depend on the rejoined one. Range and Instant answers from either ring
// must equal the oracle's to the bit, and both must fail or neither.
func TestRingScatterMatchesOracleRandom(t *testing.T) {
	rng, query, exprs := promql.EquivRun(t)
	// At most the tier-1 size, like the query-cache leg: `make promql-equiv`
	// runs this under race beside the other legs.
	exprs = min(exprs, 250)
	eng := promql.NewEngine()
	ctx := context.Background()
	var oracle *tsdb.DB
	var rings []*cluster.RingDB
	for i := 0; i < exprs; i++ {
		if i%100 == 0 {
			oracle = promql.EquivStorage(t, rng) // a fresh dataset every hundred expressions
			rings = []*cluster.RingDB{wholeRing(t, oracle), rejoinedRing(t, rng, oracle)}
		}
		q := query()
		step := []time.Duration{15 * time.Second, 30 * time.Second, 47 * time.Second, time.Minute}[rng.Intn(4)]
		start := model.MillisToTime(rng.Int63n(600_000))
		end := start.Add(time.Duration(1+rng.Int63n(300)) * time.Second)
		at := model.MillisToTime(rng.Int63n(900_000))
		wantM, wantMErr := eng.RangeCtx(ctx, oracle, q, start, end, step)
		wantV, wantVErr := eng.InstantCtx(ctx, oracle, q, at)
		for k, ring := range rings {
			got, err := eng.RangeCtx(ctx, ring, q, start, end, step)
			switch {
			case (err != nil) != (wantMErr != nil):
				t.Errorf("ring %d: range %s [%v, %v] step %v: error %v, oracle %v", k, q, start, end, step, err, wantMErr)
			case err == nil && !querycache.EqualMatrix(got, wantM):
				t.Errorf("ring %d: range %s [%v, %v] step %v:\n got  %v\n want %v", k, q, start, end, step, got, wantM)
			}
			gotV, err := eng.InstantCtx(ctx, ring, q, at)
			switch {
			case (err != nil) != (wantVErr != nil):
				t.Errorf("ring %d: instant %s at %v: error %v, oracle %v", k, q, at, err, wantVErr)
			case err == nil && !equalValueBits(gotV, wantV):
				t.Errorf("ring %d: instant %s at %v:\n got  %v\n want %v", k, q, at, gotV, wantV)
			}
		}
		if t.Failed() {
			t.Fatalf("first divergence at expression %d", i)
		}
	}
}

// ringNames are the members of every test ring.
var ringNames = []string{"m0", "m1", "m2"}

// newRing opens an R=3/W=2 ring over three members whose WALs live under a
// test directory, so a killed member replays its own history on revival.
func newRing(t *testing.T) *cluster.RingDB {
	t.Helper()
	dir := t.TempDir()
	ring, err := cluster.NewRingDB(3, 2, 0, func(name string) (*tsdb.DB, error) {
		opts := tsdb.DefaultOptions()
		opts.WALDir = filepath.Join(dir, name)
		return tsdb.Open(opts)
	}, ringNames...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ring.Close() })
	return ring
}

// feed commits every sample of all with keep(t) true through one quorum
// batch.
func feed(t *testing.T, ring *cluster.RingDB, all []model.Series, keep func(int64) bool) {
	t.Helper()
	b := ring.NewBatch()
	for _, s := range all {
		for _, smp := range s.Samples {
			if keep(smp.T) {
				b.Add(s.Labels, smp.T, smp.V)
			}
		}
	}
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
}

// everySeries reads every sample of db.
func everySeries(t *testing.T, db *tsdb.DB) []model.Series {
	t.Helper()
	all, err := db.SelectWithHints(model.SelectHints{Start: math.MinInt64, End: math.MaxInt64},
		labels.MustMatcher(labels.MatchRegexp, labels.MetricName, ".+"))
	if err != nil {
		t.Fatal(err)
	}
	return all
}

// wholeRing is a ring fed all of oracle's samples with every member up.
func wholeRing(t *testing.T, oracle *tsdb.DB) *cluster.RingDB {
	t.Helper()
	ring := newRing(t)
	feed(t, ring, everySeries(t, oracle), func(int64) bool { return true })
	return ring
}

// rejoinedRing is a ring fed oracle's samples before a random cut with
// every member up and the rest with one member killed; that member then
// rejoins, and a different one is killed.
func rejoinedRing(t *testing.T, rng *rand.Rand, oracle *tsdb.DB) *cluster.RingDB {
	t.Helper()
	ring := newRing(t)
	all := everySeries(t, oracle)
	cut := rng.Int63n(900_000)
	feed(t, ring, all, func(ts int64) bool { return ts < cut })
	victim := rng.Intn(len(ringNames))
	if err := ring.Kill(ringNames[victim]); err != nil {
		t.Fatal(err)
	}
	feed(t, ring, all, func(ts int64) bool { return ts >= cut })
	if _, _, err := ring.Rejoin(ringNames[victim]); err != nil {
		t.Fatalf("rejoin %s: %v", ringNames[victim], err)
	}
	if err := ring.Kill(ringNames[(victim+1+rng.Intn(2))%len(ringNames)]); err != nil {
		t.Fatal(err)
	}
	return ring
}

// equalValueBits reports whether two query results are equal, comparing
// sample values by their bits: NaN equals itself, and a staleness marker
// only another.
func equalValueBits(a, b promql.Value) bool {
	switch x := a.(type) {
	case promql.Vector:
		y, ok := b.(promql.Vector)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !x[i].Labels.Equal(y[i].Labels) || x[i].T != y[i].T ||
				math.Float64bits(x[i].V) != math.Float64bits(y[i].V) {
				return false
			}
		}
		return true
	case promql.Scalar:
		y, ok := b.(promql.Scalar)
		return ok && x.T == y.T && math.Float64bits(x.V) == math.Float64bits(y.V)
	case promql.Matrix:
		y, ok := b.(promql.Matrix)
		return ok && querycache.EqualMatrix(x, y)
	default:
		return fmt.Sprint(a) == fmt.Sprint(b)
	}
}
