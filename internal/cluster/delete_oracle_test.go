package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb"
)

// ringDeleteModel is every acked sample, minus, for each delete, the
// samples at or before its maxt of the series it matches.
type ringDeleteModel struct {
	samples map[string][]model.Sample
	lsets   map[string]labels.Labels
	deletes []tsdb.TombstoneRec
}

// want is the model over [mint, +inf), sorted by labels.
func (m *ringDeleteModel) want(mint int64) []model.Series {
	var out []model.Series
	for key, smps := range m.samples {
		floor := int64(math.MinInt64)
		for _, d := range m.deletes {
			if labels.MatchLabels(m.lsets[key], d.Matchers...) {
				floor = max(floor, d.MaxT)
			}
		}
		var kept []model.Sample
		for _, s := range smps {
			if s.T > floor && s.T >= mint {
				kept = append(kept, s)
			}
		}
		if len(kept) > 0 {
			out = append(out, model.Series{Labels: m.lsets[key], Samples: kept})
		}
	}
	slices.SortFunc(out, func(a, b model.Series) int { return labels.Compare(a.Labels, b.Labels) })
	return out
}

// deleteOracleRingRun drives a 3-member ring (R=3, W=2), members of the
// given shard count, through random interleavings of ticks, quorum deletes
// with random matchers, truncations and a member's kill and rejoin through
// SyncNode, and after every step requires the quorum read, and every
// readable member alone, to hold exactly the model over what retention
// left. A delete issued while a member is down retires nowhere before that
// member has the tombstone: after it rejoins, it serves none of the samples
// the delete took. It returns how many tombstones retired.
func deleteOracleRingRun(t *testing.T, seed int64, shards, steps int) (retired int) {
	rng := rand.New(rand.NewSource(seed))
	dir := chaosDir(t)
	open := func(name string) (*tsdb.DB, error) {
		return tsdb.Open(tsdb.Options{WALDir: filepath.Join(dir, "wal", name), Shards: shards})
	}
	ring, err := NewRingDB(3, 2, 0, open, names(3)...)
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Close()
	var series []labels.Labels
	for i := 0; i < 12; i++ {
		series = append(series, labels.FromStrings(labels.MetricName, "ring_metric", "job", fmt.Sprint(i%3), "uuid", fmt.Sprintf("u%d", i/3)))
	}
	matchers := [][]*labels.Matcher{
		{labels.MustMatcher(labels.MatchEqual, "uuid", "u0")},
		{labels.MustMatcher(labels.MatchEqual, "uuid", "u2")},
		{labels.MustMatcher(labels.MatchRegexp, "job", "0|1"), labels.MustMatcher(labels.MatchNotEqual, "uuid", "u3")},
	}
	mdl := &ringDeleteModel{samples: map[string][]model.Sample{}, lsets: map[string]labels.Labels{}}
	tick, floor, down := int64(0), int64(math.MinInt64), ""
	liveSeqs := func() (n int) {
		for _, m := range ring.MemberNames() {
			if db := ring.Member(m).DB(); db != nil {
				n += len(db.Tombstones())
			}
		}
		return n
	}
	for step := 0; step < steps; step++ {
		op := rng.Intn(100)
		switch {
		case op < 70:
			tick++
			b := ring.NewBatch()
			vs := make([]float64, len(series))
			for i, l := range series {
				vs[i] = float64(rng.Intn(1000))
				b.Add(l, tick*15_000, vs[i])
			}
			if _, err := b.Commit(); err != nil {
				t.Fatalf("seed %d, tick %d: %v", seed, tick, err)
			}
			for i, l := range series {
				mdl.lsets[l.String()] = l
				mdl.samples[l.String()] = append(mdl.samples[l.String()], model.Sample{T: tick * 15_000, V: vs[i]})
			}
		case op < 80:
			ms := matchers[rng.Intn(len(matchers))]
			maxt, ok := ring.MaxTime()
			if !ok {
				continue
			}
			if _, err := ring.DeleteSeriesQuorum(ms...); err != nil {
				t.Fatalf("seed %d: delete: %v", seed, err)
			}
			mdl.deletes = append(mdl.deletes, tsdb.TombstoneRec{MaxT: maxt, Matchers: ms})
		case op < 90:
			// Retention: keep the newest 20 ticks.
			floor = max(floor, (tick-20)*15_000)
			before := liveSeqs()
			ring.Truncate(floor)
			retired += before - liveSeqs()
		case down == "":
			down = names(3)[rng.Intn(3)]
			if err := ring.Kill(down); err != nil {
				t.Fatal(err)
			}
		default:
			if _, _, err := ring.Rejoin(down); err != nil {
				t.Fatalf("seed %d: rejoin %s: %v", seed, down, err)
			}
			down = ""
		}
		hints := model.SelectHints{Start: floor, End: math.MaxInt64}
		want := mdl.want(floor)
		got, err := ring.SelectWithHints(hints, matchAll())
		if err != nil {
			t.Fatal(err)
		}
		compareDumps(t, fmt.Sprintf("seed %d, %d shards, step %d (op %d): the ring", seed, shards, step, op), got, want)
		for _, name := range ring.MemberNames() {
			m := ring.Member(name)
			if db, err := m.readable(); err == nil {
				got, err := db.SelectWithHints(hints, matchAll())
				if err != nil {
					t.Fatal(err)
				}
				compareDumps(t, fmt.Sprintf("seed %d, %d shards, step %d (op %d): member %s", seed, shards, step, op, name), got, want)
			}
		}
	}
	return retired
}

// TestDeleteOracleRing is the ring leg of the delete oracle: random
// interleavings at 1 and 16 shards, and one fixed one: a member down
// across a delete and a truncation past it serves none of the deleted
// samples after it rejoins, and the ring retires the tombstone only then.
func TestDeleteOracleRing(t *testing.T) {
	seeds, steps := 3, 400
	if testing.Short() {
		seeds, steps = 1, 200
	}
	for _, shards := range []int{1, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			retired := 0
			for seed := int64(1); seed <= int64(seeds); seed++ {
				retired += deleteOracleRingRun(t, seed, shards, steps)
			}
			if retired == 0 {
				t.Fatal("no tombstone retired: the interleavings reach too little")
			}
		})
	}

	t.Run("down across a delete and its retirement", func(t *testing.T) {
		e := newChaosEnv(t, 3, 3, 2, 20)
		e.run(0, 20)
		if err := e.ring.Kill("node-2"); err != nil {
			t.Fatal(err)
		}
		if _, err := e.ring.DeleteSeriesQuorum(deleteIdx()); err != nil {
			t.Fatal(err)
		}
		e.oracle.DeleteSeries(deleteIdx())
		e.run(20, 60)
		e.ring.Truncate(40 * 15_000)
		for _, n := range []string{"node-0", "node-1"} {
			if got := len(e.ring.Member(n).DB().Tombstones()); got != 1 {
				t.Fatalf("%s holds %d tombstones while node-2, down, has not seen the delete; want 1", n, got)
			}
		}
		if _, _, err := e.ring.Rejoin("node-2"); err != nil {
			t.Fatal(err)
		}
		held, err := e.ring.Member("node-2").DB().SelectWithHints(model.SelectHints{Start: math.MinInt64, End: 20*15_000 - 1}, deleteIdx())
		if err != nil {
			t.Fatal(err)
		}
		if len(held) != 0 {
			t.Fatalf("the rejoined member serves %d deleted series", len(held))
		}
		e.ring.Truncate(40 * 15_000)
		for _, n := range e.ring.MemberNames() {
			if got := len(e.ring.Member(n).DB().Tombstones()); got != 0 {
				t.Fatalf("%s holds %d tombstones once every member has the delete and the heads are past it; want 0", n, got)
			}
		}
		got := dumpAll(t, e.ring.SelectWithHints)
		for _, s := range got {
			if deleteIdx().Matches(s.Labels.Get("idx")) && s.Samples[0].T < 20*15_000 {
				t.Fatalf("the ring serves %v from before the delete", s.Labels)
			}
		}
	})
}
