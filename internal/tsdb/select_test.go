package tsdb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/workpool"
)

// TestHeadSelectGrainEquivalence: how a read is split never shows in what it
// returns. The same random series — several chunks long, some with
// out-of-order samples, stale markers and NaNs among the values — go into a
// 16-shard and a 1-shard head; random matchers, windows and sample limits are
// then answered by the 16-shard head with everything fanned out (grain 1),
// with everything inline (grain ∞) and by the 1-shard head, and the three
// answers must agree to the bit: labels, order, timestamps, value bits, and
// whether the budget failed the read. So must each head read together with a
// block cut from it, whose series' pieces then straddle the fanned-out
// ranges.
func TestHeadSelectGrainEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	seed := rand.Int63()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	opts := Options{OutOfOrderWindow: 1 << 40}
	opts.Shards = 16
	fanned, inline := MustOpen(opts), MustOpen(opts)
	opts.Shards = 1
	single := MustOpen(opts)
	fanned.selectGrain, inline.selectGrain = 1, math.MaxInt
	dbs := []*DB{fanned, inline, single}

	const maxT = 400 * 15000
	for i, n := 0, 400; i < n; i++ {
		ls := randPostingsLabels(rng)
		var samples []model.Sample
		for ts, end := int64(rng.Intn(maxT)), int64(rng.Intn(maxT)); ts < end; ts += 15000 {
			v := rng.NormFloat64()
			switch rng.Intn(40) {
			case 0:
				v = math.NaN()
			case 1:
				v = model.StaleNaN()
			}
			samples = append(samples, model.Sample{T: ts + int64(rng.Intn(100)), V: v})
		}
		// Every tenth series gets its samples shuffled, so part of them
		// lands in the out-of-order buffer.
		if i%10 == 0 {
			rng.Shuffle(len(samples), func(a, b int) { samples[a], samples[b] = samples[b], samples[a] })
		}
		for _, db := range dbs {
			for _, smp := range samples {
				// A label set drawn twice re-appends old timestamps; the
				// heads refuse or absorb those alike.
				_ = db.Append(ls, smp.T, smp.V)
			}
		}
	}

	var cuts [][]*PersistentBlock // a block of the first half of each head
	for _, db := range dbs {
		b, err := db.CutPersistentBlock("", 0, maxT/2)
		if err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, []*PersistentBlock{b})
	}

	trials := 400
	if testing.Short() {
		trials = 100
	}
	limited := 0
	for trial := 0; trial < trials; trial++ {
		ms := randPostingsMatchers(rng)
		hints := model.SelectHints{Start: int64(rng.Intn(maxT)) - 1000}
		switch rng.Intn(3) {
		case 0:
			hints.End = hints.Start + int64(rng.Intn(20*15000)) // a panel's window
		case 1:
			hints.End = hints.Start + int64(rng.Intn(maxT))
		default:
			hints.Start, hints.End = math.MinInt64, math.MaxInt64
		}
		if rng.Intn(2) == 0 {
			hints.SampleLimit = int64(1 + rng.Intn(3000))
		}
		want, wantErr := single.SelectWithHints(hints, ms...)
		if errors.Is(wantErr, model.ErrSampleLimit) {
			limited++
		} else if wantErr != nil {
			t.Fatal(wantErr)
		}
		for k, db := range dbs {
			got, err := db.SelectWithHints(hints, ms...)
			if !errors.Is(err, wantErr) || !seriesEqual(got, want) {
				t.Fatalf("trial %d, grain %d: Select(%+v, %v) = %d series, err %v; one shard gives %d series, err %v",
					trial, db.selectGrain, hints, ms, len(got), err, len(want), wantErr)
			}
			got, err = Sources{Head: db, Blocks: cuts[k]}.Select(hints, ms...)
			if !errors.Is(err, wantErr) || !seriesEqual(got, want) {
				t.Fatalf("trial %d, grain %d, with a block: Select(%+v, %v) = %d series, err %v; one shard alone gives %d series, err %v",
					trial, db.selectGrain, hints, ms, len(got), err, len(want), wantErr)
			}
		}
	}
	if limited == 0 || limited == trials {
		t.Errorf("%d of %d reads hit the sample limit; the test wants both outcomes", limited, trials)
	}
}

// TestHeadSelectDecision pins when a head read wakes another core, with
// GOMAXPROCS forced to 4 on a 16-shard head: a user's one-job panel plans and
// reads on its caller — no goroutine, no pool task — and a class-wide read
// is split by series over all four.
func TestHeadSelectDecision(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	db := headSelectFixture(t, 2000, 16) // 10k series in the family, 5k of a class
	oneJob := headSelectShape{"one_job", []*labels.Matcher{headSelectShapes[0].ms[0], labels.MustMatcher(labels.MatchEqual, "uuid", "1234")}}
	for _, c := range []struct {
		shape      headSelectShape
		series     int
		goroutines uint64
	}{
		{oneJob, 5, 0},
		{headSelectShapes[1], 5000, 3},
	} {
		if c.series >= 2*selectGrain && c.series < 8*selectGrain {
			t.Fatalf("%s: %d series do not exercise the fan-out at grain %d", c.shape.name, c.series, selectGrain)
		}
		spawns, tasks := workpool.Spawns(), workpool.Tasks()
		res, err := db.Select(0, 2000, c.shape.ms...)
		if err != nil || len(res) != c.series {
			t.Fatalf("%s: %d series, err %v; want %d", c.shape.name, len(res), err, c.series)
		}
		if got := workpool.Spawns() - spawns; got != c.goroutines {
			t.Errorf("%s: %d goroutines started, want %d", c.shape.name, got, c.goroutines)
		}
		if got := workpool.Tasks() - tasks; got != 0 {
			t.Errorf("%s: %d workpool.Do tasks on the read path", c.shape.name, got)
		}
	}
	// The listings are map reads per shard: nothing to hand to another core.
	spawns, tasks := workpool.Spawns(), workpool.Tasks()
	if n := len(db.LabelValues("uuid")); n != 2000 {
		t.Fatalf("LabelValues: %d uuids", n)
	}
	db.LabelNames()
	db.Stats()
	if s, k := workpool.Spawns()-spawns, workpool.Tasks()-tasks; s != 0 || k != 0 {
		t.Errorf("label listings and Stats started %d goroutines and %d pool tasks", s, k)
	}
}

// TestHeadSelectInvertedWindow: a window whose end precedes its start — any
// caller of SelectWithHints can pass one — reads nothing. Sized from a chunk's
// bounds it once asked the slab for a negative length, a panic that on a
// read split across goroutines took the process down.
func TestHeadSelectInvertedWindow(t *testing.T) {
	db := MustOpen(Options{Shards: 4})
	for i := 0; i < 4*selectGrain; i++ {
		for ts := int64(0); ts <= 10_000; ts += 1000 {
			if err := db.Append(labels.FromStrings(labels.MetricName, "m", "i", fmt.Sprint(i)), ts, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	all := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m")
	if got, err := db.SelectWithHints(model.SelectHints{Start: 7000, End: 3000}, all); err != nil || len(got) != 0 {
		t.Fatalf("inverted window: %d series, err %v; want none", len(got), err)
	}
}

// TestHeadSelectSamplesDoNotAlias: the series of one read share sample
// memory, each capped at its own length's worth — appending to one of them
// must never write into a neighbour.
func TestHeadSelectSamplesDoNotAlias(t *testing.T) {
	db := MustOpen(Options{Shards: 4})
	all := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m")
	for i := 0; i < 50; i++ {
		for ts := int64(0); ts < int64(1+i%7)*1000; ts += 1000 {
			if err := db.Append(labels.FromStrings(labels.MetricName, "m", "i", fmt.Sprint(i)), ts, float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := db.Select(0, 5500, all)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := db.Select(0, 5500, all)
	for i := range got {
		got[i].Samples = append(got[i].Samples, model.Sample{T: -1, V: -1})
	}
	for i := range got {
		got[i].Samples = got[i].Samples[:len(got[i].Samples)-1]
	}
	if !seriesEqual(got, want) {
		t.Error("appending to one series' samples changed another's")
	}
}
