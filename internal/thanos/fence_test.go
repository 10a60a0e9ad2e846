package thanos

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb"
)

// The Querier's fence (Store.read): raw blocks serve a read only before the
// time from which the head holds every sample they hold. Each read here is
// checked against the same read with every block claimed whole, the merge
// of both tiers the fence replaces.

// TestQuerierFenceMatchesMerge drives random appends under series churn,
// ships at random head retentions, truncations, mid-series deletes,
// compactions, 5m and 1h downsampling, WAL reopens and an in-memory head
// restarted onto a store that already holds blocks (each restart onto the
// same store or onto it reopened), at 1 and 16 shards. After every step,
// random reads — windows, bare-selector and matrix steps, functions that
// admit aggregates, sample limits — must agree with the merged read
// (checkFence).
func TestQuerierFenceMatchesMerge(t *testing.T) {
	for _, shards := range []int{1, 16} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%d_shards/seed_%d", shards, seed), func(t *testing.T) { fenceOracle(t, shards, seed) })
		}
	}
}

func fenceOracle(t *testing.T, shards int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	walDir, storeDir := filepath.Join(t.TempDir(), "wal"), t.TempDir()
	const scrape = 15_000
	openHead := func(wal bool) *tsdb.DB {
		opts := tsdb.Options{Shards: shards, MaxSamplesPerChunk: 8}
		if wal {
			opts.WALDir = walDir
		}
		db, err := tsdb.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	store, err := NewStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	db, wal := openHead(true), true
	sc := &Sidecar{DB: db, Store: store}
	defer func() { db.Close(); store.Close() }()
	// restart replaces the head, reopened from its WAL or empty in memory,
	// and its sidecar; the store is reopened from its directory, as a
	// restarted process does, or, late in the run, kept, which ends its
	// fence for good.
	restart := func(onWAL bool, step int) {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if step < 120 || rng.Intn(2) == 0 {
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			if store, err = NewStore(storeDir); err != nil {
				t.Fatal(err)
			}
		}
		db, wal = openHead(onWAL), onWAL
		sc = &Sidecar{DB: db, Store: store}
	}

	series := func(k int) labels.Labels {
		return labels.FromStrings(labels.MetricName, "m", "job", fmt.Sprint("j", k%3), "s", fmt.Sprint(k))
	}
	live, next := []int{0, 1, 2, 3}, 4 // series numbers, ascending
	now := int64(0)
	var reads, fenced, restarts int
	for step := 0; step < 150; step++ {
		// A few minutes of scrapes, under churn.
		if rng.Intn(4) == 0 {
			live = append(live, next)
			next++
		}
		if len(live) > 2 && rng.Intn(5) == 0 {
			i := rng.Intn(len(live))
			live = slices.Delete(live, i, i+1)
		}
		until := now + int64(1+rng.Intn(8))*scrape
		for ; now < until; now += scrape {
			for _, k := range live {
				if err := db.Append(series(k), now, float64(k*1_000_000)+float64(now)/scrape); err != nil {
					t.Fatal(err)
				}
			}
		}
		ts := time.UnixMilli(now)
		what := ""
		switch op := rng.Intn(40); {
		case op < 12:
			sc.HeadRetention = time.Duration(rng.Intn(4)) * 5 * time.Minute
			what = fmt.Sprintf("ship, retention %v", sc.HeadRetention)
			if err := sc.Ship(ts); err != nil {
				t.Fatal(err)
			}
		case op < 18:
			sc.HeadRetention = 10 * time.Minute
			what = "maintain"
			if _, _, err := sc.Maintain(ts, 5*time.Minute); err != nil {
				t.Fatal(err)
			}
		case op < 22:
			cut := now - rng.Int63n(30*60_000)
			what = fmt.Sprintf("truncate at %d", cut)
			if _, err := db.Truncate(cut); err != nil {
				t.Fatal(err)
			}
		case op < 28:
			k, maxt := rng.Intn(next), now-rng.Int63n(20*60_000)
			what = fmt.Sprintf("delete s=%d through %d", k, maxt)
			if _, err := db.Delete(maxt, labels.MustMatcher(labels.MatchEqual, "s", fmt.Sprint(k))); err != nil {
				t.Fatal(err)
			}
		case op < 30:
			what = "compact"
			if _, err := store.Compact(db.Tombstones()); err != nil {
				t.Fatal(err)
			}
		case op < 31 && wal:
			what = "WAL reopen"
			restart(true, step)
			restarts++
		case op < 32:
			// A client re-sends the last minutes of some series, which the
			// blocks may hold already: the new head starts before they end.
			from := max(0, now-rng.Int63n(10*60_000)/scrape*scrape)
			what = fmt.Sprintf("in-memory restart, re-sent from %d", from)
			restart(false, step)
			restarts++
			for _, k := range live {
				if rng.Intn(2) == 0 {
					continue
				}
				for t0 := from; t0 < now; t0 += scrape {
					if err := db.Append(series(k), t0, float64(k*1_000_000)+float64(t0)/scrape); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		q := &Querier{Hot: db, Cold: store}
		for range 4 {
			h := randomFenceRead(rng, now)
			ms := []*labels.Matcher{labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m")}
			switch rng.Intn(3) {
			case 0:
				ms = []*labels.Matcher{labels.MustMatcher(labels.MatchEqual, "s", fmt.Sprint(rng.Intn(next)))}
			case 1:
				ms = append(ms, labels.MustMatcher(labels.MatchRegexp, "job", "j[01]"))
			}
			if fenceCuts(store, db, h) {
				fenced++
			}
			checkFence(t, fmt.Sprintf("step %d after %s, %+v", step, what, h), q, h, ms)
			reads++
		}
		if t.Failed() {
			t.Fatalf("first divergence at step %d", step)
		}
	}
	if fenced*4 < reads || restarts == 0 {
		t.Errorf("%d of %d reads fenced, after %d restarts: the run does not exercise the fence", fenced, reads, restarts)
	}
}

// randomFenceRead is a random read over [0, now]: a window alone, a bare
// selector's steps, one instant, or a function's matrix steps (those that
// admit aggregates, with steps long enough for 5m or 1h points), and a
// sample limit now and then.
func randomFenceRead(rng *rand.Rand, now int64) model.SelectHints {
	start := rng.Int63n(now + 1)
	if rng.Intn(4) == 0 {
		start = 0
	}
	h := model.SelectHints{Start: start, End: start + rng.Int63n(now-start+60_000)}
	switch rng.Intn(4) {
	case 1:
		h.Step, h.Lookback = int64(1+rng.Intn(20))*15_000, 5*60_000
	case 2:
		h.Lookback = 5 * 60_000
		h.Start = max(0, h.End-h.Lookback)
	case 3:
		h.Func = []string{"rate", "avg_over_time", "sum_over_time", "max_over_time", "min_over_time"}[rng.Intn(5)]
		h.Step = []int64{60_000, 25 * 60_000, 5 * 60 * 60_000}[rng.Intn(3)]
		h.Range, h.Lookback = h.Step/[]int64{1, 2, 5}[rng.Intn(3)], 5*60_000
		h.Start = max(0, h.Start-h.Range)
	}
	if rng.Intn(3) == 0 {
		h.SampleLimit = 1 + rng.Int63n(400)
	}
	return h
}

// fenceCuts reports whether a read over h through the store and db may
// leave some raw block time to the head.
func fenceCuts(store *Store, db *tsdb.DB, h model.SelectHints) bool {
	store.mu.RLock()
	defer store.mu.RUnlock()
	return !store.mixed && store.cutHead.Value() == db && max(store.cutFrom, db.WholeFrom()) <= h.End
}

// checkFence checks one read of q against the same read with every block
// claimed whole. Without its limit, the read must return what the merged
// read returns — exactly, or, for a bare selector's steps, where each tier
// keeps its own newest sample of a step, the same sample at every step
// (visible). Under the limit, the read must fail with model.ErrSampleLimit
// if and only if its unlimited result holds more samples than the limit,
// and otherwise return that result.
func checkFence(t *testing.T, what string, q *Querier, h model.SelectHints, ms []*labels.Matcher) {
	t.Helper()
	whole := h
	whole.SampleLimit = 0
	want, err := q.Cold.read(q.Hot, whole, ms, false)
	if err != nil {
		t.Fatalf("%s: merged read: %v", what, err)
	}
	all, err := q.SelectWithHints(whole, ms...)
	if err != nil {
		t.Fatalf("%s: fenced read: %v", what, err)
	}
	if f := h.StepFilter(); f == nil || !f.One() && h.Range > 0 {
		if !sameSeries(all, want) {
			t.Errorf("%s: the fenced read returns\n%v\nthe merged read\n%v", what, all, want)
		}
	} else if got, want := visible(all, h), visible(want, h); !sameSeries(got, want) {
		t.Errorf("%s: the steps see\n%v\nthrough the fenced read, and\n%v\nthrough the merged read", what, got, want)
	}
	if h.SampleLimit == 0 {
		return
	}
	n := int64(0)
	for _, s := range all {
		n += int64(len(s.Samples))
	}
	got, err := q.SelectWithHints(h, ms...)
	switch {
	case n > h.SampleLimit && !errors.Is(err, model.ErrSampleLimit):
		t.Errorf("%s: %d samples under a limit of %d: err = %v, want ErrSampleLimit", what, n, h.SampleLimit, err)
	case n <= h.SampleLimit && (err != nil || !sameSeries(got, all)):
		t.Errorf("%s: %d samples under a limit of %d: %d series, err %v; want the unlimited answer", what, n, h.SampleLimit, len(got), err)
	}
}

// visible is what the steps of h see of series: at each step, the newest
// sample of its window (model.StepFilter applied to the whole series).
func visible(series []model.Series, h model.SelectHints) []model.Series {
	var out []model.Series
	for _, s := range series {
		f := *h.StepFilter()
		var kept []model.Sample
		for _, smp := range s.Samples {
			kept = f.Append(kept, smp.T, smp.V)
		}
		if len(kept) > 0 {
			out = append(out, model.Series{Labels: s.Labels, Samples: kept})
		}
	}
	return out
}

// TestQuerierFenceHeadRestartedOntoBlocks: a process restarts with an
// empty in-memory head onto its block store directory, and a client
// re-sends the last 20 s of one of its two series, which the blocks already
// hold. The new head was never pruned and holds samples from before the end
// of the blocks, yet holds nothing of the other series there: until the new
// head's first cut the blocks serve every read whole, and from it on what
// is older than where that cut began.
func TestQuerierFenceHeadRestartedOntoBlocks(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m")
	a, b := labels.FromStrings(labels.MetricName, "m", "s", "a"), labels.FromStrings(labels.MetricName, "m", "s", "b")
	first := tsdb.MustOpen(tsdb.DefaultOptions())
	sc := &Sidecar{DB: first, Store: store, HeadRetention: 10 * time.Second}
	for ts := int64(0); ts < 60_000; ts += 1000 {
		for _, ls := range []labels.Labels{a, b} {
			if err := first.Append(ls, ts, float64(ts)); err != nil {
				t.Fatal(err)
			}
		}
		if ts%20_000 == 19_000 {
			if err := sc.Ship(time.UnixMilli(ts)); err != nil {
				t.Fatal(err)
			}
		}
	}
	store.Close()
	if store, err = NewStore(dir); err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	head := tsdb.MustOpen(tsdb.DefaultOptions())
	for ts := int64(40_000); ts < 60_000; ts += 1000 {
		if err := head.Append(a, ts, float64(ts)); err != nil {
			t.Fatal(err)
		}
	}
	// The first ship keeps the whole head: only the store's bound fences it.
	q := &Querier{Hot: head, Cold: store}
	sc = &Sidecar{DB: head, Store: store}
	all := model.SelectHints{Start: 0, End: 200_000}
	want := 120 // every sample of the first head, from the blocks
	for ts := int64(60_000); ts < 120_000; ts += 1000 {
		for _, ls := range []labels.Labels{a, b} {
			if err := head.Append(ls, ts, float64(ts)); err != nil {
				t.Fatal(err)
			}
		}
		want += 2
		if ts%15_000 == 14_000 {
			if err := sc.Ship(time.UnixMilli(ts)); err != nil {
				t.Fatal(err)
			}
			sc.HeadRetention = 10 * time.Second
		}
		got, err := q.SelectWithHints(all, m)
		if err != nil {
			t.Fatal(err)
		}
		if n := countSamples(got); n != want {
			t.Fatalf("at %d: the restarted head's querier returns %d samples, want %d", ts, n, want)
		}
		checkFence(t, fmt.Sprintf("at %d", ts), q, all, []*labels.Matcher{m})
	}
	if !fenceCuts(store, head, all) {
		t.Fatal("the fence never came on after the restarted head's cuts")
	}
}

// TestQuerierFenceDeleteBeforeNewest: a delete drops a head series whole,
// samples past the tombstone's maxt too, while the blocks keep those. The
// series' kept head chunk starts at 1200, retention has pruned through
// 1250 and the tombstone deletes through 1300: the blocks must serve the
// series' samples 1310..1990 that the head no longer holds.
func TestQuerierFenceDeleteBeforeNewest(t *testing.T) {
	db := tsdb.MustOpen(tsdb.Options{Shards: 1, MaxSamplesPerChunk: 30})
	ls := labels.FromStrings(labels.MetricName, "m", "s", "0")
	for ts := int64(0); ts < 2000; ts += 10 {
		if err := db.Append(ls, ts, float64(ts)); err != nil {
			t.Fatal(err)
		}
	}
	store, _ := NewStore("")
	mustCut(t, store, db, 0, 1999)
	if _, err := db.Truncate(1250); err != nil {
		t.Fatal(err)
	}
	if hmin, _ := db.MinTime(); hmin != 1250 {
		t.Fatalf("the head's MinTime is %d after truncating at 1250", hmin)
	}
	m := labels.MustMatcher(labels.MatchEqual, "s", "0")
	q := &Querier{Hot: db, Cold: store}
	all := model.SelectHints{Start: 0, End: 5000}
	if got, _ := q.SelectWithHints(all, m); countSamples(got) != 200 {
		t.Fatalf("before the delete: %d samples, want 200", countSamples(got))
	}
	if n, err := db.Delete(1300, m); err != nil || n != 1 {
		t.Fatalf("Delete(1300) = %d, %v; want the series", n, err)
	}
	got, err := q.SelectWithHints(all, m)
	if err != nil {
		t.Fatal(err)
	}
	if n := countSamples(got); n != 69 || got[0].Samples[0].T != 1310 {
		t.Fatalf("after the delete: %d samples (%v), want the blocks' 69 from 1310 on", n, got)
	}
	checkFence(t, "after the delete", q, all, []*labels.Matcher{m})
}

// TestQuerierFenceRacingTruncate: reads race truncations of the head that
// raise its whole-from watermark past the fence a read started with. The
// blocks hold every sample and the head drops only what they hold, so every
// read must return all of them: a read that a truncation overtook is done
// again with the blocks whole.
func TestQuerierFenceRacingTruncate(t *testing.T) {
	db := tsdb.MustOpen(tsdb.Options{Shards: 4, MaxSamplesPerChunk: 4})
	for k := range 8 {
		ls := labels.FromStrings(labels.MetricName, "m", "s", fmt.Sprint(k))
		for ts := int64(0); ts < 4000; ts += 10 {
			if err := db.Append(ls, ts, float64(ts)); err != nil {
				t.Fatal(err)
			}
		}
	}
	store, _ := NewStore("")
	mustCut(t, store, db, 0, 3999)
	q := &Querier{Hot: db, Cold: store}
	m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m")
	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for cut := int64(10); cut < 4000; cut += 10 {
			if _, err := db.Truncate(cut); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for range 500 {
		got, err := q.SelectWithHints(model.SelectHints{Start: 0, End: 4000}, m)
		if err != nil {
			t.Fatal(err)
		}
		if n := countSamples(got); n != 8*400 {
			t.Fatalf("a read racing truncation returns %d samples, want %d", n, 8*400)
		}
	}
}
