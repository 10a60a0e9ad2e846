package thanos

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/labels"
	"repro/internal/tsdb"
)

// TestLabelListsOracle drives random creates, appends, deletes, truncates,
// WAL reopens, ships, compactions and downsampling against a WAL-backed
// head and a block store, on 1 and 16 shards, while one goroutine appends
// series of a label it mints a new value of at every turn, and another
// reads every label list throughout. After every step the head's, the
// store's and the Querier's label names and values must equal what a
// brute-force scan finds: the oracle's live series for the head, and every
// series of every registered block for the store.
func TestLabelListsOracle(t *testing.T) {
	for _, shards := range []int{1, 16} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%d_shards/seed_%d", shards, seed), func(t *testing.T) { labelListsOracle(t, shards, seed) })
		}
	}
}

func labelListsOracle(t *testing.T, shards int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	walDir := t.TempDir()
	open := func() *tsdb.DB {
		opts := tsdb.DefaultOptions()
		opts.Shards, opts.WALDir, opts.MaxSamplesPerChunk = shards, walDir, 2
		db, err := tsdb.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	store, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.RWMutex // a reopen swaps q.Hot under the write lock
		q       = &Querier{Hot: open(), Cold: store}
		minted  atomic.Int64 // values the appender's appends returned for
		tokens  = make(chan struct{}, 8)
		stop    = make(chan struct{})
		bg      sync.WaitGroup
		mintedT = int64(1) << 40 // past every step: never truncated, shipped or deleted
	)
	halt := sync.OnceFunc(func() {
		close(stop)
		bg.Wait()
		q.Hot.Close()
	})
	t.Cleanup(halt)
	bg.Add(2)
	go func() { // the minting appender, a few appends per step
		defer bg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			case <-tokens:
			}
			mu.RLock()
			err := q.Hot.Append(labels.FromStrings(labels.MetricName, "bg", "minted", mintedValue(i)), mintedT+i, 1)
			mu.RUnlock()
			if err != nil {
				t.Errorf("minting append %d: %v", i, err)
				return
			}
			minted.Store(i + 1)
		}
	}()
	go func() { // the reader
		defer bg.Done()
		names := []string{labels.MetricName, "minted", "job", "uuid", "node"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mu.RLock()
			for _, ls := range []interface {
				LabelNames() []string
				LabelValues(string) []string
			}{q.Hot, store, q} {
				for _, list := range [][]string{ls.LabelNames(), ls.LabelValues(names[i%len(names)])} {
					if !strictlyAscending(list) {
						t.Errorf("concurrent label read not strictly ascending: %q", list)
					}
				}
			}
			mu.RUnlock()
			runtime.Gosched()
		}
	}()
	tokens <- struct{}{}
	for minted.Load() == 0 {
		runtime.Gosched()
	}

	type liveSeries struct {
		lset  labels.Labels
		lastT int64
	}
	live := map[string]*liveSeries{}
	now, shipped := int64(1000), int64(0)
	for step := 0; step < 120; step++ {
		for range 3 {
			select {
			case tokens <- struct{}{}:
			default:
			}
		}
		now += 10
		where := fmt.Sprintf("step %d", step)
		switch op := rng.Intn(16); {
		case op < 8: // create or append
			lset := labels.FromStrings(labels.MetricName, fmt.Sprintf("m%d", rng.Intn(3)),
				"job", fmt.Sprintf("j%d", rng.Intn(8)), "uuid", fmt.Sprintf("u%02d", rng.Intn(40)), "node", fmt.Sprintf("n%d", rng.Intn(4)))
			ls := live[lset.String()]
			if ls == nil {
				ls = &liveSeries{lset: lset}
				live[lset.String()] = ls
			}
			now++
			if err := q.Hot.Append(lset, now, 1); err != nil {
				t.Fatalf("%s: append %s: %v", where, lset, err)
			}
			ls.lastT = now
			where += " append"
		case op == 8: // delete
			ms := []*labels.Matcher{labels.MustMatcher(labels.MatchRegexp, labels.MetricName, "m.*"),
				labels.MustMatcher(labels.MatchEqual, "job", fmt.Sprintf("j%d", rng.Intn(8)))}
			for k, ls := range live {
				if labels.MatchLabels(ls.lset, ms...) {
					delete(live, k)
				}
			}
			if _, err := q.Hot.Delete(now, ms...); err != nil {
				t.Fatal(err)
			}
			where += " delete"
		case op == 9: // truncate
			mint := now - int64(rng.Intn(200))
			for k, ls := range live {
				if ls.lastT < mint {
					delete(live, k)
				}
			}
			// Not while the appender runs: a truncate that lands between a
			// new series' creation and its first sample removes it, and the
			// sample with it.
			mu.Lock()
			_, err := q.Hot.Truncate(mint)
			mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			where += " truncate"
		case op == 10: // WAL reopen
			mu.Lock()
			if err := q.Hot.Close(); err != nil {
				t.Fatal(err)
			}
			q.Hot = open()
			mu.Unlock()
			where += " reopen"
		case op == 11 || op == 12: // ship
			if _, err := store.CutHead(q.Hot, shipped+1, now); err != nil {
				t.Fatal(err)
			}
			shipped = now
			where += " ship"
		case op == 13 || op == 14:
			if _, err := store.Compact(q.Hot.Tombstones()); err != nil {
				t.Fatal(err)
			}
			where += " compact"
		default:
			if _, err := store.Downsample(now, 100*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			where += " downsample"
		}

		head := map[string]map[string]bool{}
		for _, ls := range live {
			for _, l := range ls.lset {
				if head[l.Name] == nil {
					head[l.Name] = map[string]bool{}
				}
				head[l.Name][l.Value] = true
			}
		}
		cold := labelOracle(t, store, nil)
		both := map[string]map[string]bool{}
		for name, vs := range head {
			both[name] = maps.Clone(vs)
		}
		for name, vs := range cold {
			if both[name] == nil {
				both[name] = map[string]bool{}
			}
			for _, v := range vs {
				both[name][v] = true
			}
		}
		checkLabels(t, where+": store", store, cold)
		checkMinting(t, where+": head", q.Hot, sortedSets(head), &minted)
		checkMinting(t, where+": querier", q, sortedSets(both), &minted)
		if t.Failed() {
			t.FailNow()
		}
	}
	halt()
}

func mintedValue(i int64) string { return fmt.Sprintf("%06d", i) }

func sortedSets(sets map[string]map[string]bool) map[string][]string {
	out := make(map[string][]string, len(sets))
	for name, vs := range sets {
		out[name] = slices.Sorted(maps.Keys(vs))
	}
	return out
}

// checkMinting is checkLabels for a store that also holds the minting
// appender's series: want plus the name minted and the metric bg, and every
// value the appender had minted when the read began, and no value it had
// not begun to mint when the read ended. (A read of several shards is not
// a snapshot: it may list a value without one minted just before it.)
func checkMinting(t *testing.T, when string, ls interface {
	LabelNames() []string
	LabelValues(name string) []string
}, want map[string][]string, minted *atomic.Int64) {
	t.Helper()
	lo := minted.Load()
	got := ls.LabelValues("minted")
	hi := minted.Load() + 1 // one append may be under way
	for i := int64(0); i < lo; i++ {
		if _, ok := slices.BinarySearch(got, mintedValue(i)); !ok {
			t.Errorf("%s: minted value %q missing, the appender had minted %d", when, mintedValue(i), lo)
			break
		}
	}
	if len(got) > 0 && got[len(got)-1] >= mintedValue(hi) {
		t.Errorf("%s: minted value %q listed, the appender had begun %d", when, got[len(got)-1], hi)
	}
	with := maps.Clone(want)
	with["minted"] = nil
	with[labels.MetricName] = slices.Sorted(slices.Values(append(slices.Clone(want[labels.MetricName]), "bg")))
	got = ls.LabelNames()
	if names := slices.Sorted(maps.Keys(with)); !slices.Equal(got, names) {
		t.Errorf("%s: LabelNames = %v, the oracle has %v", when, got, names)
	}
	for name, vs := range with {
		if name == "minted" {
			continue
		}
		if got := ls.LabelValues(name); !slices.Equal(got, vs) {
			t.Errorf("%s: LabelValues(%q) = %v, the oracle has %v", when, name, got, vs)
		}
	}
	if got := ls.LabelValues("absent"); len(got) != 0 {
		t.Errorf(`%s: LabelValues("absent") = %v`, when, got)
	}
}

func strictlyAscending(list []string) bool {
	for i := 1; i < len(list); i++ {
		if list[i-1] >= list[i] {
			return false
		}
	}
	return true
}

// TestStoreForgetsListsOfRetiredBlockSets: each call that changes the block
// set — a ship, a compaction, a downsampling pass, a ship with head
// retention — returns with no label list kept from the set before it, and
// every block it retired collectable: the kept lists' strings are substrings
// of the blocks' symbol tables, so a list that outlived its set would keep a
// retired block's table alive. The retention case truncates the head past
// series the blocks still hold.
func TestStoreForgetsListsOfRetiredBlockSets(t *testing.T) {
	for _, tc := range []struct {
		name    string
		retires bool
		change  func(t *testing.T, sc *Sidecar)
	}{
		{"ship", false, func(t *testing.T, sc *Sidecar) {
			if err := sc.Ship(time.UnixMilli(400)); err != nil {
				t.Fatal(err)
			}
		}},
		{"compaction", true, func(t *testing.T, sc *Sidecar) {
			if n, err := sc.Store.Compact(nil); err != nil || n != 1 {
				t.Fatalf("Compact = %d, %v; want one compaction", n, err)
			}
		}},
		{"downsampling", false, func(t *testing.T, sc *Sidecar) {
			if n, err := sc.Store.Downsample(1<<60, 100*time.Millisecond); err != nil || n == 0 {
				t.Fatalf("Downsample = %d, %v; want a block", n, err)
			}
		}},
		{"retention", false, func(t *testing.T, sc *Sidecar) {
			sc.HeadRetention = 50 * time.Millisecond
			if err := sc.Ship(time.UnixMilli(400)); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := NewStore("")
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			db := tsdb.MustOpen(tsdb.DefaultOptions())
			for i := range 4 {
				ls := labels.FromStrings(labels.MetricName, "m", "uuid", fmt.Sprintf("u%d", i))
				for ts := int64(0); ts <= 400-int64(i%2)*200; ts += 10 { // u1 and u3 end at 200
					if err := db.Append(ls, ts, 1); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Three level-1 blocks, one per 100 ms: a compaction's run.
			for lo := int64(0); lo < 300; lo += 100 {
				mustCut(t, store, db, lo, lo+99)
			}
			sc := &Sidecar{DB: db, Store: store}
			sc.lastShip = 299
			q := &Querier{Hot: db, Cold: store}

			// Every block's table gets a cleanup, then the lists are kept.
			var collected atomic.Int32
			store.mu.RLock()
			before := len(store.blocks)
			for _, b := range store.blocks {
				v := b.LabelValues("uuid")[0]
				runtime.AddCleanup(unsafe.StringData(v), func(*atomic.Int32) { collected.Add(1) }, &collected)
			}
			store.mu.RUnlock()
			checkLabels(t, "before", q, labelOracle(t, store, db))
			checkLabels(t, "store before", store, labelOracle(t, store, nil))
			store.lists.Lock()
			kept := len(store.values)
			store.lists.Unlock()
			if kept == 0 {
				t.Fatal("no label list kept after the reads")
			}

			tc.change(t, sc)
			store.lists.Lock()
			names, values := store.names, len(store.values)
			store.lists.Unlock()
			if names != nil || values != 0 {
				t.Errorf("the store keeps %d names and %d value lists from the block set before", len(names), values)
			}
			checkLabels(t, "after", q, labelOracle(t, store, db))
			checkLabels(t, "store after", store, labelOracle(t, store, nil))
			if !tc.retires {
				return
			}
			store.mu.RLock()
			retired := before + 1 - len(store.blocks) // a compaction adds one block for those it retires
			store.mu.RUnlock()
			if retired <= 0 {
				t.Fatalf("%s retired no block", tc.name)
			}
			for i := 0; i < 100 && collected.Load() < int32(retired); i++ {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			if got := collected.Load(); got < int32(retired) {
				t.Errorf("%d of the %d retired blocks' symbol tables were collected", got, retired)
			}
		})
	}
}

// BenchmarkStoreLabelValues measures a dashboard variable lookup against the
// block store: /label/uuid/values over 8 blocks holding 20k uuids, each
// block 2.5k jobs' and half of them again in the next block, as jobs that
// straddle a cut do. Each read but the first is answered from the store's
// kept list.
func BenchmarkStoreLabelValues(b *testing.B) {
	const blocks, jobs = 8, 20000
	store, err := NewStore("")
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	per := int64(jobs / blocks)
	for blk := int64(0); blk < blocks; blk++ {
		db := tsdb.MustOpen(tsdb.DefaultOptions())
		for j := blk * per; j < (blk+1)*per+per/2 && j < jobs; j++ {
			ls := labels.FromStrings(labels.MetricName, "ceems_job_power_watts", "uuid", fmt.Sprintf("%08x-%04x", j*2654435761%(1<<32), j), "instance", fmt.Sprintf("n%d", j%42))
			if err := db.Append(ls, blk*1000, 1); err != nil {
				b.Fatal(err)
			}
		}
		mustCut(b, store, db, blk*1000, blk*1000+999)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := store.LabelValues("uuid"); len(got) != jobs {
			b.Fatalf("%d values, want %d", len(got), jobs)
		}
	}
}
