package tsdb

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
)

// The property test's vocabulary: a handful of label names with a small
// value pool each, so matchers hit, miss and overlap. "absent" is never set
// on any series; "bg" marks the concurrent appender's series, which the
// oracle ignores.
var (
	postingsNames    = []string{"job", "uuid", "node", "class"}
	postingsPatterns = []string{"v1|v2|v3", "v0|nope", "v4", "v.*", "v[0-2]", ".+", ".*", "", "v1|", "(v1|v2)?", "nope|nada", "v1|v1", "v2|v3|v2"}
)

func randPostingsLabels(rng *rand.Rand) labels.Labels {
	ss := []string{labels.MetricName, fmt.Sprintf("m%d", rng.Intn(4))}
	for _, n := range postingsNames {
		if rng.Intn(10) < 6 {
			ss = append(ss, n, fmt.Sprintf("v%d", rng.Intn(6)))
		}
	}
	return labels.FromStrings(ss...)
}

func randPostingsMatchers(rng *rand.Rand) []*labels.Matcher {
	names := append([]string{labels.MetricName, "absent"}, postingsNames...)
	ms := make([]*labels.Matcher, 1+rng.Intn(3))
	for i := range ms {
		name := names[rng.Intn(len(names))]
		typ := labels.MatchType(rng.Intn(4))
		var value string
		switch {
		case typ == labels.MatchRegexp || typ == labels.MatchNotRegexp:
			value = postingsPatterns[rng.Intn(len(postingsPatterns))]
			if name == labels.MetricName {
				value = "m1|m2"
			}
		case rng.Intn(5) == 0:
			value = "" // {name=""} / {name!=""}: label absent / present
		case name == labels.MetricName:
			value = fmt.Sprintf("m%d", rng.Intn(5))
		default:
			value = fmt.Sprintf("v%d", rng.Intn(7))
		}
		ms[i] = labels.MustMatcher(typ, name, value)
	}
	return ms
}

// checkPostingsInvariants asserts the shard's index is exactly the inverse
// of its series: every list strictly ascending, holding only live refs that
// carry the label, and every live series present in each of its lists; and
// that the sorted name and value lists are exactly the keys of postings.
func checkPostingsInvariants(t *testing.T, sh *headShard) {
	t.Helper()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if want := slices.Sorted(maps.Keys(sh.postings)); !slices.Equal(sh.names, want) {
		t.Fatalf("names %q, want the sorted keys of postings %q", sh.names, want)
	}
	if len(sh.values) != len(sh.postings) {
		t.Fatalf("values has %d names, postings %d", len(sh.values), len(sh.postings))
	}
	for name, vm := range sh.postings {
		if want := slices.Sorted(maps.Keys(vm)); !slices.Equal(sh.values[name], want) {
			t.Fatalf("values[%q] = %q, want the sorted keys of postings[%q] %q", name, sh.values[name], name, want)
		}
	}
	entries := 0
	for name, vm := range sh.postings {
		if len(vm) == 0 {
			t.Fatalf("postings[%q] is empty but present", name)
		}
		for value, list := range vm {
			if len(list) == 0 {
				t.Fatalf("postings[%q][%q] is empty but present", name, value)
			}
			entries += len(list)
			for i, ref := range list {
				if i > 0 && list[i-1] >= ref {
					t.Fatalf("postings[%q][%q] not strictly ascending at %d: %v", name, value, i, list)
				}
				s, ok := sh.byRef[ref]
				if !ok {
					t.Fatalf("postings[%q][%q] holds dead ref %d", name, value, ref)
				}
				if s.lset.Get(name) != value {
					t.Fatalf("postings[%q][%q] holds ref %d of %s", name, value, ref, s.lset)
				}
			}
		}
	}
	want := 0
	for ref, s := range sh.byRef {
		want += len(s.lset)
		for _, l := range s.lset {
			if _, ok := slices.BinarySearch(sh.postings[l.Name][l.Value], ref); !ok {
				t.Fatalf("series %s (ref %d) missing from postings[%q][%q]", s.lset, ref, l.Name, l.Value)
			}
		}
		if sh.lookupLocked(s.lset.Hash(), s.lset) != s {
			t.Fatalf("series %s (ref %d) missing from its collision chain", s.lset, ref)
		}
	}
	if entries != want {
		t.Fatalf("postings hold %d entries, live series carry %d labels", entries, want)
	}
}

// selectedLabelSets runs the index select on every shard and returns the
// sorted label-set strings, ignoring the background appender's series.
func selectedLabelSets(db *DB, ms []*labels.Matcher) []string {
	out := []string{}
	for _, sh := range db.shards {
		sh.mu.RLock()
		for _, s := range sh.selectLocked(nil, ms) {
			if !s.lset.Has("bg") {
				out = append(out, s.lset.String())
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// checkLabelLists holds a head's label lists to the oracle's live series:
// each list strictly ascending, listing every name and value the oracle
// has. Only the background appender's vocabulary — the names bg, job and
// __name__, and the job and __name__ values it writes — may list more.
func checkLabelLists(t *testing.T, db *DB, live []labels.Labels, where string) {
	t.Helper()
	bgName := func(n string) bool { return n == "bg" || n == "job" || n == labels.MetricName }
	check := func(what string, got []string, want map[string]bool, extra func(string) bool) {
		t.Helper()
		if !strictlyAscending(got) {
			t.Fatalf("%s: %s on %d shards not strictly ascending: %q", where, what, db.NumShards(), got)
		}
		for _, v := range got {
			if !want[v] && !extra(v) {
				t.Fatalf("%s: %s on %d shards lists %q, no live series has it: %q", where, what, db.NumShards(), v, got)
			}
		}
		for v := range want {
			if _, ok := slices.BinarySearch(got, v); !ok {
				t.Fatalf("%s: %s on %d shards misses %q: %q", where, what, db.NumShards(), v, got)
			}
		}
	}
	names := map[string]bool{}
	for _, lset := range live {
		for _, l := range lset {
			names[l.Name] = true
		}
	}
	check("LabelNames", db.LabelNames(), names, bgName)
	for _, name := range append([]string{labels.MetricName, "absent"}, postingsNames...) {
		values := map[string]bool{}
		for _, lset := range live {
			if v := lset.Get(name); v != "" {
				values[v] = true
			}
		}
		extra := func(string) bool { return false }
		if bgName(name) {
			extra = func(string) bool { return true }
		}
		check(fmt.Sprintf("LabelValues(%q)", name), db.LabelValues(name), values, extra)
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

func withoutBackground(in []model.Series) []model.Series {
	out := []model.Series{}
	for _, sr := range in {
		if !sr.Labels.Has("bg") {
			out = append(out, sr)
		}
	}
	return out
}

// TestPostingsProperty drives random creates, DeleteSeries and Truncate
// against a 1-shard and a 16-shard head while another goroutine registers
// and appends series of its own, and checks after every step that the index
// select equals labels.MatchLabels over the live series (a brute-force
// oracle kept beside the heads), that both heads answer identically, that
// both heads' label lists are the oracle's, and that the postings lists stay
// the exact sorted inverse of the series maps. A third goroutine reads label
// lists throughout, so the race pass covers their upkeep.
func TestPostingsProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Two samples close a chunk, so Truncate removes series that end in
		// a closed chunk and series that end in an open one.
		dbs := []*DB{MustOpen(Options{Shards: 1, MaxSamplesPerChunk: 2}), MustOpen(Options{Shards: 16, MaxSamplesPerChunk: 2})}

		stop := make(chan struct{})
		var bg sync.WaitGroup
		// A failing step ends the test with the goroutines still running:
		// the cleanup stops them, so that they do not outlive the test and
		// load the tests that follow (FuzzWALRecord bounds the process's
		// allocations).
		halt := sync.OnceFunc(func() {
			close(stop)
			bg.Wait()
		})
		t.Cleanup(halt)
		bg.Add(2)
		go func() {
			defer bg.Done()
			names := append([]string{labels.MetricName, "bg"}, postingsNames...)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for _, db := range dbs {
					for _, list := range [][]string{db.LabelNames(), db.LabelValues(names[i%len(names)])} {
						if !strictlyAscending(list) {
							t.Errorf("seed %d: concurrent label read on %d shards not strictly ascending: %q", seed, db.NumShards(), list)
							return
						}
					}
				}
			}
		}()
		go func() {
			defer bg.Done()
			brng := rand.New(rand.NewSource(seed + 1000))
			for ts := int64(1); ; ts++ {
				select {
				case <-stop:
					return
				default:
				}
				id := brng.Intn(500)
				lset := labels.FromStrings(labels.MetricName, fmt.Sprintf("m%d", id%4), "bg", fmt.Sprint(id), "job", fmt.Sprintf("v%d", id%6))
				for _, db := range dbs {
					// Out-of-order after a delete/re-create race is fine here.
					_ = db.Append(lset, ts, 1)
				}
			}
		}()

		// The oracle: label set -> last timestamp.
		type liveSeries struct {
			lset  labels.Labels
			lastT int64
		}
		live := map[string]*liveSeries{}
		now := int64(1000)
		for step := 0; step < 400; step++ {
			now += 10
			switch op := rng.Intn(10); {
			case op < 5:
				lset := randPostingsLabels(rng)
				ls := live[lset.String()]
				if ls == nil {
					ls = &liveSeries{lset: lset}
					live[lset.String()] = ls
				}
				// One or two samples, so about half the series end in a
				// closed chunk and half in an open one.
				for i := rng.Intn(2); i < 2; i++ {
					now++
					for _, db := range dbs {
						if err := db.Append(lset, now, float64(step)); err != nil {
							t.Fatalf("seed %d step %d: append %s: %v", seed, step, lset, err)
						}
					}
					ls.lastT = now
				}
			case op == 5:
				ms := randPostingsMatchers(rng)
				want := 0
				for k, ls := range live {
					if labels.MatchLabels(ls.lset, ms...) {
						delete(live, k)
						want++
					}
				}
				for _, db := range dbs {
					if got := db.DeleteSeries(ms...); got < want {
						t.Fatalf("seed %d step %d: DeleteSeries(%v) on %d shards = %d, oracle deleted %d", seed, step, ms, db.NumShards(), got, want)
					}
				}
			case op == 6:
				mint := now - int64(rng.Intn(400))
				for k, ls := range live {
					// Removed iff silent since before mint, whether its last
					// chunk is closed or open.
					if ls.lastT < mint {
						delete(live, k)
					}
				}
				for _, db := range dbs {
					db.Truncate(mint)
				}
			}

			ms := randPostingsMatchers(rng)
			want := []string{}
			for _, ls := range live {
				if labels.MatchLabels(ls.lset, ms...) {
					want = append(want, ls.lset.String())
				}
			}
			sort.Strings(want)
			var answers [][]model.Series
			for _, db := range dbs {
				if got := selectedLabelSets(db, ms); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: select %v on %d shards\n got %v\nwant %v", seed, step, ms, db.NumShards(), got, want)
				}
				res, err := db.Select(0, now, ms...)
				if err != nil {
					t.Fatal(err)
				}
				answers = append(answers, withoutBackground(res))
			}
			if !reflect.DeepEqual(answers[0], answers[1]) {
				t.Fatalf("seed %d step %d: Select(%v) differs between 1 and 16 shards\n 1: %v\n16: %v", seed, step, ms, answers[0], answers[1])
			}
			if len(answers[0]) != len(want) {
				t.Fatalf("seed %d step %d: Select(%v) returned %d series, oracle has %d", seed, step, ms, len(answers[0]), len(want))
			}
			lsets := make([]labels.Labels, 0, len(live))
			for _, ls := range live {
				lsets = append(lsets, ls.lset)
			}
			for _, db := range dbs {
				checkLabelLists(t, db, lsets, fmt.Sprintf("seed %d step %d", seed, step))
			}
			if step%20 == 0 {
				for _, db := range dbs {
					for _, sh := range db.shards {
						checkPostingsInvariants(t, sh)
					}
				}
			}
		}
		halt()
		for _, db := range dbs {
			for _, sh := range db.shards {
				checkPostingsInvariants(t, sh)
			}
		}
	}
}

func TestSeekPosting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 70; n++ {
		list := make([]uint64, n)
		ref := uint64(0)
		for i := range list {
			ref += 1 + uint64(rng.Intn(3))
			list[i] = ref
		}
		for want := uint64(0); want <= ref+2; want++ {
			exp, _ := slices.BinarySearch(list, want)
			if got := seekPosting(list, want); got != exp {
				t.Fatalf("seekPosting(%v, %d) = %d, want %d", list, want, got, exp)
			}
		}
	}
}

// headSelectFixture registers jobs×perJob series of one metric family (each
// job its own uuid, alternating node classes) plus as many series of other
// families, one sample each; on a single shard list sizes are exact.
func headSelectFixture(b testing.TB, jobs, shards int) *DB {
	b.Helper()
	const perJob = 5
	db := MustOpen(Options{Shards: shards})
	app := db.Appender()
	for j := 0; j < jobs; j++ {
		for k := 0; k < perJob; k++ {
			for _, name := range []string{"ceems_job_power_watts", "ceems_job_other"} {
				app.Add(labels.FromStrings(labels.MetricName, name,
					"uuid", fmt.Sprint(j), "core", fmt.Sprint(k),
					"nodeclass", []string{"intel", "amd"}[j%2], "instance", fmt.Sprintf("n%d", j%1400)), 1000, 1)
			}
		}
	}
	if _, err := app.Commit(); err != nil {
		b.Fatal(err)
	}
	return db
}

// headSelectShapes are the matcher shapes the stack issues: a user's one-job
// panel, a recording rule over a node class, a multi-value dashboard
// variable, and a selector the index cannot narrow.
var headSelectShapes = func() []headSelectShape {
	name := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "ceems_job_power_watts")
	return []headSelectShape{
		{"one_job_of_50k", []*labels.Matcher{name, labels.MustMatcher(labels.MatchEqual, "uuid", "4242")}},
		{"class_wide", []*labels.Matcher{name, labels.MustMatcher(labels.MatchEqual, "nodeclass", "intel")}},
		{"alternation", []*labels.Matcher{name, labels.MustMatcher(labels.MatchRegexp, "uuid", "17|4242|9001")}},
		{"negative_only", []*labels.Matcher{labels.MustMatcher(labels.MatchNotEqual, "nodeclass", "intel"), labels.MustMatcher(labels.MatchNotRegexp, "uuid", "1.*")}},
	}
}()

type headSelectShape struct {
	name string
	ms   []*labels.Matcher
}

func benchHeadSelect(b *testing.B, shards int, shapes []headSelectShape) {
	db := headSelectFixture(b, 10000, shards) // 50k series in the queried family
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res, err := db.Select(0, 2000, sh.ms...); err != nil || len(res) == 0 {
					b.Fatalf("select: %d series, err %v", len(res), err)
				}
			}
		})
	}
}

// BenchmarkHeadSelect measures the head's index select plus sample copy on
// one shard.
func BenchmarkHeadSelect(b *testing.B) { benchHeadSelect(b, 1, headSelectShapes) }

// BenchmarkHeadSelect16 is the same head on 16 shards, for the two shapes
// where the shard count could show: a one-job read must cost about what it
// costs on one shard (it starts no goroutine), a class-wide one must still
// use every core. Gated at -cpu 2.
func BenchmarkHeadSelect16(b *testing.B) { benchHeadSelect(b, 16, headSelectShapes[:2]) }

// BenchmarkHeadSelectGrain is the measurement behind selectGrain: a select
// of n series read inline and read fanned out, at the two window lengths the
// stack reads most (a rule's 2-minute rate window, a panel's 15 minutes).
// Run at -cpu 2 or more; the grain is where fanned starts to win.
func BenchmarkHeadSelectGrain(b *testing.B) {
	const samples = 60
	sizes := []int{64, 128, 256, 512, 1024, 2048, 4096}
	db := MustOpen(Options{Shards: 16})
	app := db.Appender()
	for _, n := range sizes {
		for i := 0; i < n; i++ {
			ls := labels.FromStrings(labels.MetricName, "m", "set", fmt.Sprint(n), "i", fmt.Sprint(i))
			for k := 0; k < samples; k++ {
				app.Add(ls, int64(k)*15000, float64(k))
			}
		}
	}
	if _, err := app.Commit(); err != nil {
		b.Fatal(err)
	}
	for _, window := range []int{8, samples} {
		for _, n := range sizes {
			ms := []*labels.Matcher{labels.MustMatcher(labels.MatchEqual, "set", fmt.Sprint(n))}
			for _, mode := range []struct {
				name  string
				grain int
			}{{"inline", math.MaxInt}, {"fanned", 1}} {
				b.Run(fmt.Sprintf("samples%d/series%d/%s", window, n, mode.name), func(b *testing.B) {
					db.selectGrain = mode.grain
					for i := 0; i < b.N; i++ {
						if res, err := db.Select(int64(samples-window)*15000, samples*15000, ms...); err != nil || len(res) != n {
							b.Fatalf("select: %d series, err %v", len(res), err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkHeadSelectUnderAppend is the concurrent pair: one-job selects from
// GOMAXPROCS goroutines against one appender committing a sample to every
// series of every job in turn, on the same 16 shards and the same series —
// the shard read locks and the per-series mutexes are all contended. It
// reports the mean latency of a select as its caller sees it and the
// appender's rate while the selects ran.
func BenchmarkHeadSelectUnderAppend(b *testing.B) {
	const jobs = 2000
	db := headSelectFixture(b, jobs, 16)
	var (
		now      atomic.Int64 // newest timestamp every series has
		appended atomic.Int64
		stop     = make(chan struct{})
		done     = make(chan struct{})
	)
	now.Store(1000)
	go func() {
		defer close(done)
		for ts := int64(16000); ; ts += 15000 {
			for j := 0; j < jobs; j++ {
				select {
				case <-stop:
					return
				default:
				}
				app := db.Appender()
				for k := 0; k < 5; k++ {
					for _, name := range []string{"ceems_job_power_watts", "ceems_job_other"} {
						app.Add(labels.FromStrings(labels.MetricName, name,
							"uuid", fmt.Sprint(j), "core", fmt.Sprint(k),
							"nodeclass", []string{"intel", "amd"}[j%2], "instance", fmt.Sprintf("n%d", j%1400)), ts, 1)
					}
				}
				n, err := app.Commit()
				if err != nil {
					b.Error(err)
					return
				}
				appended.Add(int64(n))
			}
			now.Store(ts)
		}
	}()
	name := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "ceems_job_power_watts")
	var next, busy atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	appended.Store(0)
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		began := time.Now()
		for pb.Next() {
			uuid := labels.MustMatcher(labels.MatchEqual, "uuid", fmt.Sprint(next.Add(1)%jobs))
			t := now.Load()
			if res, err := db.Select(t-60000, t+15000, name, uuid); err != nil || len(res) != 5 {
				b.Errorf("select: %d series, err %v", len(res), err)
				return
			}
		}
		busy.Add(int64(time.Since(began)))
	})
	elapsed := time.Since(start)
	b.StopTimer()
	close(stop)
	<-done
	b.ReportMetric(float64(busy.Load())/float64(b.N), "ns/select")
	b.ReportMetric(float64(appended.Load())/elapsed.Seconds(), "appends/s")
}

// BenchmarkHeadDelete measures bulk removal from the index at its two
// extremes: a churn sweep dropping every series of a shard where each has a
// label value of its own (one touched postings list per dead series), and one
// job leaving a shard whose other lists hold 100k refs.
func BenchmarkHeadDelete(b *testing.B) {
	b.Run("all_of_20k_unique", func(b *testing.B) {
		all := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m")
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db := MustOpen(Options{Shards: 1})
			app := db.Appender()
			for j := 0; j < 20000; j++ {
				app.Add(labels.FromStrings(labels.MetricName, "m", "uuid", fmt.Sprint(j)), 1000, 1)
			}
			if _, err := app.Commit(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if n := db.DeleteSeries(all); n != 20000 {
				b.Fatalf("deleted %d series, want 20000", n)
			}
		}
	})
	b.Run("one_job_of_50k", func(b *testing.B) {
		db := headSelectFixture(b, 10000, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			uuid := fmt.Sprint(i % 10000)
			if n := db.DeleteSeries(labels.MustMatcher(labels.MatchEqual, "uuid", uuid)); n != 10 {
				b.Fatalf("deleted %d series, want 10", n)
			}
			b.StopTimer()
			app := db.Appender()
			for k := 0; k < 5; k++ {
				for _, name := range []string{"ceems_job_power_watts", "ceems_job_other"} {
					app.Add(labels.FromStrings(labels.MetricName, name, "uuid", uuid, "core", fmt.Sprint(k),
						"nodeclass", "intel", "instance", "n0"), 1000, 1)
				}
			}
			if _, err := app.Commit(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}

// TestHeadSelectAllocsIndependentOfIndexSize pins the point of borrowed
// postings: selecting one job allocates for the series it returns, however
// long the other matchers' lists are.
func TestHeadSelectAllocsIndependentOfIndexSize(t *testing.T) {
	ms := []*labels.Matcher{
		labels.MustMatcher(labels.MatchEqual, labels.MetricName, "ceems_job_power_watts"),
		labels.MustMatcher(labels.MatchEqual, "uuid", "42"),
	}
	bytesPerSelect := func(jobs int) float64 {
		db := headSelectFixture(t, jobs, 1)
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if got, _ := db.Select(0, 2000, ms...); len(got) != 5 {
				t.Fatalf("selected %d series, want 5", len(got))
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, large := bytesPerSelect(100), bytesPerSelect(1000)
	if large > small*1.1 {
		t.Errorf("one-job select allocates %.0f B/op on a 10x larger shard, %.0f B/op on the small one", large, small)
	}
}

// BenchmarkHeadLabelValues measures a dashboard variable lookup,
// /label/uuid/values: uuid-shaped values at a day of a mid-size cluster's
// jobs (2k) and of Jean-Zay's (20k), two series per job, on 1 and 16 shards.
// Each read but the first is answered from the head's kept list. The
// after_one_new_value cases append one series of a new uuid before each
// read, so every read merges one addition into a copy of the kept list;
// every 512 reads the added series are deleted and the list rebuilt,
// untimed, so it stays within 512 values of the fixture's.
func BenchmarkHeadLabelValues(b *testing.B) {
	for _, incremental := range []bool{false, true} {
		for _, jobs := range []int{2000, 20000} {
			for _, shards := range []int{1, 16} {
				name := fmt.Sprintf("%dk_uuids/%d_shards", jobs/1000, shards)
				if incremental {
					name = "after_one_new_value/" + name
				}
				b.Run(name, func(b *testing.B) { benchHeadLabelValues(b, jobs, shards, incremental) })
			}
		}
	}
}

func benchHeadLabelValues(b *testing.B, jobs, shards int, incremental bool) {
	db := MustOpen(Options{Shards: shards})
	app := db.Appender()
	rng := rand.New(rand.NewSource(1))
	for j := 0; j < jobs; j++ {
		uuid := fmt.Sprintf("%08x-%04x-%04x-%04x-%012x", rng.Uint32(), rng.Intn(1<<16), rng.Intn(1<<16), rng.Intn(1<<16), rng.Int63n(1<<48))
		for _, name := range []string{"ceems_job_power_watts", "ceems_job_cpu_seconds_total"} {
			app.Add(labels.FromStrings(labels.MetricName, name, "uuid", uuid, "instance", fmt.Sprintf("n%d", j%42)), 1000, 1)
		}
	}
	if _, err := app.Commit(); err != nil {
		b.Fatal(err)
	}
	added := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "ceems_job_new")
	want, fresh := jobs, 0
	db.LabelValues("uuid")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if incremental {
			if fresh == 512 {
				b.StopTimer()
				db.DeleteSeries(added)
				want, fresh = jobs, 0
				db.LabelValues("uuid")
				b.StartTimer()
			}
			if err := db.Append(labels.FromStrings(labels.MetricName, "ceems_job_new", "uuid", fmt.Sprintf("new-%08d", i)), 1000, 1); err != nil {
				b.Fatal(err)
			}
			want, fresh = want+1, fresh+1
		}
		if got := db.LabelValues("uuid"); len(got) != want {
			b.Fatalf("%d values, want %d", len(got), want)
		}
	}
}
