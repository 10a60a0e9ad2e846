package tsdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
)

func TestShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ want, give int }{
		{1, 1}, {2, 2}, {4, 3}, {8, 5}, {16, 16}, {32, 17},
	} {
		db := MustOpen(Options{Shards: tc.give})
		if got := db.NumShards(); got != tc.want {
			t.Errorf("Shards=%d: got %d shards, want %d", tc.give, got, tc.want)
		}
	}
	if db := MustOpen(Options{}); db.NumShards()&(db.NumShards()-1) != 0 {
		t.Errorf("default shard count %d not a power of two", db.NumShards())
	}
}

// TestShardEquivalence: a 1-shard and a 16-shard DB fed the same input must
// return byte-identical sorted results for Select, LabelValues, LabelNames
// and the aggregate stats.
func TestShardEquivalence(t *testing.T) {
	opts1 := DefaultOptions()
	opts1.Shards = 1
	opts1.MaxSamplesPerChunk = 7 // force chunk rollovers
	opts16 := opts1
	opts16.Shards = 16
	db1 := MustOpen(opts1)
	db16 := MustOpen(opts16)

	rng := rand.New(rand.NewSource(42))
	for s := 0; s < 200; s++ {
		ls := labels.FromStrings(
			labels.MetricName, fmt.Sprintf("metric_%d", s%13),
			"instance", fmt.Sprintf("node%03d", s%29),
			"uuid", fmt.Sprintf("%d", s),
		)
		tcur := int64(0)
		for j := 0; j < 40; j++ {
			tcur += rng.Int63n(5000) + 1
			v := rng.NormFloat64()
			if err := db1.Append(ls, tcur, v); err != nil {
				t.Fatalf("db1 append: %v", err)
			}
			if err := db16.Append(ls, tcur, v); err != nil {
				t.Fatalf("db16 append: %v", err)
			}
		}
	}

	matcherSets := [][]*labels.Matcher{
		{labels.MustMatcher(labels.MatchRegexp, labels.MetricName, ".*")},
		{labels.MustMatcher(labels.MatchEqual, labels.MetricName, "metric_3")},
		{labels.MustMatcher(labels.MatchRegexp, "instance", "node00[0-9]")},
		{labels.MustMatcher(labels.MatchEqual, labels.MetricName, "metric_1"),
			labels.MustMatcher(labels.MatchNotEqual, "instance", "node001")},
		{labels.MustMatcher(labels.MatchNotRegexp, "uuid", "1.*")},
	}
	for i, ms := range matcherSets {
		r1, err1 := db1.Select(0, 1<<60, ms...)
		r16, err16 := db16.Select(0, 1<<60, ms...)
		if err1 != nil || err16 != nil {
			t.Fatalf("set %d: errs %v / %v", i, err1, err16)
		}
		if !reflect.DeepEqual(r1, r16) {
			t.Fatalf("set %d: 1-shard and 16-shard Select differ (%d vs %d series)", i, len(r1), len(r16))
		}
	}
	for _, name := range []string{labels.MetricName, "instance", "uuid", "absent"} {
		if v1, v16 := db1.LabelValues(name), db16.LabelValues(name); !reflect.DeepEqual(v1, v16) {
			t.Errorf("LabelValues(%q) differ: %v vs %v", name, v1, v16)
		}
	}
	if n1, n16 := db1.LabelNames(), db16.LabelNames(); !reflect.DeepEqual(n1, n16) {
		t.Errorf("LabelNames differ: %v vs %v", n1, n16)
	}
	s1, s16 := db1.Stats(), db16.Stats()
	if s1.NumSeries != s16.NumSeries || s1.NumSamples != s16.NumSamples ||
		s1.MinTime != s16.MinTime || s1.MaxTime != s16.MaxTime ||
		s1.NumLabelNames != s16.NumLabelNames {
		t.Errorf("stats differ: %+v vs %+v", s1, s16)
	}

	// Mutations stay equivalent too: delete a slice of series, truncate, and
	// compare the survivors.
	del := []*labels.Matcher{labels.MustMatcher(labels.MatchRegexp, "uuid", "[0-9]?[02468]")}
	if n1, n16 := db1.DeleteSeries(del...), db16.DeleteSeries(del...); n1 != n16 {
		t.Fatalf("DeleteSeries differ: %d vs %d", n1, n16)
	}
	n1, _ := db1.Truncate(60000)
	if n16, _ := db16.Truncate(60000); n1 != n16 {
		t.Fatalf("Truncate differ: %d vs %d", n1, n16)
	}
	all := labels.MustMatcher(labels.MatchRegexp, labels.MetricName, ".*")
	r1, _ := db1.Select(0, 1<<60, all)
	r16, _ := db16.Select(0, 1<<60, all)
	if !reflect.DeepEqual(r1, r16) {
		t.Fatalf("post-mutation Select differ (%d vs %d series)", len(r1), len(r16))
	}
}

// TestShardedStress hammers the head from 8 appending goroutines while
// Select, Delete, Truncate and Stats run concurrently; meant for -race.
func TestShardedStress(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxSamplesPerChunk = 9
	opts.Shards = 8 // explicit: don't degrade to 1 shard on 1-core hosts
	db := MustOpen(opts)
	const (
		appenders   = 8
		seriesEach  = 25
		samplesEach = 300
	)
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			app := db.Appender()
			for i := int64(0); i < samplesEach; i++ {
				for s := 0; s < seriesEach; s++ {
					ls := labels.FromStrings(labels.MetricName, "stress",
						"g", fmt.Sprintf("%d", g), "s", fmt.Sprintf("%d", s))
					if i%2 == 0 {
						if err := db.Append(ls, i*1000, float64(i)); err != nil {
							t.Errorf("append: %v", err)
							return
						}
					} else {
						app.Add(ls, i*1000, float64(i))
					}
				}
				if app.Pending() > 0 {
					if _, err := app.Commit(); err != nil {
						t.Errorf("commit: %v", err)
						return
					}
				}
			}
		}(g)
	}
	// Concurrent readers and pruners.
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(3)
	go func() {
		defer rwg.Done()
		m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "stress")
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Select(0, 1<<60, m); err != nil {
				t.Errorf("select: %v", err)
				return
			}
			db.LabelValues("g")
			db.Stats()
		}
	}()
	go func() {
		defer rwg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.DeleteSeries(
				labels.MustMatcher(labels.MatchEqual, "g", fmt.Sprintf("%d", i%appenders)),
				labels.MustMatcher(labels.MatchEqual, "s", "13"))
		}
	}()
	go func() {
		defer rwg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.Truncate(i * 100)
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()

	// The head must still be internally consistent: every surviving series
	// is selectable and the postings agree with the series maps.
	got, err := db.Select(0, 1<<60, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "stress"))
	if err != nil {
		t.Fatalf("final select: %v", err)
	}
	st := db.Stats()
	if len(got) > st.NumSeries {
		t.Errorf("selected %d series but stats report %d", len(got), st.NumSeries)
	}
	for _, sr := range got {
		for i := 1; i < len(sr.Samples); i++ {
			if sr.Samples[i].T <= sr.Samples[i-1].T {
				t.Fatalf("series %s has unordered samples", sr.Labels)
			}
		}
	}
}

func TestAppenderBatch(t *testing.T) {
	db := MustOpen(Options{Shards: 4})
	app := db.Appender()
	for s := 0; s < 10; s++ {
		ls := labels.FromStrings(labels.MetricName, "m", "s", fmt.Sprintf("%d", s))
		app.Add(ls, 1000, float64(s))
		app.Add(ls, 2000, float64(s))
	}
	if app.Pending() != 20 {
		t.Fatalf("pending = %d, want 20", app.Pending())
	}
	n, err := app.Commit()
	if err != nil || n != 20 {
		t.Fatalf("commit = %d, %v", n, err)
	}
	if app.Pending() != 0 {
		t.Errorf("pending after commit = %d", app.Pending())
	}
	// Out-of-order samples are skipped, not fatal.
	app.Add(labels.FromStrings(labels.MetricName, "m", "s", "0"), 1500, 9)
	app.Add(labels.FromStrings(labels.MetricName, "m", "s", "0"), 3000, 9)
	n, err = app.Commit()
	if err != nil || n != 1 {
		t.Fatalf("ooo commit = %d, %v (want 1, nil)", n, err)
	}
	got, _ := db.Select(0, 1<<60, labels.MustMatcher(labels.MatchEqual, "s", "0"))
	if len(got) != 1 || len(got[0].Samples) != 3 {
		t.Fatalf("series 0 = %+v", got)
	}
	if st := db.Stats(); st.NumSamples != 21 {
		t.Errorf("NumSamples = %d, want 21", st.NumSamples)
	}
}

// Appends through the batch Appender and direct Append must be
// indistinguishable to queries.
func TestAppenderEquivalence(t *testing.T) {
	direct := MustOpen(Options{Shards: 8})
	batched := MustOpen(Options{Shards: 8})
	app := batched.Appender()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		ls := labels.FromStrings(labels.MetricName, "m", "i", fmt.Sprintf("%d", i%11))
		tcur := int64(0)
		for j := 0; j < 30; j++ {
			tcur += rng.Int63n(900) + 1
			v := rng.Float64()
			// Both DBs see identical (lset, t, v) streams; collisions across
			// the i%11 aliasing exercise the out-of-order skip path.
			direct.Append(ls, tcur, v)
			app.Add(ls, tcur, v)
		}
	}
	if _, err := app.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	all := labels.MustMatcher(labels.MatchRegexp, labels.MetricName, ".*")
	a, _ := direct.Select(0, 1<<60, all)
	b, _ := batched.Select(0, 1<<60, all)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("direct vs batched results differ: %d vs %d series", len(a), len(b))
	}
}

func TestAppendSeriesBatching(t *testing.T) {
	db := MustOpen(Options{Shards: 4})
	ls := labels.FromStrings(labels.MetricName, "m")
	samples := make([]model.Sample, 500)
	for i := range samples {
		samples[i] = model.Sample{T: int64(i) * 100, V: float64(i)}
	}
	if err := db.AppendSeries(ls, samples); err != nil {
		t.Fatalf("AppendSeries: %v", err)
	}
	got, _ := db.Select(0, 1<<60, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m"))
	if len(got) != 1 || len(got[0].Samples) != 500 {
		t.Fatalf("round trip lost samples: %+v", len(got[0].Samples))
	}
	st := db.Stats()
	if st.NumSamples != 500 || st.MinTime != 0 || st.MaxTime != 499*100 {
		t.Errorf("stats = %+v", st)
	}
	// A partially out-of-order batch appends the good prefix and reports.
	err := db.AppendSeries(ls, []model.Sample{{T: 50000, V: 1}, {T: 49999, V: 2}, {T: 60000, V: 3}})
	if err == nil {
		t.Fatal("expected out-of-order error")
	}
	if st := db.Stats(); st.NumSamples != 501 {
		t.Errorf("NumSamples after partial batch = %d, want 501", st.NumSamples)
	}
}
