package tsdb

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/labels"
	"repro/internal/model"
)

func mustAppend(t *testing.T, db *DB, lset labels.Labels, samples ...model.Sample) {
	t.Helper()
	for _, s := range samples {
		if err := db.Append(lset, s.T, s.V); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

func TestAppendSelect(t *testing.T) {
	db := MustOpen(DefaultOptions())
	ls := labels.FromStrings(labels.MetricName, "up", "instance", "n1")
	mustAppend(t, db, ls, model.Sample{T: 1000, V: 1}, model.Sample{T: 2000, V: 0})

	got, err := db.Select(0, 5000, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "up"))
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("want 1 series, got %d", len(got))
	}
	want := []model.Sample{{T: 1000, V: 1}, {T: 2000, V: 0}}
	if !reflect.DeepEqual(got[0].Samples, want) {
		t.Errorf("samples = %v, want %v", got[0].Samples, want)
	}
}

func TestSelectTimeRange(t *testing.T) {
	db := MustOpen(DefaultOptions())
	ls := labels.FromStrings(labels.MetricName, "m")
	for i := int64(0); i < 10; i++ {
		mustAppend(t, db, ls, model.Sample{T: i * 1000, V: float64(i)})
	}
	got, _ := db.Select(3000, 6000, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m"))
	if len(got) != 1 || len(got[0].Samples) != 4 {
		t.Fatalf("range select wrong: %+v", got)
	}
	if got[0].Samples[0].T != 3000 || got[0].Samples[3].T != 6000 {
		t.Errorf("bounds wrong: %v", got[0].Samples)
	}
	// Disjoint range yields nothing.
	got, _ = db.Select(100000, 200000, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m"))
	if len(got) != 0 {
		t.Errorf("expected empty result, got %v", got)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	db := MustOpen(DefaultOptions())
	ls := labels.FromStrings(labels.MetricName, "m")
	mustAppend(t, db, ls, model.Sample{T: 1000, V: 1})
	if err := db.Append(ls, 1000, 2); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("want ErrOutOfOrder, got %v", err)
	}
	if err := db.Append(ls, 500, 2); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("want ErrOutOfOrder, got %v", err)
	}
}

// A chunk counts its samples in 16 bits: Open refuses a chunk size that
// would wrap the count, and the largest size it accepts cuts full chunks
// that read back whole.
func TestOpenRejectsChunkSizeAboveUint16(t *testing.T) {
	if db, err := Open(Options{MaxSamplesPerChunk: math.MaxUint16 + 1}); err == nil {
		db.Close()
		t.Fatal("Open accepted MaxSamplesPerChunk above math.MaxUint16")
	}
	db, err := Open(Options{MaxSamplesPerChunk: math.MaxUint16, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ls := labels.FromStrings(labels.MetricName, "m")
	const n = math.MaxUint16 + 10
	for i := int64(0); i < n; i++ {
		if err := db.Append(ls, i, float64(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	got, err := db.Select(0, n, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Samples) != n {
		t.Fatalf("Select returned %d series, want one of %d samples", len(got), n)
	}
	for i, s := range got[0].Samples {
		if s.T != int64(i) || s.V != float64(i) {
			t.Fatalf("sample %d = %+v", i, s)
		}
	}
}

func TestMatcherSelection(t *testing.T) {
	db := MustOpen(DefaultOptions())
	for i := 0; i < 10; i++ {
		ls := labels.FromStrings(labels.MetricName, "cpu", "node", fmt.Sprintf("n%d", i), "dc", map[bool]string{true: "a", false: "b"}[i%2 == 0])
		mustAppend(t, db, ls, model.Sample{T: 1000, V: float64(i)})
	}
	sel := func(ms ...*labels.Matcher) int {
		t.Helper()
		got, err := db.Select(0, 2000, ms...)
		if err != nil {
			t.Fatalf("Select: %v", err)
		}
		return len(got)
	}
	if n := sel(labels.MustMatcher(labels.MatchEqual, "dc", "a")); n != 5 {
		t.Errorf("dc=a: %d", n)
	}
	if n := sel(labels.MustMatcher(labels.MatchRegexp, "node", "n[0-2]")); n != 3 {
		t.Errorf("regex: %d", n)
	}
	if n := sel(labels.MustMatcher(labels.MatchEqual, labels.MetricName, "cpu"),
		labels.MustMatcher(labels.MatchNotEqual, "dc", "a")); n != 5 {
		t.Errorf("negation: %d", n)
	}
	if n := sel(labels.MustMatcher(labels.MatchEqual, labels.MetricName, "cpu"),
		labels.MustMatcher(labels.MatchNotRegexp, "node", "n[0-8]")); n != 1 {
		t.Errorf("not-regexp: %d", n)
	}
	// Matcher for absent label value "" matches all (none have "rack").
	if n := sel(labels.MustMatcher(labels.MatchEqual, labels.MetricName, "cpu"),
		labels.MustMatcher(labels.MatchEqual, "rack", "")); n != 10 {
		t.Errorf("empty-value matcher: %d", n)
	}
}

func TestSelectRequiresMatcher(t *testing.T) {
	db := MustOpen(DefaultOptions())
	if _, err := db.Select(0, 1); err == nil {
		t.Error("expected error with no matchers")
	}
}

func TestLabelValuesNames(t *testing.T) {
	db := MustOpen(DefaultOptions())
	mustAppend(t, db, labels.FromStrings(labels.MetricName, "m", "a", "2"), model.Sample{T: 1, V: 1})
	mustAppend(t, db, labels.FromStrings(labels.MetricName, "m", "a", "1"), model.Sample{T: 1, V: 1})
	if got := db.LabelValues("a"); !reflect.DeepEqual(got, []string{"1", "2"}) {
		t.Errorf("LabelValues = %v", got)
	}
	if got := db.LabelNames(); !reflect.DeepEqual(got, []string{labels.MetricName, "a"}) {
		t.Errorf("LabelNames = %v", got)
	}
}

// TestLabelValuesAfterChurnAndReplay holds the head's sorted label lists
// to the label sets of its live series, rebuilt by brute force, through job
// churn on 16 shards: uuid-shaped values created, deleted by alternation and
// by open regexp, dropped by Truncate, a label name that leaves with its last
// series, and a WAL reopen that rebuilds every list.
func TestLabelValuesAfterChurnAndReplay(t *testing.T) {
	opts := Options{Shards: 16, MaxSamplesPerChunk: 2, WALDir: t.TempDir()}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	live := map[string]labels.Labels{}
	var uuids []string
	for j := 0; j < 2000; j++ {
		uuid := fmt.Sprintf("%08x-%04x-%04x", rng.Uint32(), rng.Intn(1<<16), j)
		uuids = append(uuids, uuid)
		for _, metric := range []string{"cpu", "mem", "power"} {
			ss := []string{labels.MetricName, metric, "uuid", uuid, "node", fmt.Sprintf("n%d", j%7)}
			if j%500 == 7 {
				ss = append(ss, "gpu", fmt.Sprint(j))
			}
			lset := labels.FromStrings(ss...)
			live[lset.String()] = lset
			// Two samples close the chunk, so Truncate may remove the series.
			mustAppend(t, db, lset, model.Sample{T: int64(j) * 10, V: 1}, model.Sample{T: int64(j)*10 + 1, V: 2})
		}
	}
	check := func(db *DB, when string) {
		t.Helper()
		names := map[string]bool{}
		values := map[string]map[string]bool{}
		for _, lset := range live {
			for _, l := range lset {
				names[l.Name] = true
				if values[l.Name] == nil {
					values[l.Name] = map[string]bool{}
				}
				values[l.Name][l.Value] = true
			}
		}
		if got, want := db.LabelNames(), slices.Sorted(maps.Keys(names)); !slices.Equal(got, want) {
			t.Fatalf("%s: LabelNames = %q, want %q", when, got, want)
		}
		for _, name := range []string{labels.MetricName, "uuid", "node", "gpu", "absent"} {
			if got, want := db.LabelValues(name), slices.Sorted(maps.Keys(values[name])); !slices.Equal(got, want) {
				t.Fatalf("%s: LabelValues(%q) has %d values, want %d", when, name, len(got), len(want))
			}
		}
		for _, sh := range db.shards {
			checkPostingsInvariants(t, sh)
		}
	}
	forget := func(ms ...*labels.Matcher) {
		for k, lset := range live {
			if labels.MatchLabels(lset, ms...) {
				delete(live, k)
			}
		}
	}
	check(db, "after create")

	batch := labels.MustMatcher(labels.MatchRegexp, "uuid", strings.Join(uuids[1000:1050], "|"))
	db.DeleteSeries(batch)
	forget(batch)
	check(db, "after deleting an alternation")

	open := labels.MustMatcher(labels.MatchRegexp, "uuid", "[0-3].*")
	db.DeleteSeries(open)
	forget(open)
	check(db, "after deleting an open regexp")

	gpu := labels.MustMatcher(labels.MatchNotEqual, "gpu", "")
	db.DeleteSeries(gpu)
	forget(gpu)
	check(db, "after the last gpu series left")

	db.Truncate(5000)
	for k, lset := range live {
		if j := slices.Index(uuids, lset.Get("uuid")); int64(j)*10+1 < 5000 {
			delete(live, k)
		}
	}
	check(db, "after Truncate")

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check(db, "after WAL replay")
}

func TestChunkRollover(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxSamplesPerChunk = 10
	db := MustOpen(opts)
	ls := labels.FromStrings(labels.MetricName, "m")
	for i := int64(0); i < 55; i++ {
		mustAppend(t, db, ls, model.Sample{T: i, V: float64(i)})
	}
	got, _ := db.Select(0, 100, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m"))
	if len(got) != 1 || len(got[0].Samples) != 55 {
		t.Fatalf("rollover lost samples: %d", len(got[0].Samples))
	}
	for i, s := range got[0].Samples {
		if s.T != int64(i) {
			t.Fatalf("sample %d out of order: %v", i, s)
		}
	}
}

func TestTruncate(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxSamplesPerChunk = 5
	db := MustOpen(opts)
	old := labels.FromStrings(labels.MetricName, "old")
	live := labels.FromStrings(labels.MetricName, "live")
	for i := int64(0); i < 20; i++ {
		mustAppend(t, db, old, model.Sample{T: i * 100, V: 1})
	}
	for i := int64(0); i < 40; i++ {
		mustAppend(t, db, live, model.Sample{T: i * 100, V: 1})
	}
	db.Truncate(2500)
	// old's chunks: 4 chunks of 5 samples [0..400],[500..900],[1000..1400],[1500..1900]
	// all < 2500 but lastT=1900 < 2500 and no head chunk... all four chunks were
	// closed, so the series is removed entirely.
	got, _ := db.Select(0, 10000, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "old"))
	if len(got) != 0 {
		t.Errorf("old series should be gone, got %v", got)
	}
	got, _ = db.Select(0, 10000, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "live"))
	if len(got) != 1 {
		t.Fatalf("live series missing")
	}
	if first := got[0].Samples[0].T; first < 2500 {
		t.Errorf("truncated chunk data still present (first=%d)", first)
	}
}

// TestHeadTruncateDropsSilentOpenChunk: a series that went silent before
// filling its open chunk leaves the head once its newest sample is older
// than the truncation point, and does not come back from the WAL; a series
// whose open chunk reaches past the point keeps it whole, as a closed chunk
// that spans the point is kept.
func TestHeadTruncateDropsSilentOpenChunk(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Shards: 2, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a := labels.FromStrings(labels.MetricName, "unit", "s", "a")
	b := labels.FromStrings(labels.MetricName, "unit", "s", "b")
	mustAppend(t, db, a, model.Sample{T: 0, V: 1})
	for ts := int64(0); ts <= 1_000_000; ts += 15_000 {
		mustAppend(t, db, b, model.Sample{T: ts, V: float64(ts)})
	}
	removed, err := db.Truncate(500_000)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("truncate removed %d series, want 1 ({s=\"a\"})", removed)
	}
	check := func(db *DB, when string) {
		t.Helper()
		got, err := db.Select(0, 2_000_000, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "unit"))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !got[0].Labels.Equal(b) || len(got[0].Samples) != 67 || got[0].Samples[0].T != 0 {
			t.Fatalf("%s: %d series, want %s with its 67 samples from 0", when, len(got), b)
		}
		if vals := db.LabelValues("s"); !slices.Equal(vals, []string{"b"}) {
			t.Fatalf("%s: values of s %v, want [b]", when, vals)
		}
	}
	check(db, "after truncation")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(Options{Shards: 2, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check(db, "after reopening")
}

func TestDeleteSeries(t *testing.T) {
	db := MustOpen(DefaultOptions())
	for i := 0; i < 10; i++ {
		ls := labels.FromStrings(labels.MetricName, "job_cpu", "jobid", fmt.Sprintf("%d", i))
		mustAppend(t, db, ls, model.Sample{T: 1000, V: 1})
	}
	n := db.DeleteSeries(labels.MustMatcher(labels.MatchRegexp, "jobid", "[0-4]"))
	if n != 5 {
		t.Fatalf("deleted %d, want 5", n)
	}
	got, _ := db.Select(0, 2000, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "job_cpu"))
	if len(got) != 5 {
		t.Errorf("remaining %d, want 5", len(got))
	}
	if db.Stats().NumSeries != 5 {
		t.Errorf("stats series = %d", db.Stats().NumSeries)
	}
	// Label values index updated.
	if vals := db.LabelValues("jobid"); len(vals) != 5 {
		t.Errorf("jobid values = %v", vals)
	}
}

func TestStats(t *testing.T) {
	db := MustOpen(DefaultOptions())
	ls := labels.FromStrings(labels.MetricName, "m")
	mustAppend(t, db, ls, model.Sample{T: 5, V: 1}, model.Sample{T: 10, V: 2})
	st := db.Stats()
	if st.NumSeries != 1 || st.NumSamples != 2 || st.MinTime != 5 || st.MaxTime != 10 {
		t.Errorf("stats = %+v", st)
	}
	if _, ok := db.MinTime(); !ok {
		t.Error("MinTime should be available")
	}
	empty := MustOpen(DefaultOptions())
	if _, ok := empty.MinTime(); ok {
		t.Error("empty DB should have no MinTime")
	}
}

func TestConcurrentAppend(t *testing.T) {
	db := MustOpen(DefaultOptions())
	var wg sync.WaitGroup
	const goroutines = 8
	const samplesEach = 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ls := labels.FromStrings(labels.MetricName, "m", "g", fmt.Sprintf("%d", g))
			for i := int64(0); i < samplesEach; i++ {
				if err := db.Append(ls, i, float64(i)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := db.Stats()
	if st.NumSeries != goroutines || st.NumSamples != goroutines*samplesEach {
		t.Errorf("stats after concurrent append: %+v", st)
	}
}

func TestCutBlockAndReadBack(t *testing.T) {
	db := MustOpen(DefaultOptions())
	for i := 0; i < 5; i++ {
		ls := labels.FromStrings(labels.MetricName, "m", "i", fmt.Sprintf("%d", i))
		for j := int64(0); j < 100; j++ {
			mustAppend(t, db, ls, model.Sample{T: j * 1000, V: float64(i*1000) + float64(j)})
		}
	}
	cut, err := db.CutPersistentBlock(t.TempDir(), 10000, 50000)
	if err != nil {
		t.Fatalf("CutPersistentBlock: %v", err)
	}
	dir := cut.Dir()
	if err := cut.Close(); err != nil {
		t.Fatal(err)
	}
	blk, err := OpenBlockDir(dir)
	if err != nil {
		t.Fatalf("OpenBlockDir: %v", err)
	}
	defer blk.Close()
	meta := blk.Meta()
	if meta.Stats.NumSeries != 5 {
		t.Fatalf("block series = %d", meta.Stats.NumSeries)
	}
	if meta.MinTime != 10000 || meta.MaxTime != 50000 {
		t.Errorf("block bounds = [%d, %d]", meta.MinTime, meta.MaxTime)
	}
	if blk.NumSamples() != 5*41 {
		t.Errorf("block samples = %d, want %d", blk.NumSamples(), 5*41)
	}
	res, err := readBlock(blk, model.SelectHints{Start: 10000, End: 20000}, AggrRaw, labels.MustMatcher(labels.MatchEqual, "i", "3"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Samples) != 11 {
		t.Errorf("block select = %+v", res)
	}
}

// TestCutBlockEmptyRange: a range holding no samples yields no block and
// leaves the parent directory untouched.
func TestCutBlockEmptyRange(t *testing.T) {
	db := MustOpen(DefaultOptions())
	mustAppend(t, db, labels.FromStrings(labels.MetricName, "m"), model.Sample{T: 1, V: 1})
	parent := t.TempDir()
	for _, p := range []string{parent, ""} {
		blk, err := db.CutPersistentBlock(p, 1000, 2000)
		if err != nil {
			t.Fatalf("CutPersistentBlock(%q): %v", p, err)
		}
		if blk != nil {
			t.Errorf("CutPersistentBlock(%q) of an empty range returned a block: %+v", p, blk.Meta())
		}
	}
	if ents, err := os.ReadDir(parent); err != nil || len(ents) != 0 {
		t.Errorf("empty cut left %d entries behind (err %v)", len(ents), err)
	}
}

// Property: Select over the full range returns exactly what was appended,
// regardless of chunk boundaries.
func TestAppendSelectProperty(t *testing.T) {
	f := func(seed int64, nSeries uint8, chunkSize uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		opts := DefaultOptions()
		opts.MaxSamplesPerChunk = int(chunkSize%50) + 2
		db := MustOpen(opts)
		ns := int(nSeries%8) + 1
		want := map[string][]model.Sample{}
		for i := 0; i < ns; i++ {
			key := fmt.Sprintf("%d", i)
			ls := labels.FromStrings(labels.MetricName, "m", "s", key)
			tcur := int64(0)
			n := rng.Intn(300)
			for j := 0; j < n; j++ {
				tcur += rng.Int63n(5000) + 1
				v := rng.NormFloat64()
				if db.Append(ls, tcur, v) != nil {
					return false
				}
				want[key] = append(want[key], model.Sample{T: tcur, V: v})
			}
		}
		got, err := db.Select(0, 1<<60, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m"))
		if err != nil {
			return false
		}
		count := 0
		for _, s := range got {
			count++
			if !reflect.DeepEqual(s.Samples, want[s.Labels.Get("s")]) {
				return false
			}
		}
		nonEmpty := 0
		for _, w := range want {
			if len(w) > 0 {
				nonEmpty++
			}
		}
		return count == nonEmpty
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: a block cut to a directory and reopened serves exactly the
// samples the head held.
func TestBlockRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := MustOpen(DefaultOptions())
		for i := 0; i < 3; i++ {
			ls := labels.FromStrings(labels.MetricName, "m", "i", fmt.Sprintf("%d", i))
			tcur := int64(0)
			for j := 0; j < 50; j++ {
				tcur += rng.Int63n(1000) + 1
				db.Append(ls, tcur, rng.Float64()*100)
			}
		}
		cut, err := db.CutPersistentBlock(dir, 0, 1<<60)
		if err != nil {
			return false
		}
		cut.Close()
		got, err := OpenBlockDir(cut.Dir())
		if err != nil {
			return false
		}
		defer got.Close()
		all := labels.MustMatcher(labels.MatchRegexp, labels.MetricName, ".*")
		a, errA := db.Select(0, 1<<60, all)
		b, errB := readBlock(got, model.SelectHints{Start: 0, End: 1 << 60}, AggrRaw, all)
		return errA == nil && errB == nil && reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	db := MustOpen(DefaultOptions())
	ls := make([]labels.Labels, 100)
	for i := range ls {
		ls[i] = labels.FromStrings(labels.MetricName, "m", "series", fmt.Sprintf("%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Append(ls[i%100], int64(i), float64(i))
	}
}

func BenchmarkSelect(b *testing.B) {
	db := MustOpen(DefaultOptions())
	for i := 0; i < 1000; i++ {
		ls := labels.FromStrings(labels.MetricName, "m", "series", fmt.Sprintf("%d", i))
		for j := int64(0); j < 100; j++ {
			db.Append(ls, j*15000, float64(j))
		}
	}
	m1 := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m")
	m2 := labels.MustMatcher(labels.MatchEqual, "series", "500")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Select(0, 1<<60, m1, m2)
	}
}
