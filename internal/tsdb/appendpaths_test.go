package tsdb

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// appendOp is one step of the seeded stream: a run of samples of one
// series, or (samples == nil) a DeleteSeries of it.
type appendOp struct {
	series  int
	samples []model.Sample
}

const pathsWindow = 5 * 60_000

// appendStream builds runs that mix in-order samples with exact duplicates
// and out-of-order samples a minute back (well inside the window). A sample
// an hour back (well outside) only ever ends a run, because AppendSeries
// stops at the first refusal; the margins keep every verdict the same
// whether the acceptance bound is taken per sample or per run.
func appendStream(seed int64) []appendOp {
	rng := rand.New(rand.NewSource(seed))
	const nSeries = 12
	var ops []appendOp
	var lastT [nSeries]int64
	for tick := 0; tick < 80; tick++ {
		now := int64(10_000_000 + tick*15_000)
		if tick == 40 {
			ops = append(ops, appendOp{series: 3})
			lastT[3] = 0
		}
		for s := 0; s < nSeries; s++ {
			if rng.Intn(4) == 0 {
				continue
			}
			var run []model.Sample
			for i, n := 0, 1+rng.Intn(3); i < n; i++ {
				lastT[s] = now + int64(i)*1000
				run = append(run, model.Sample{T: lastT[s], V: float64(tick*10 + i)})
			}
			switch rng.Intn(5) {
			case 0: // the sample just written, again
				run = append(run, run[len(run)-1])
			case 1: // inside the window, at a timestamp nothing else uses
				if tick > 8 {
					run = append(run, model.Sample{T: now - 60_000 - int64(rng.Intn(60))*1000 - 7 - int64(s), V: -1})
				}
			case 2: // one scrape back, twice: the second is a repeat whatever the first was
				if tick > 8 {
					run = append(run, model.Sample{T: lastT[s] - 15_000, V: -2}, model.Sample{T: lastT[s] - 15_000, V: -2})
				}
			case 3: // outside the window
				if tick > 8 {
					run = append(run, model.Sample{T: now - 3_600_000, V: -3})
				}
			}
			ops = append(ops, appendOp{series: s, samples: run})
		}
	}
	return ops
}

func headDigest(t *testing.T, db *DB) string {
	t.Helper()
	all, err := db.Select(math.MinInt64, math.MaxInt64, labels.MustMatcher(labels.MatchRegexp, labels.MetricName, ".+"))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, s := range all {
		fmt.Fprintf(h, "%s\n", s.Labels)
		for _, smp := range s.Samples {
			fmt.Fprintf(h, "%d %x\n", smp.T, math.Float64bits(smp.V))
		}
	}
	return fmt.Sprintf("%d series %x", len(all), h.Sum(nil))
}

// TestAppendPathsAgree drives one stream through DB.Append, DB.AppendSeries,
// Appender.AddEntry and Appender.Commit into four WAL-backed heads. All four
// are the same commitShard underneath, so the heads, what their journals
// replay to, the refusals and the outcome counters must be the same. The
// AddEntry path keeps one entry per series for the whole stream, so after
// the stream's DeleteSeries the handle it holds is of a dropped series.
func TestAppendPathsAgree(t *testing.T) {
	ops := appendStream(19)
	lset := func(s int) labels.Labels {
		return labels.FromStrings(labels.MetricName, fmt.Sprintf("paths_%02d", s), "job", "j")
	}
	entries := map[int]*labels.CacheEntry{}
	// Each path applies one run and reports how many samples were too old.
	paths := []struct {
		name  string
		apply func(db *DB, op appendOp) (tooOld int, err error)
	}{
		{"Append", func(db *DB, op appendOp) (int, error) {
			n := 0
			for _, smp := range op.samples {
				switch err := db.Append(lset(op.series), smp.T, smp.V); {
				case errors.Is(err, ErrTooOld):
					n++
				case err != nil:
					return n, err
				}
			}
			return n, nil
		}},
		{"AppendSeries", func(db *DB, op appendOp) (int, error) {
			err := db.AppendSeries(lset(op.series), op.samples)
			if errors.Is(err, ErrTooOld) {
				return 1, nil
			}
			return 0, err
		}},
		{"AddEntry", func(db *DB, op appendOp) (int, error) {
			e := entries[op.series]
			if e == nil {
				e = labels.NewCacheEntry(lset(op.series))
				entries[op.series] = e
			}
			a := db.Appender()
			for _, smp := range op.samples {
				a.AddEntry(e, smp.T, smp.V)
			}
			_, err := a.Commit()
			return a.LastCommitStats().TooOld, err
		}},
		{"Commit", func(db *DB, op appendOp) (int, error) {
			a := db.Appender()
			for _, smp := range op.samples {
				a.Add(lset(op.series), smp.T, smp.V)
			}
			_, err := a.Commit()
			return a.LastCommitStats().TooOld, err
		}},
	}
	type result struct {
		digest, reopened   string
		tooOld             []int
		ooo, dups, tooOld3 uint64
	}
	results := make([]result, len(paths))
	for i, p := range paths {
		opts := Options{WALDir: t.TempDir(), Shards: 4, OutOfOrderWindow: pathsWindow, Telemetry: telemetry.NewRegistry()}
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		r := &results[i]
		for _, op := range ops {
			if op.samples == nil {
				db.DeleteSeries(labels.MustMatcher(labels.MatchEqual, labels.MetricName, lset(op.series).Name()))
				continue
			}
			n, err := p.apply(db, op)
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			r.tooOld = append(r.tooOld, n)
		}
		r.digest = headDigest(t, db)
		r.ooo, r.dups, r.tooOld3 = db.metrics.oooAccepted.Value(), db.metrics.duplicates.Value(), db.metrics.tooOld.Value()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		opts.Telemetry = nil
		db, err = Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		r.reopened = headDigest(t, db)
		db.Close()
	}
	ref := len(paths) - 1 // Commit counted before the three paths were one
	want := results[ref]
	if want.ooo == 0 || want.dups == 0 || want.tooOld3 == 0 {
		t.Fatalf("stream exercises nothing: ooo=%d dups=%d tooOld=%d", want.ooo, want.dups, want.tooOld3)
	}
	for i, got := range results {
		name := paths[i].name
		if got.digest != want.digest {
			t.Errorf("%s: head %s, %s has %s", name, got.digest, paths[ref].name, want.digest)
		}
		if got.reopened != got.digest {
			t.Errorf("%s: head %s, replayed %s", name, got.digest, got.reopened)
		}
		if fmt.Sprint(got.tooOld) != fmt.Sprint(want.tooOld) {
			t.Errorf("%s: refusals per run differ from %s:\n got %v\nwant %v", name, paths[ref].name, got.tooOld, want.tooOld)
		}
		if got.ooo != want.ooo || got.dups != want.dups || got.tooOld3 != want.tooOld3 {
			t.Errorf("%s: counters ooo=%d dups=%d tooOld=%d, %s has %d %d %d",
				name, got.ooo, got.dups, got.tooOld3, paths[ref].name, want.ooo, want.dups, want.tooOld3)
		}
	}
}

// TestAddEntryTrustsOnlyItsHead: an entry whose handle another head
// published — one closed and reopened from its journal since, or a second
// head beside it — resolves by labels in the head it is committed to, and
// its samples land there and journal there.
func TestAddEntryTrustsOnlyItsHead(t *testing.T) {
	dir := t.TempDir()
	opts := Options{WALDir: dir, Shards: 4}
	old, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	e := labels.NewCacheEntry(labels.FromStrings(labels.MetricName, "by_ref", "job", "j"))
	commit := func(db *DB, ts int64) {
		t.Helper()
		a := db.Appender()
		a.AddEntry(e, ts, float64(ts))
		if n, err := a.Commit(); n != 1 || err != nil {
			t.Fatalf("commit at %d: %d landed, err %v", ts, n, err)
		}
	}
	commit(old, 1000)
	commit(old, 2000)
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	commit(reopened, 3000)
	beside := MustOpen(Options{Shards: 4})
	commit(beside, 4000)
	commit(reopened, 5000)

	count := func(db *DB) int {
		all, err := db.Select(math.MinInt64, math.MaxInt64, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "by_ref"))
		if err != nil || len(all) != 1 {
			t.Fatalf("select: %d series, err %v", len(all), err)
		}
		return len(all[0].Samples)
	}
	if got := count(reopened); got != 4 {
		t.Errorf("reopened head holds %d samples, want 4: 2 replayed, 2 committed after", got)
	}
	if got := count(beside); got != 1 {
		t.Errorf("second head holds %d samples, want 1", got)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	if got := count(replayed); got != 4 {
		t.Errorf("replayed journal holds %d samples, want 4", got)
	}
}

// headSeries returns the head series of lset, or nil.
func headSeries(db *DB, lset labels.Labels) *memSeries {
	h := lset.Hash()
	sh := db.shards[h&db.mask]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.lookupLocked(h, lset)
}

// TestHeadKeepsEntryLabelsAndCopiesCallers: a series created through
// AddEntry keeps its entry's immutable label slice itself; one created
// through Append keeps a copy, so the caller may reuse its slice after the
// append returns.
func TestHeadKeepsEntryLabelsAndCopiesCallers(t *testing.T) {
	db := MustOpen(Options{Shards: 2})
	e := labels.NewCacheEntry(labels.FromStrings(labels.MetricName, "by_ref", "uuid", "1000042"))
	a := db.Appender()
	a.AddEntry(e, 1000, 1)
	if _, err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if s := headSeries(db, e.Labels); s == nil || &s.lset[0] != &e.Labels[0] || len(s.lset) != len(e.Labels) || cap(s.lset) != len(s.lset) {
		t.Fatalf("AddEntry's series does not keep its entry's label slice, clipped")
	}

	lset := labels.FromStrings(labels.MetricName, "by_labels", "uuid", "1000043")
	want := lset.Copy()
	if err := db.Append(lset, 1000, 1); err != nil {
		t.Fatal(err)
	}
	lset[1].Value = "reused"
	s := headSeries(db, want)
	if s == nil || !s.lset.Equal(want) || &s.lset[0] == &lset[0] {
		t.Fatalf("Append's series is %v, want a copy of %s", s, want)
	}
	got, err := db.Select(0, 2000, labels.MustMatcher(labels.MatchEqual, "uuid", "1000043"))
	if err != nil || len(got) != 1 || !got[0].Labels.Equal(want) {
		t.Fatalf("select uuid=1000043: %v, err %v; want %s", got, err, want)
	}
}

// churnedHeadTicks lays out what a scrape loop appends to a head under job
// churn, tick by tick, as cache entries: a fleet of 1400 nodes with one
// power series each, scraped every tick, and jobs that each mint a uuid on
// the exporter's four per-job series, 25 starting every tick and each
// scraped for 8 ticks — n series in all.
func churnedHeadTicks(n int) [][]*labels.CacheEntry {
	const fleet, perTick, life = 1400, 25, 8
	nodes := make([]*labels.CacheEntry, fleet)
	for i := range nodes {
		nodes[i] = labels.NewCacheEntry(labels.FromStrings(labels.MetricName, "ceems_ipmi_dcmi_current_watts", "instance", fmt.Sprintf("n%04d:9100", i), "job", "ceems"))
	}
	var jobs [][]*labels.CacheEntry
	for j := 0; fleet+4*len(jobs) < n; j++ {
		var js []*labels.CacheEntry
		for _, name := range []string{"ceems_compute_unit_cpu_usage_seconds_total", "ceems_compute_unit_cpu_user_seconds_total", "ceems_compute_unit_memory_limit_bytes", "ceems_compute_unit_memory_used_bytes"} {
			js = append(js, labels.NewCacheEntry(labels.FromStrings(labels.MetricName, name, "instance", fmt.Sprintf("n%04d:9100", j%fleet), "job", "ceems", "manager", "slurm", "uuid", fmt.Sprint(1_000_000+j))))
		}
		jobs = append(jobs, js)
	}
	var ticks [][]*labels.CacheEntry
	for k := 0; k*perTick < len(jobs)+life*perTick; k++ {
		tick := slices.Clone(nodes)
		for j := max(0, (k-life+1)*perTick); j < min(len(jobs), (k+1)*perTick); j++ {
			tick = append(tick, jobs[j]...)
		}
		ticks = append(ticks, tick)
	}
	return ticks
}

// feedTicks commits each tick of entries as one scrape, 15 s apart.
func feedTicks(tb testing.TB, db *DB, ticks [][]*labels.CacheEntry) {
	for k, tick := range ticks {
		a := db.Appender()
		for i, e := range tick {
			a.AddEntry(e, int64(k)*15_000, float64(i))
		}
		if _, err := a.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkHeadHeapPerSeries measures filling a memory-only head with a
// churned scrape stream fed by ref (churnedHeadTicks, 20k series), and
// reports what the head keeps resident per series beyond the cache entries,
// which their producer holds: series, chunks, postings, handles and, unless
// the head keeps an entry's set itself, label slices.
func BenchmarkHeadHeapPerSeries(b *testing.B) {
	const n = 20_000
	heap := func() uint64 {
		var st runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&st)
		return st.HeapAlloc
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ticks := churnedHeadTicks(n) // fresh entries: no handle of an earlier head
		b.StartTimer()
		feedTicks(b, MustOpen(Options{Shards: 2}), ticks)
	}
	b.StopTimer()
	ticks := churnedHeadTicks(n)
	before := heap()
	db := MustOpen(Options{Shards: 2})
	feedTicks(b, db, ticks)
	after := heap()
	if got := db.Stats().NumSeries; got != n {
		b.Fatalf("head holds %d series, want %d", got, n)
	}
	b.ReportMetric(float64(after-before)/n, "heap_bytes/series")
	runtime.KeepAlive(ticks)
	runtime.KeepAlive(db)
}
