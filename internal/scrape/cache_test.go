package scrape

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/expofmt"
	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb"
)

// recordingBatch is a Batch stub that keeps every committed sample.
type recordingBatch struct {
	staged, committed []model.Series
}

func (b *recordingBatch) Add(ls labels.Labels, t int64, v float64) {
	b.staged = append(b.staged, model.Series{Labels: ls, Samples: []model.Sample{{T: t, V: v}}})
}

func (b *recordingBatch) Commit() (int, error) {
	n := len(b.staged)
	b.committed = append(b.committed, b.staged...)
	b.staged = nil
	return n, nil
}

// take returns what was committed since the last call, as "labels value"
// lines (stale markers read "stale"), sorted.
func (b *recordingBatch) take() []string {
	var out []string
	for _, s := range b.committed {
		v := fmt.Sprint(s.Samples[0].V)
		if model.IsStaleNaN(s.Samples[0].V) {
			v = "stale"
		}
		out = append(out, s.Labels.String()+" "+v)
	}
	b.committed = nil
	sort.Strings(out)
	return out
}

// scriptedFetcher serves whatever the test last set; a nil payload is a
// fetch error.
type scriptedFetcher struct {
	mu       sync.Mutex
	payloads map[string]*string
}

func (f *scriptedFetcher) set(target, payload string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.payloads == nil {
		f.payloads = map[string]*string{}
	}
	f.payloads[target] = &payload
}

func (f *scriptedFetcher) fail(target string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.payloads, target)
}

func (f *scriptedFetcher) Fetch(_ context.Context, target string) (io.ReadCloser, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.payloads[target]
	if p == nil {
		return nil, errors.New("connection refused")
	}
	return io.NopCloser(strings.NewReader(*p)), nil
}

// stubRig is one target scraped into a recordingBatch on a virtual clock.
type stubRig struct {
	m     *Manager
	f     *scriptedFetcher
	batch *recordingBatch
	now   time.Time
}

func newStubRig() *stubRig {
	r := &stubRig{f: &scriptedFetcher{}, batch: &recordingBatch{}, now: time.Unix(1000, 0)}
	r.m = &Manager{
		Fetcher:  r.f,
		Groups:   []*TargetGroup{{JobName: "j", Targets: []string{"n1"}}},
		NewBatch: func() Batch { return r.batch },
		Now:      func() time.Time { return r.now },
	}
	return r
}

// scrape serves payload once and returns the committed samples.
func (r *stubRig) scrape(payload string) []string {
	r.f.set("n1", payload)
	r.now = r.now.Add(15 * time.Second)
	r.m.ScrapeAll(context.Background())
	return r.batch.take()
}

func (r *stubRig) target() *target { return r.m.targets[targetKey{"j", "n1"}] }

func wantLines(t *testing.T, what string, got []string, want ...string) {
	t.Helper()
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n got  %q\n want %q", what, got, want)
	}
}

const (
	upOK   = `up{instance="n1", job="j"} 1`
	upDown = `up{instance="n1", job="j"} 0`
	durRow = `scrape_duration_seconds{instance="n1", job="j"} 0`
)

// Staleness used to be tracked under ls.Hash() alone, so two series of one
// target whose hashes collide shared a slot and one never got a marker.
// Each vanished series gets its own marker; the forced-equal-hash half of
// this check is the shared cache's own test (labels.TestSeriesCacheMatchesOracle).
func TestStalenessSurvivesHashCollision(t *testing.T) {
	r := newStubRig()
	r.scrape("m{k=\"a\"} 1\nm{k=\"b\"} 2\nm{k=\"c\"} 3\n")
	// One of three series vanishes: it, and only it, is marked.
	got := r.scrape("m{k=\"a\"} 1\nm{k=\"c\"} 3\n")
	wantLines(t, "one vanished", got,
		`m{instance="n1", job="j", k="a"} 1`, `m{instance="n1", job="j", k="c"} 3`,
		`m{instance="n1", job="j", k="b"} stale`, upOK, durRow)
	// Both remaining vanish at once: two markers, not one.
	got = r.scrape("other 1\n")
	wantLines(t, "both vanished", got,
		`other{instance="n1", job="j"} 1`,
		`m{instance="n1", job="j", k="a"} stale`, `m{instance="n1", job="j", k="c"} stale`, upOK, durRow)
	if n := r.target().cache.Len(); n != 1 {
		t.Errorf("cache holds %d series, want 1 (evict on stale)", n)
	}
}

// The same series exposed under different bytes — label order, white space
// — is a cache miss but not a new series and not a vanished one.
func TestSeriesReExposedWithReorderedLabels(t *testing.T) {
	r := newStubRig()
	row := func(v int) string { return fmt.Sprintf(`m{a="1", b="2", instance="n1", job="j"} %d`, v) }
	wantLines(t, "scrape 1", r.scrape(`m{a="1",b="2"} 1`+"\n"), row(1), upOK, durRow)
	wantLines(t, "reordered", r.scrape(`m{b="2",a="1"} 2`+"\n"), row(2), upOK, durRow)
	wantLines(t, "spaced", r.scrape(`m{ a="1" , b="2" } 3`+"\n"), row(3), upOK, durRow)
	// Two spellings at once, then one of them dropped: still no marker.
	wantLines(t, "both", r.scrape("m{a=\"1\",b=\"2\"} 4\nm{b=\"2\",a=\"1\"} 4\n"), row(4), row(4), upOK, durRow)
	wantLines(t, "one dropped", r.scrape(`m{b="2",a="1"} 5`+"\n"), row(5), upOK, durRow)
	if n := r.target().cache.Len(); n != 1 {
		t.Errorf("cache holds %d spellings, want 1", n)
	}
	// Really gone: one marker.
	wantLines(t, "gone", r.scrape("\n"), `m{a="1", b="2", instance="n1", job="j"} stale`, upOK, durRow)

	// Against the real head: one series, no gap in it.
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	f := &scriptedFetcher{}
	now := time.Unix(1000, 0)
	m := &Manager{
		Dest: db, Fetcher: f, NewBatch: func() Batch { return db.Appender() },
		Groups: []*TargetGroup{{JobName: "j", Targets: []string{"n1"}}},
		Now:    func() time.Time { return now },
	}
	for _, p := range []string{`m{a="1",b="2"} 1`, `m{b="2",a="1"} 2`, `m{ a="1" , b="2" } 3`} {
		f.set("n1", p+"\n")
		now = now.Add(15 * time.Second)
		m.ScrapeAll(context.Background())
	}
	got, _ := db.Select(0, 1<<60, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m"))
	if len(got) != 1 || len(got[0].Samples) != 3 {
		t.Fatalf("want one series of three samples, got %+v", got)
	}
	for i, s := range got[0].Samples {
		if s.V != float64(i+1) {
			t.Errorf("sample %d = %v: a marker or a gap crept in", i, s.V)
		}
	}
}

// A fetch or parse error leaves the previous generation intact and appends
// nothing but up 0 (and the duration synthetic that always rides with it).
func TestFailedScrapeKeepsCacheAndEmitsNoMarkers(t *testing.T) {
	r := newStubRig()
	r.scrape("m{k=\"a\"} 1\nm{k=\"b\"} 2\n")

	r.f.fail("n1")
	r.now = r.now.Add(15 * time.Second)
	r.m.ScrapeAll(context.Background())
	wantLines(t, "fetch error", r.batch.take(), upDown, durRow)

	// The parse error comes after a line that resolved (and cached) a new
	// series: all or nothing still holds, and that entry must not read as
	// "seen last time" later.
	wantLines(t, "parse error", r.scrape("m{k=\"a\"} 1\nm{k=\"new\"} 9\nbroken{\n"), upDown, durRow)
	if h := r.m.Health()["j/n1"]; h.Up || !strings.Contains(h.LastError, "line 3") || h.Samples != 0 {
		t.Errorf("health after parse error = %+v", h)
	}
	if n := r.target().cache.Len(); n != 3 {
		t.Errorf("cache holds %d series after the failures, want 3 (2 kept + 1 resolved before the error)", n)
	}

	// Next good scrape: b vanished two failures ago and is marked now; the
	// never-appended "new" is evicted without a marker.
	wantLines(t, "recovery", r.scrape("m{k=\"a\"} 3\n"),
		`m{instance="n1", job="j", k="a"} 3`, `m{instance="n1", job="j", k="b"} stale`, upOK, durRow)
	if n := r.target().cache.Len(); n != 1 {
		t.Errorf("cache holds %d series, want 1", n)
	}
}

// Group labels are part of every cached label set. Changing them retires
// the cache: old series are marked stale, new ones carry the new labels.
func TestGroupLabelChangeRetiresCache(t *testing.T) {
	r := newStubRig()
	r.m.Groups[0].Labels = map[string]string{"cluster": "a"}
	wantLines(t, "before", r.scrape("m 1\n"),
		`m{cluster="a", instance="n1", job="j"} 1`,
		`up{cluster="a", instance="n1", job="j"} 1`, `scrape_duration_seconds{cluster="a", instance="n1", job="j"} 0`)
	r.m.Groups[0].Labels["cluster"] = "b"
	wantLines(t, "after", r.scrape("m 2\n"),
		`m{cluster="b", instance="n1", job="j"} 2`, `m{cluster="a", instance="n1", job="j"} stale`,
		`up{cluster="b", instance="n1", job="j"} 1`, `scrape_duration_seconds{cluster="b", instance="n1", job="j"} 0`)
}

// referenceManager is the scrape algorithm as it was before the per-target
// cache — expofmt.Parse, a labels.Builder overlay per sample, a seen map
// keyed by label hash rebuilt every scrape — kept as the reference
// TestScrapeCacheHeadIdentical compares against.
type referenceManager struct {
	fetcher Fetcher
	groups  []*TargetGroup
	db      *tsdb.DB
	now     func() time.Time

	mu     sync.Mutex
	health map[string]TargetHealth
	seen   map[string]map[uint64]labels.Labels
}

func (m *referenceManager) scrapeAll() {
	for _, g := range m.groups {
		for _, target := range g.Targets {
			m.scrapeTarget(g, target)
		}
	}
}

func (m *referenceManager) scrapeTarget(g *TargetGroup, target string) {
	batch := m.db.Appender()
	start := m.now()
	ts := start.UnixMilli()
	samples, err := m.scrapeOnce(batch, g, target, ts)
	upVal, errStr := 1.0, ""
	if err != nil {
		upVal, errStr = 0, err.Error()
	}
	base := m.targetLabels(g, target)
	batch.Add(labels.NewBuilder(base).Set(labels.MetricName, "up").Labels(), ts, upVal)
	batch.Add(labels.NewBuilder(base).Set(labels.MetricName, "scrape_duration_seconds").Labels(), ts, 0)
	batch.Commit()
	m.mu.Lock()
	if m.health == nil {
		m.health = map[string]TargetHealth{}
	}
	m.health[g.JobName+"/"+target] = TargetHealth{Up: upVal == 1, LastScrape: start, LastError: errStr, Samples: samples}
	m.mu.Unlock()
}

func (m *referenceManager) scrapeOnce(batch *tsdb.Appender, g *TargetGroup, target string, ts int64) (int, error) {
	body, err := m.fetcher.Fetch(context.Background(), target)
	if err != nil {
		return 0, err
	}
	defer body.Close()
	fams, err := expofmt.Parse(body)
	if err != nil {
		return 0, err
	}
	base := m.targetLabels(g, target)
	cur := make(map[uint64]labels.Labels)
	for _, fam := range fams {
		for _, metric := range fam.Metrics {
			b := labels.NewBuilder(metric.Labels)
			for _, l := range base {
				b.Set(l.Name, l.Value)
			}
			ls := b.Labels()
			batch.Add(ls, ts, metric.Value)
			cur[ls.Hash()] = ls
		}
	}
	n, _ := batch.Commit()
	key := g.JobName + "/" + target
	m.mu.Lock()
	prev := m.seen[key]
	if m.seen == nil {
		m.seen = map[string]map[uint64]labels.Labels{}
	}
	m.seen[key] = cur
	m.mu.Unlock()
	for h, ls := range prev {
		if _, still := cur[h]; !still {
			batch.Add(ls, ts, model.StaleNaN())
		}
	}
	return n, nil
}

func (m *referenceManager) targetLabels(g *TargetGroup, target string) labels.Labels {
	b := labels.NewBuilder(nil)
	b.Set("job", g.JobName)
	b.Set("instance", target)
	for k, v := range g.Labels {
		b.Set(k, v)
	}
	return b.Labels()
}

// headDigest hashes every series of the head — labels, timestamps, value
// bits — the way bench/'s seriesDigest does.
func headDigest(t *testing.T, db *tsdb.DB) (digest uint64, series, samples int) {
	t.Helper()
	all, err := db.Select(0, 1<<62, labels.MustMatcher(labels.MatchRegexp, labels.MetricName, ".+"))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [16]byte
	for _, sr := range all {
		for _, l := range sr.Labels {
			h.Write([]byte(l.Name))
			h.Write([]byte{0})
			h.Write([]byte(l.Value))
			h.Write([]byte{0})
		}
		for _, smp := range sr.Samples {
			tt, v := uint64(smp.T), math.Float64bits(smp.V)
			for i := 0; i < 8; i++ {
				buf[i] = byte(tt >> (8 * i))
				buf[8+i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
		samples += len(sr.Samples)
	}
	return h.Sum64(), len(all), samples
}

// churnPayload renders one target's exposition for one tick: a stable node
// series, job series that appear, vanish and return, a series that is
// sometimes spelled differently, exposed job/instance labels the target's
// must override, an explicit timestamp that must be ignored, and now and
// then a payload that does not parse.
func churnPayload(rng *rand.Rand, target string, tick int) (string, bool) {
	if rng.Intn(23) == 0 {
		return "", false // fetch error
	}
	var b strings.Builder
	b.WriteString("# HELP node_power_watts Node power.\n# TYPE node_power_watts gauge\n")
	fmt.Fprintf(&b, "node_power_watts %v\n", 200+rng.Float64())
	fmt.Fprintf(&b, "node_info{job=\"exposed\",instance=\"exposed\",kernel=\"6.1\"} 1 %d\n", 5000+tick)
	b.WriteString("# TYPE job_cpu_seconds_total counter\n")
	for j := 0; j < 12; j++ {
		// Job j runs on this target during some windows of the run.
		if (tick/(7+j)+j+len(target))%3 == 0 {
			continue
		}
		if j%4 == 0 && tick%2 == 1 {
			fmt.Fprintf(&b, "job_cpu_seconds_total{ uuid=\"%d\", manager=\"slurm\" } %d\n", 100+j, tick*j)
		} else {
			fmt.Fprintf(&b, "job_cpu_seconds_total{manager=\"slurm\",uuid=\"%d\"} %d\n", 100+j, tick*j)
		}
	}
	fmt.Fprintf(&b, "job_short_lived{uuid=\"%d\"} 1\n", 1000+tick/3) // replaced every third tick
	if rng.Intn(17) == 0 {
		b.WriteString("broken{line\n")
	}
	return b.String(), true
}

// TestScrapeCacheHeadIdentical: over a 200-tick churn run the cached scrape
// leaves the same head, byte for byte, and the same Health() as the
// reference algorithm — serially and with eight targets in flight.
func TestScrapeCacheHeadIdentical(t *testing.T) {
	groups := func() []*TargetGroup {
		return []*TargetGroup{
			{JobName: "ceems", Targets: []string{"intel-1", "intel-2", "intel-3"}, Labels: map[string]string{"nodeclass": "intel", "cluster": "jz"}},
			{JobName: "ceems", Targets: []string{"amd-1", "amd-2"}, Labels: map[string]string{"nodeclass": "amd", "cluster": "jz", "kernel": "target-wins"}},
			{JobName: "other", Targets: []string{"intel-1", "gpu-1", "gpu-2", "gpu-3"}},
		}
	}
	ticks := 200
	if testing.Short() {
		ticks = 60
	}
	for _, parallelism := range []int{1, 8} {
		t.Run(fmt.Sprintf("parallelism=%d", parallelism), func(t *testing.T) {
			now := time.Unix(1700000000, 0)
			clock := func() time.Time { return now }
			f := &scriptedFetcher{}
			refDB := tsdb.MustOpen(tsdb.DefaultOptions())
			ref := &referenceManager{fetcher: f, groups: groups(), db: refDB, now: clock}
			db := tsdb.MustOpen(tsdb.DefaultOptions())
			m := &Manager{
				Dest: db, Fetcher: f, Groups: groups(), Now: clock, Parallelism: parallelism,
				NewBatch: func() Batch { return db.Appender() },
			}
			rng := rand.New(rand.NewSource(18))
			for tick := 0; tick < ticks; tick++ {
				for _, g := range m.Groups {
					for _, target := range g.Targets {
						if p, ok := churnPayload(rng, target, tick); ok {
							f.set(target, p)
						} else {
							f.fail(target)
						}
					}
				}
				ref.scrapeAll()
				m.ScrapeAll(context.Background())
				now = now.Add(15 * time.Second)
			}
			wantDigest, wantSeries, wantSamples := headDigest(t, refDB)
			gotDigest, gotSeries, gotSamples := headDigest(t, db)
			if gotDigest != wantDigest || gotSeries != wantSeries || gotSamples != wantSamples {
				t.Errorf("head: %d series, %d samples, digest %x; reference %d series, %d samples, digest %x",
					gotSeries, gotSamples, gotDigest, wantSeries, wantSamples, wantDigest)
			}
			if wantSeries < 100 || wantSamples < 10*ticks {
				t.Errorf("run too small to mean anything: %d series, %d samples", wantSeries, wantSamples)
			}
			if got, want := m.Health(), ref.health; !reflect.DeepEqual(got, want) {
				t.Errorf("health differs:\n got  %+v\n want %+v", got, want)
			}
			// Eviction bounds each cache by what its target exposes.
			for key, st := range m.targets {
				if n := st.cache.Len(); n > 16 {
					t.Errorf("target %v caches %d series; a payload never has more than 16", key, n)
				}
			}
		})
	}
}

// nopBatch and replayFetcher let the benchmarks below measure the scrape
// loop alone: neither allocates, so allocs/op is what a scrape costs beyond
// its batch and its fetch.
type nopBatch struct{ n int }

func (b *nopBatch) Add(labels.Labels, int64, float64) { b.n++ }
func (b *nopBatch) Commit() (int, error)              { n := b.n; b.n = 0; return n, nil }

type replayFetcher struct {
	payload string
	r       strings.Reader
}

func (f *replayFetcher) Fetch(context.Context, string) (io.ReadCloser, error) {
	f.r.Reset(f.payload)
	return f, nil
}
func (f *replayFetcher) Read(p []byte) (int, error) { return f.r.Read(p) }
func (f *replayFetcher) Close() error               { return nil }

// jobPayload exposes series job ids [from, from+n) the way the cgroup
// collector does.
func jobPayload(from, n int) string {
	var b strings.Builder
	b.WriteString("# HELP ceems_compute_unit_cpu_usage_seconds_total Total CPU time of the compute unit (from cgroup cpu.stat).\n")
	b.WriteString("# TYPE ceems_compute_unit_cpu_usage_seconds_total counter\n")
	for i := from; i < from+n; i++ {
		fmt.Fprintf(&b, "ceems_compute_unit_cpu_usage_seconds_total{manager=\"slurm\",uuid=\"%d\"} %d.5\n", 100000+i, i)
	}
	return b.String()
}

func benchManager(f Fetcher) (*Manager, *TargetGroup) {
	g := &TargetGroup{JobName: "ceems", Targets: []string{"jean-zay-intel-0001"},
		Labels: map[string]string{"nodeclass": "intel", "cluster": "jean-zay"}}
	batch := &nopBatch{}
	now := time.Unix(1700000000, 0)
	return &Manager{Fetcher: f, Groups: []*TargetGroup{g}, NewBatch: func() Batch { return batch },
		Now: func() time.Time { now = now.Add(15 * time.Second); return now }}, g
}

// BenchmarkScrapeSteadyState: one target exposing the same series every
// scrape — the cache is warm, so a scrape is a tokenizer walk, a map lookup
// per sample and Batch.Add of a label set built long ago. The _head case
// commits into a real head through tsdb.Appender, which finds each series
// by the handle kept in its cache entry.
func BenchmarkScrapeSteadyState(b *testing.B) {
	for _, c := range []struct {
		n    int
		head bool
	}{{20, false}, {1000, false}, {1000, true}} {
		name := fmt.Sprintf("%d_series", c.n)
		if c.head {
			name += "_head"
		}
		b.Run(name, func(b *testing.B) {
			n := c.n
			m, g := benchManager(&replayFetcher{payload: jobPayload(0, n)})
			if c.head {
				db := tsdb.MustOpen(tsdb.Options{})
				defer db.Close()
				m.NewBatch = func() Batch { return db.Appender() }
			}
			ctx := context.Background()
			m.ScrapeTarget(ctx, g, g.Targets[0])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ScrapeTarget(ctx, g, g.Targets[0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sample")
		})
	}
}

// BenchmarkScrapeChurn: 1000 series of which 10 % are replaced every
// scrape — 100 misses, 100 staleness markers, 100 evictions per op.
func BenchmarkScrapeChurn(b *testing.B) {
	const n, churn = 1000, 100
	payloads := make([]string, 64)
	for i := range payloads {
		payloads[i] = jobPayload(i*churn, n)
	}
	f := &replayFetcher{payload: payloads[0]}
	m, g := benchManager(f)
	ctx := context.Background()
	m.ScrapeTarget(ctx, g, g.Targets[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.payload = payloads[(i+1)%len(payloads)]
		m.ScrapeTarget(ctx, g, g.Targets[0])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sample")
}
