package thanos

import (
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/tsdb"
)

// The boundary probe: a head scraped every 15 s for 24 h, the block store's
// maintenance pass every 30 min, as the Prometheus role runs them. Each
// scrape lands on the cadence grid, so every ship ends on a sample that
// opens a 5m bucket the next raw block goes on filling.
const (
	probeScrape  = 15 * time.Second
	probeCadence = 30 * time.Minute
	probeSpan    = 24 * time.Hour
)

var probeStart = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// probeSeries are the probe's two series: the minute of the hour, and 1.
var probeSeries = []labels.Labels{
	labels.FromStrings(labels.MetricName, "probe", "value", "minute"),
	labels.FromStrings(labels.MetricName, "probe", "value", "one"),
}

func probeValue(k int, at time.Time) float64 {
	if k == 0 {
		return float64(at.Minute())
	}
	return 1
}

// runProbe runs the probe into a store at dir and returns the head and the
// store, both open, at the probe's end.
func runProbe(t testing.TB, dir string) (*tsdb.DB, *Store) {
	t.Helper()
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc := &Sidecar{DB: db, Store: store, HeadRetention: 2 * probeCadence}
	end := probeStart.Add(probeSpan)
	for now := probeStart; !now.After(end); now = now.Add(probeScrape) {
		for k, lset := range probeSeries {
			if err := db.Append(lset, now.UnixMilli(), probeValue(k, now)); err != nil {
				t.Fatal(err)
			}
		}
		if now.After(probeStart) && now.Sub(probeStart)%probeCadence == 0 {
			if _, _, err := sc.Maintain(now, probeCadence); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db, store
}

// rawOnly reads its store with the consuming function dropped from the
// hints, so every read is served raw, when force is set; otherwise it
// counts into stats what the reads aggregates could have served got.
type rawOnly struct {
	promql.Queryable
	force bool
	stats *probeStats
}

// probeStats counts the reads aggregates could have served (eligible), those
// they did (aggregated: the same read forced raw returns another number of
// samples), and the raw samples those reads returned from before the 5m
// cutoff of the probe's last pass (rawOld), where every bucket is derived.
type probeStats struct {
	eligible, aggregated, rawOld int
}

// probeCutoff is the 5m cutoff of the probe's last maintenance pass.
var probeCutoff = probeStart.Add(probeSpan - 2*probeCadence).UnixMilli()

func (q rawOnly) SelectWithHints(h model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	if q.force {
		h.Func = ""
		return q.Queryable.SelectWithHints(h, ms...)
	}
	out, err := q.Queryable.SelectWithHints(h, ms...)
	if h.Func == "" || err != nil {
		return out, err
	}
	raw, err := rawOnly{Queryable: q.Queryable, force: true}.SelectWithHints(h, ms...)
	q.stats.eligible++
	if countSamples(out) != countSamples(raw) {
		q.stats.aggregated++
	}
	// A raw sample sits on the scrape grid; an aggregate point at its
	// bucket's last millisecond, off it.
	for _, s := range out {
		for _, p := range s.Samples {
			if p.T < probeCutoff && p.T%probeScrape.Milliseconds() == 0 {
				q.stats.rawOld++
			}
		}
	}
	return out, err
}

func countSamples(ss []model.Series) (n int) {
	for _, s := range ss {
		n += len(s.Samples)
	}
	return n
}

// probeQuery is one of the probe's range queries: every step a bucket's last
// millisecond at both resolutions, so each window is whole 5m and 1h buckets.
type probeQuery struct {
	query string
	step  time.Duration
}

func probeQueries(fns ...string) []probeQuery {
	var out []probeQuery
	for _, fn := range fns {
		for _, step := range []time.Duration{time.Hour, 6 * time.Hour} {
			for _, v := range []string{"minute", "one"} {
				out = append(out, probeQuery{fmt.Sprintf(`%s(probe{value=%q}[%s])`, fn, v, fmt.Sprintf("%dh", int(step.Hours()))), step})
			}
		}
	}
	return out
}

// probeAnswers evaluates the queries over q, with steps from the hour
// `from` into the probe to the hour `until`, and, forced raw, returns both,
// failing on any error.
func probeAnswers(t *testing.T, q promql.Queryable, queries []probeQuery, from, until time.Duration, st *probeStats) (got, raw []promql.Matrix) {
	t.Helper()
	eng := promql.NewEngine()
	start, end := probeStart.Add(from-time.Millisecond), probeStart.Add(until-time.Millisecond)
	for _, pq := range queries {
		g, err := eng.Range(rawOnly{Queryable: q, stats: st}, pq.query, start, end, pq.step)
		if err != nil {
			t.Fatalf("%s: %v", pq.query, err)
		}
		r, err := eng.Range(rawOnly{Queryable: q, force: true}, pq.query, start, end, pq.step)
		if err != nil {
			t.Fatalf("%s forced raw: %v", pq.query, err)
		}
		got, raw = append(got, g), append(raw, r)
	}
	return got, raw
}

// sameAnswer reports where a and b differ: min and max must agree to the
// bit, a sum or an average within 1e-9 of the larger magnitude (float
// re-association). It returns the points compared and the differing ones.
func sameAnswer(query string, a, b promql.Matrix) (points int, diffs []string) {
	rel := 0.0
	if query[:3] == "sum" || query[:3] == "avg" {
		rel = 1e-9
	}
	if len(a) != len(b) {
		return 0, []string{fmt.Sprintf("%d series, want %d", len(a), len(b))}
	}
	for i := range a {
		if !a[i].Labels.Equal(b[i].Labels) || len(a[i].Samples) != len(b[i].Samples) {
			return points, append(diffs, fmt.Sprintf("series %s: %d points, want %s with %d", a[i].Labels, len(a[i].Samples), b[i].Labels, len(b[i].Samples)))
		}
		for j, sa := range a[i].Samples {
			sb := b[i].Samples[j]
			points++
			if sa.T != sb.T || (math.Float64bits(sa.V) != math.Float64bits(sb.V) && !(math.Abs(sa.V-sb.V) <= rel*max(1, math.Abs(sa.V), math.Abs(sb.V)))) {
				diffs = append(diffs, fmt.Sprintf("%s at %v: %v, want %v (%.3g%%)", a[i].Labels, model.MillisToTime(sa.T).UTC().Format(time.TimeOnly), sa.V, sb.V, 100*math.Abs(sa.V-sb.V)/math.Abs(sb.V)))
			}
		}
	}
	return points, diffs
}

// TestDownsampleProbeMatchesRaw replays the boundary probe and asks
// {sum,avg,min,max}_over_time over 1h and 6h windows at 1h and 6h steps —
// eligible for 5m and for 1h aggregates — of the hot/cold querier and of
// the store alone. Each answer must equal the same query forced raw; some
// reads must have been served from aggregates. All four are asked over
// 06:00–18:00, which the aggregates hold whole (13 and 3 steps), and sum,
// min and max also over 06:00–24:00, whose last windows read aggregates up
// to where they end and raw samples after, and over 21:00–24:00 alone: the
// newest range, whose raw block reaches past the 5m cutoff (23:00) and is
// derived up to it. Every leg must read some aggregates, and no raw sample
// from before that cutoff, where every bucket is derived. An average is left
// out past 18:00: it is the mean of its points, and a bucket's mean weighs
// as much as one raw sample.
func TestDownsampleProbeMatchesRaw(t *testing.T) {
	db, store := runProbe(t, t.TempDir())
	defer store.Close()
	for _, src := range []struct {
		name string
		q    promql.Queryable
	}{{"querier", &Querier{Hot: db, Cold: store}}, {"store", store}} {
		checkProbe(t, src.name, src.q)
	}
	if t.Failed() {
		logBlocks(t, store)
	}
}

// probeLegs are the probe's queries and the hours their steps run from and
// to; see TestDownsampleProbeMatchesRaw.
var probeLegs = []struct {
	fns         []string
	from, until time.Duration
}{
	{[]string{"sum_over_time", "avg_over_time", "min_over_time", "max_over_time"}, 6 * time.Hour, 18 * time.Hour},
	{[]string{"sum_over_time", "min_over_time", "max_over_time"}, 6 * time.Hour, probeSpan},
	{[]string{"sum_over_time", "min_over_time", "max_over_time"}, 21 * time.Hour, probeSpan},
}

// checkProbe asks q the probe's queries, each of whose answers must equal
// the one forced raw, and returns the answers.
func checkProbe(t *testing.T, name string, q promql.Queryable) (answers []promql.Matrix) {
	t.Helper()
	for _, leg := range probeLegs {
		var st probeStats
		queries := probeQueries(leg.fns...)
		got, raw := probeAnswers(t, q, queries, leg.from, leg.until, &st)
		for i, pq := range queries {
			if n, diffs := sameAnswer(pq.query, got[i], raw[i]); len(diffs) > 0 {
				t.Errorf("%s: %s step %v from %v until %v: %d of %d points differ from raw:\n  %v", name, pq.query, pq.step, leg.from, leg.until, len(diffs), n, diffs)
			}
		}
		answers = append(answers, got...)
		t.Logf("%s: %v to %v: %d of %d eligible reads served from aggregates", name, leg.from, leg.until, st.aggregated, st.eligible)
		if st.aggregated == 0 {
			t.Errorf("%s: %v to %v: none of %d eligible reads was served from aggregates", name, leg.from, leg.until, st.eligible)
		}
		if st.rawOld > 0 {
			t.Errorf("%s: %v to %v: eligible reads returned %d raw samples from before the 5m cutoff", name, leg.from, leg.until, st.rawOld)
		}
	}
	return answers
}

// sameAnswers fails unless two stores' answers to the probe's queries agree
// as sameAnswer has them.
func sameAnswers(t *testing.T, what string, got, want []promql.Matrix) {
	t.Helper()
	var queries []probeQuery
	for _, leg := range probeLegs {
		queries = append(queries, probeQueries(leg.fns...)...)
	}
	for i, pq := range queries {
		if n, diffs := sameAnswer(pq.query, got[i], want[i]); len(diffs) > 0 {
			t.Errorf("%s: %s step %v: %d of %d points differ:\n  %v", what, pq.query, pq.step, len(diffs), n, diffs)
		}
	}
}

// splitBucketStore is a store directory the build before range derivation
// wrote by running the probe (runProbe) into it: four raw blocks beside 5m
// and 1h blocks derived one source block at a time — neighbours split the
// bucket a ship ends in, and every 5m block overlapped the next, so all but
// the newest compacted into one level-11 block.
const splitBucketStore = "testdata/split-bucket-store"

// deriveAtProbeEnd runs the downsampling of a maintenance pass at the
// probe's end, as a restarted process's first pass does.
func deriveAtProbeEnd(t *testing.T, store *Store) {
	t.Helper()
	end := probeStart.Add(probeSpan)
	for _, lvl := range []struct{ age, res time.Duration }{{2 * probeCadence, 5 * time.Minute}, {10 * probeCadence, time.Hour}} {
		if _, err := store.Downsample(end.Add(-lvl.age).UnixMilli(), lvl.res); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDownsampleMigratesOldStore: a store written by the build before range
// derivation opens, loses every downsampled block at the open and keeps its
// raw ones; a maintenance pass derives the ranges again, and the store then
// answers the probe's queries as raw data does and as a store the probe ran
// into under this build does.
func TestDownsampleMigratesOldStore(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, splitBucketStore, dir)
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	metas := store.BlockMetas()
	for _, m := range metas {
		if m.Resolution != 0 {
			t.Errorf("a %dms block [%d, %d] survived the open", m.Resolution, m.MinTime, m.MaxTime)
		}
	}
	if len(metas) != 4 || len(ents) != 4+1 { // the blocks and the lock file
		t.Fatalf("%d blocks and %d directory entries after the open, want the 4 raw blocks and the lock", len(metas), len(ents))
	}
	deriveAtProbeEnd(t, store)
	_, fresh := runProbe(t, t.TempDir())
	defer fresh.Close()
	sameAnswers(t, "migrated store against a fresh one", checkProbe(t, "migrated store", store), checkProbe(t, "fresh store", fresh))
	if t.Failed() {
		logBlocks(t, store)
	}
}

func logBlocks(t *testing.T, store *Store) {
	for _, m := range store.BlockMetas() {
		t.Logf("  res %7d level %2d [%s, %s] %d samples", m.Resolution, m.Level,
			model.MillisToTime(m.MinTime).UTC().Format("02T15:04:05.000"), model.MillisToTime(m.MaxTime).UTC().Format("02T15:04:05.000"), m.Stats.NumSamples)
	}
}
