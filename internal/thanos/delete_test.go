package thanos

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/querycache"
	"repro/internal/tsdb"
)

// The one delete (docs/ARCHITECTURE.md, "One delete") through every tier:
// the head, reads across the hot/cold seam, compaction, downsampling, the
// rewrite of what a tombstone still touches, and retirement.

var uuidIs = func(v string) *labels.Matcher { return labels.MustMatcher(labels.MatchEqual, "uuid", v) }

// deleteVia deletes through one of the two doors a delete has: the API
// server's cleaner (DeleteSeries, up to the head's newest sample) and a
// ring's tombstone (ApplyTombstone, seq and maxt chosen by the caller).
var deleteVia = map[string]func(t *testing.T, db *tsdb.DB, m *labels.Matcher){
	"cleaner": func(t *testing.T, db *tsdb.DB, m *labels.Matcher) {
		if n := db.DeleteSeries(m); n != 1 {
			t.Fatalf("DeleteSeries(%s) deleted %d head series, want 1", m, n)
		}
	},
	"tombstone": func(t *testing.T, db *tsdb.DB, m *labels.Matcher) {
		maxt, _ := db.MaxTime()
		if n, err := db.ApplyTombstone(tsdb.TombstoneRec{Seq: 1, MaxT: maxt, Matchers: []*labels.Matcher{m}}); err != nil || n != 1 {
			t.Fatalf("ApplyTombstone(%s) = %d, %v; want 1 head series", m, n, err)
		}
	},
}

// rawOf reads every raw sample of the series m selects from src.
func rawOf(t *testing.T, src interface {
	SelectWithHints(model.SelectHints, ...*labels.Matcher) ([]model.Series, error)
}, m *labels.Matcher) []model.Sample {
	t.Helper()
	got, err := src.SelectWithHints(model.SelectHints{Start: math.MinInt64 / 2, End: math.MaxInt64 / 2}, m)
	if err != nil {
		t.Fatal(err)
	}
	var out []model.Sample
	for _, s := range got {
		out = append(out, s.Samples...)
	}
	return out
}

// TestDeleteReachesBlocksAtOnceAndAtCompaction: two cut blocks hold 20
// samples each of uuid="a" and uuid="b". A delete of a, by either door, or
// by the cleaner once the head is truncated past every sample, leaves the
// hot/cold querier's answers at once, and the blocks and their label values
// after the next compaction.
func TestDeleteReachesBlocksAtOnceAndAtCompaction(t *testing.T) {
	doors := maps.Clone(deleteVia)
	doors["cleaner_after_truncation"] = func(t *testing.T, db *tsdb.DB, m *labels.Matcher) {
		if _, err := db.Truncate(400); err != nil {
			t.Fatal(err)
		}
		if maxt, ok := db.MaxTime(); ok {
			t.Fatalf("the truncated head holds samples through %d", maxt)
		}
		db.DeleteSeries(m)
		if got := rawOf(t, db, m); len(got) != 0 {
			t.Fatalf("the head still serves %d samples of the deleted series", len(got))
		}
	}
	for door, del := range doors {
		t.Run(door, func(t *testing.T) {
			db := tsdb.MustOpen(tsdb.DefaultOptions())
			store, _ := NewStore("")
			for ts := int64(0); ts < 400; ts += 10 {
				for _, u := range []string{"a", "b"} {
					if err := db.Append(labels.FromStrings(labels.MetricName, "m", "uuid", u), ts, float64(ts)); err != nil {
						t.Fatal(err)
					}
				}
			}
			mustCut(t, store, db, 0, 199)
			mustCut(t, store, db, 200, 399)
			q := &Querier{Hot: db, Cold: store}

			del(t, db, uuidIs("a"))
			if got := rawOf(t, q, uuidIs("a")); len(got) != 0 {
				t.Fatalf("the querier still serves %d samples of the deleted series", len(got))
			}
			if got := rawOf(t, q, uuidIs("b")); len(got) != 40 {
				t.Fatalf("the querier serves %d samples of b, want 40", len(got))
			}
			if got := rawOf(t, store, uuidIs("a")); len(got) != 40 {
				t.Fatalf("before compaction the blocks hold %d samples of a, want the 40 cut", len(got))
			}
			if _, err := store.Compact(db.Tombstones()); err != nil {
				t.Fatal(err)
			}
			if got := rawOf(t, store, uuidIs("a")); len(got) != 0 {
				t.Fatalf("after compaction the blocks hold %d samples of the deleted series", len(got))
			}
			if got := rawOf(t, store, uuidIs("b")); len(got) != 40 {
				t.Fatalf("after compaction the blocks hold %d samples of b, want 40", len(got))
			}
			if got := store.LabelValues("uuid"); !slices.Equal(got, []string{"b"}) {
				t.Fatalf("after compaction the blocks list uuid values %q, want [b]", got)
			}
		})
	}
}

// TestDeleteSparesLaterSamplesThroughCompactAndDownsample: a series
// deleted and then written again keeps every sample written after the
// delete, by either door, through compaction, 5m downsampling and 1h
// downsampling, and loses every sample written before it — whether the
// compaction that rewrites the raw blocks runs before the downsampling or
// after it, when the derivation itself must drop them. Every tier is cut
// from a head appended to on a monotonic clock, as every producer appends.
func TestDeleteSparesLaterSamplesThroughCompactAndDownsample(t *testing.T) {
	for name, compactFirst := range map[string]bool{"compact first": true, "downsample first": false} {
		for door, del := range deleteVia {
			t.Run(name+"/"+door, func(t *testing.T) {
				testDeleteSparesLaterSamples(t, del, compactFirst)
			})
		}
	}
}

func testDeleteSparesLaterSamples(t *testing.T, del func(*testing.T, *tsdb.DB, *labels.Matcher), compactFirst bool) {
	const step, minute = 30_000, int64(60_000) // ms
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	store, _ := NewStore(t.TempDir())
	defer store.Close()
	b := labels.FromStrings(labels.MetricName, "m", "uuid", "b")
	c := labels.FromStrings(labels.MetricName, "m", "uuid", "c")
	written := 0
	for win := int64(0); win < 180*minute; win += 10 * minute {
		for ts := win; ts < win+10*minute; ts += step {
			if err := db.Append(c, ts, 1); err != nil {
				t.Fatal(err)
			}
			// b until 20m, deleted there, written again over 20m-45m.
			if ts < 45*minute {
				if err := db.Append(b, ts, 2); err != nil {
					t.Fatal(err)
				}
				if ts >= 20*minute {
					written++
				}
			}
		}
		if win == 10*minute {
			del(t, db, uuidIs("b"))
		}
		mustCut(t, store, db, win, win+10*minute-1)
	}
	compact := func() {
		if _, err := store.Compact(db.Tombstones()); err != nil {
			t.Fatal(err)
		}
	}
	if compactFirst {
		compact()
	} else {
		store.adopt(db.Tombstones()) // the log Compact would have handed over
	}
	for _, res := range []time.Duration{5 * time.Minute, time.Hour} {
		if _, err := store.Downsample(180*minute, res); err != nil {
			t.Fatal(err)
		}
		var blocks []*tsdb.PersistentBlock
		for _, blk := range store.blocks {
			if blk.Meta().Resolution == res.Milliseconds() {
				blocks = append(blocks, blk)
			}
		}
		counts, err := tsdb.Sources{Blocks: blocks, Aggr: tsdb.AggrCount}.Select(model.SelectHints{Start: 0, End: 180 * minute}, uuidIs("b"))
		if err != nil {
			t.Fatal(err)
		}
		n := 0.0
		for _, s := range counts {
			for _, p := range s.Samples {
				n += p.V
			}
		}
		if int(n) != written {
			t.Errorf("%v aggregates count %v samples of b, want the %d written after the delete", res, n, written)
		}
	}
	if !compactFirst {
		compact()
	}
	if got := rawOf(t, store, uuidIs("b")); len(got) != written || got[0].T != 20*minute {
		t.Fatalf("raw blocks hold %d samples of b, want the %d written from 20m on", len(got), written)
	}
}

// deleteModel is every sample appended, minus, for each delete, the
// samples at or before its maxt of the series it matches.
type deleteModel struct {
	series  map[string]*model.Series
	deletes []tsdb.TombstoneRec
}

func (m *deleteModel) add(lset labels.Labels, t int64, v float64) {
	s := m.series[lset.String()]
	if s == nil {
		s = &model.Series{Labels: lset}
		m.series[lset.String()] = s
	}
	s.Samples = append(s.Samples, model.Sample{T: t, V: v})
}

// want is the model's series over [mint, maxt], sorted by labels.
func (m *deleteModel) want(mint, maxt int64) []model.Series {
	var out []model.Series
	for _, s := range m.series {
		floor := int64(math.MinInt64)
		for _, d := range m.deletes {
			if labels.MatchLabels(s.Labels, d.Matchers...) {
				floor = max(floor, d.MaxT)
			}
		}
		var kept []model.Sample
		for _, smp := range s.Samples {
			if smp.T > floor && smp.T >= mint && smp.T <= maxt {
				kept = append(kept, smp)
			}
		}
		if len(kept) > 0 {
			out = append(out, model.Series{Labels: s.Labels, Samples: kept})
		}
	}
	slices.SortFunc(out, func(a, b model.Series) int { return labels.Compare(a.Labels, b.Labels) })
	return out
}

// buckets folds series into their points of one aggregate at resolution
// res: one per whole bucket holding a sample, at the bucket's end.
func buckets(series []model.Series, res int64, aggr tsdb.AggrType) []model.Series {
	var out []model.Series
	for _, s := range series {
		var pts []model.Sample
		for _, smp := range s.Samples {
			end := (smp.T - (smp.T%res+res)%res) + res - 1
			if n := len(pts); n == 0 || pts[n-1].T != end {
				v := smp.V
				if aggr == tsdb.AggrCount {
					v = 1
				}
				pts = append(pts, model.Sample{T: end, V: v})
				continue
			}
			p := &pts[len(pts)-1]
			switch aggr {
			case tsdb.AggrSum:
				p.V += smp.V
			case tsdb.AggrCount:
				p.V++
			case tsdb.AggrMin:
				p.V = min(p.V, smp.V)
			case tsdb.AggrMax:
				p.V = max(p.V, smp.V)
			}
		}
		out = append(out, model.Series{Labels: s.Labels, Samples: pts})
	}
	return out
}

func sameModelSeries(got, want []model.Series, tol float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !got[i].Labels.Equal(want[i].Labels) || len(got[i].Samples) != len(want[i].Samples) {
			return false
		}
		for j, g := range got[i].Samples {
			w := want[i].Samples[j]
			if g.T != w.T || math.Abs(g.V-w.V) > tol*math.Max(1, math.Abs(w.V)) {
				return false
			}
		}
	}
	return true
}

// deleteOracleRun drives one random interleaving of appends (on a
// monotonic 15 s clock), deletes with random matchers through both doors,
// ships, compactions, 5m and 1h downsampling and restarts of the head and
// the store against deleteModel. After every step the hot/cold querier's
// raw answer over all time equals the model's, and two range queries go
// through a range cache in Paranoid mode, which fails a splice that
// disagrees with the cold evaluation; after every compaction each block,
// read alone, holds exactly the model's samples or aggregates over its
// range. It returns how many deletes ran and how many tombstones retired.
func deleteOracleRun(t *testing.T, seed int64, shards, steps int) (deletes, retired int) {
	rng := rand.New(rand.NewSource(seed))
	walDir, storeDir := filepath.Join(t.TempDir(), "wal"), t.TempDir()
	open := func() (*tsdb.DB, *Store, *Sidecar) {
		db, err := tsdb.Open(tsdb.Options{WALDir: walDir, Shards: shards, WALSegmentSize: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		store, err := NewStore(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		return db, store, &Sidecar{DB: db, Store: store, HeadRetention: 20 * time.Minute}
	}
	db, store, sc := open()
	defer func() { db.Close(); store.Close() }()

	var pool []labels.Labels
	for i := 0; i < 12; i++ {
		pool = append(pool, labels.FromStrings(labels.MetricName, fmt.Sprintf("m%d", i%2), "job", string(rune('a'+i%3)), "uuid", fmt.Sprintf("u%d", i/3)))
	}
	matchers := [][]*labels.Matcher{
		{uuidIs("u0")}, {uuidIs("u1")}, {uuidIs("u3")},
		{labels.MustMatcher(labels.MatchRegexp, "job", "a|b")},
		{labels.MustMatcher(labels.MatchNotEqual, "uuid", "u1"), labels.MustMatcher(labels.MatchEqual, "job", "c")},
		{labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m1"), labels.MustMatcher(labels.MatchRegexp, "uuid", "u[0-2]")},
	}
	mdl := &deleteModel{series: map[string]*model.Series{}}
	clock := int64(0)
	eng := promql.NewEngine()
	newCache := func() *querycache.Cache {
		return querycache.New(querycache.Options{Head: db, Lookback: eng.LookbackDelta, Paranoid: true})
	}
	cache := newCache()
	all := labels.MustMatcher(labels.MatchRegexp, labels.MetricName, "m.")
	// A compaction is what makes blocks hold no sample a tombstone deletes.
	checkBlocks := func(what string) {
		store.mu.RLock()
		blocks := slices.Clone(store.blocks)
		store.mu.RUnlock()
		for _, b := range blocks {
			m := b.Meta()
			hints := model.SelectHints{Start: m.MinTime, End: m.MaxTime}
			want := mdl.want(m.MinTime, m.MaxTime)
			for _, aggr := range []tsdb.AggrType{tsdb.AggrRaw, tsdb.AggrSum, tsdb.AggrCount, tsdb.AggrMin, tsdb.AggrMax} {
				if (aggr == tsdb.AggrRaw) != (m.Resolution == 0) {
					continue
				}
				got, err := tsdb.Sources{Blocks: []*tsdb.PersistentBlock{b}, Aggr: aggr}.Select(hints, all)
				if err != nil {
					t.Fatal(err)
				}
				w := want
				if m.Resolution > 0 {
					w = buckets(want, m.Resolution, aggr)
				}
				if !sameModelSeries(got, w, 1e-9) {
					t.Fatalf("seed %d, %s: block %s (resolution %d, [%d, %d]) holds %v as %s, the model %v", seed, what, m.ULID, m.Resolution, m.MinTime, m.MaxTime, got, aggr, w)
				}
			}
		}
	}
	for step := 0; step < steps; step++ {
		now := time.UnixMilli(clock)
		op := rng.Intn(100)
		switch {
		case op < 70:
			clock += 15_000
			for _, l := range pool {
				if rng.Intn(10) < 7 {
					v := float64(rng.Intn(1000)) / 4
					if err := db.Append(l, clock, v); err != nil {
						t.Fatal(err)
					}
					mdl.add(l, clock, v)
				}
			}
		case op < 76:
			ms := matchers[rng.Intn(len(matchers))]
			maxt, ok := db.MaxTime()
			if !ok {
				continue
			}
			if rng.Intn(2) == 0 {
				db.DeleteSeries(ms...)
			} else if _, err := db.Delete(maxt, ms...); err != nil {
				t.Fatal(err)
			}
			mdl.deletes = append(mdl.deletes, tsdb.TombstoneRec{MaxT: maxt, Matchers: ms})
			deletes++
		case op < 84:
			before := len(db.Tombstones())
			if err := sc.Ship(now); err != nil {
				t.Fatal(err)
			}
			retired += before - len(db.Tombstones())
		case op < 90:
			if _, err := store.Compact(db.Tombstones()); err != nil {
				t.Fatal(err)
			}
			checkBlocks("after compaction")
		case op < 94:
			if _, err := store.Downsample(clock-10*time.Minute.Milliseconds(), 5*time.Minute); err != nil {
				t.Fatal(err)
			}
		case op < 97:
			if _, err := store.Downsample(clock-40*time.Minute.Milliseconds(), time.Hour); err != nil {
				t.Fatal(err)
			}
		default:
			// A restart: the process's first pass ships, as prometheus_sim's
			// maintenance loop does.
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			db, store, sc = open()
			if err := sc.Ship(now); err != nil {
				t.Fatal(err)
			}
			cache = newCache()
		}

		q := &Querier{Hot: db, Cold: store}
		got, err := q.SelectWithHints(model.SelectHints{Start: 0, End: clock}, all)
		if err != nil {
			t.Fatal(err)
		}
		if want := mdl.want(0, clock); !sameModelSeries(got, want, 0) {
			t.Fatalf("seed %d, %d shards, step %d (op %d): the querier answers\n%v\nthe model\n%v", seed, shards, step, op, got, want)
		}
		// Every tenth step the answers are held to the same engine over a
		// head holding the model alone: max_over_time reads the 5m
		// aggregates where the planner picks them, exactly.
		var modelDB *tsdb.DB
		if step%10 == 0 {
			modelDB = tsdb.MustOpen(tsdb.Options{Shards: 1})
			for _, s := range mdl.want(0, clock) {
				if err := modelDB.AppendSeries(s.Labels, s.Samples); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, rq := range []struct {
			expr string
			span time.Duration
			step time.Duration
		}{
			{`sum by (job) (count_over_time({__name__=~"m."}[5m]))`, 30 * time.Minute, time.Minute},
			{`max_over_time(m0[30m])`, 4 * time.Hour, 30 * time.Minute},
		} {
			end := now.Truncate(rq.step)
			eval := func(ctx context.Context, start, end time.Time, step time.Duration) (promql.Matrix, error) {
				return eng.RangeCtx(ctx, q, rq.expr, start, end, step)
			}
			got, _, err := cache.RangeQuery(context.Background(), rq.expr, end.Add(-rq.span), end, rq.step, eval, nil)
			if err != nil {
				t.Fatalf("seed %d, %d shards, step %d: %s: %v", seed, shards, step, rq.expr, err)
			}
			if modelDB == nil {
				continue
			}
			want, err := eng.RangeCtx(context.Background(), modelDB, rq.expr, end.Add(-rq.span), end, rq.step)
			if err != nil {
				t.Fatal(err)
			}
			if !querycache.EqualMatrix(got.Matrix, want) {
				t.Fatalf("seed %d, %d shards, step %d: %s answers\n%v\nover the model\n%v", seed, shards, step, rq.expr, got.Matrix, want)
			}
		}
	}
	if _, err := store.Compact(db.Tombstones()); err != nil {
		t.Fatal(err)
	}
	checkBlocks("at the end")
	return deletes, retired
}

// TestDeleteOracle runs deleteOracleRun at 1 and 16 shards over several
// seeds, and fails when the interleavings did not reach a delete and a
// retirement.
func TestDeleteOracle(t *testing.T) {
	seeds, steps := 3, 1000
	if testing.Short() {
		seeds, steps = 1, 600
	}
	for _, shards := range []int{1, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var deletes, retired int
			for seed := int64(1); seed <= int64(seeds); seed++ {
				d, r := deleteOracleRun(t, seed, shards, steps)
				deletes, retired = deletes+d, retired+r
			}
			t.Logf("%d deletes, %d retired", deletes, retired)
			if deletes == 0 || retired == 0 {
				t.Fatalf("%d deletes, %d retired: the interleavings reach too little", deletes, retired)
			}
		})
	}
}

// TestTombstoneLogRetiresOnlyWhatNothingHolds: a tombstone stays in the
// log while a block still holds a sample it deletes, even once the head is
// past its maxt, and retires at the first ship after the compaction that
// rewrote the block.
func TestTombstoneLogRetiresOnlyWhatNothingHolds(t *testing.T) {
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	store, _ := NewStore("")
	sc := &Sidecar{DB: db, Store: store, HeadRetention: time.Minute}
	a, b := labels.FromStrings("uuid", "a"), labels.FromStrings("uuid", "b")
	appendAt := func(lset labels.Labels, ts int64) {
		if err := db.Append(lset, ts, 1); err != nil {
			t.Fatal(err)
		}
	}
	for ts := int64(0); ts < 60_000; ts += 15_000 {
		appendAt(a, ts)
		appendAt(b, ts)
	}
	if err := sc.Ship(time.UnixMilli(60_000)); err != nil {
		t.Fatal(err)
	}
	db.DeleteSeries(uuidIs("a"))
	for ts := int64(60_000); ts < 600_000; ts += 15_000 {
		appendAt(b, ts)
	}
	if err := sc.Ship(time.UnixMilli(600_000)); err != nil {
		t.Fatal(err)
	}
	if oldest, _ := db.MinTime(); oldest <= 45_000 {
		t.Fatalf("the head's oldest sample is %d, not past the delete", oldest)
	}
	if n := len(db.Tombstones()); n != 1 {
		t.Fatalf("%d tombstones live while a block holds what the delete deletes, want 1", n)
	}
	if _, err := store.Compact(db.Tombstones()); err != nil {
		t.Fatal(err)
	}
	if err := sc.Ship(time.UnixMilli(615_000)); err != nil {
		t.Fatal(err)
	}
	if n := len(db.Tombstones()); n != 0 {
		t.Fatalf("%d tombstones live once nothing holds what they delete, want 0", n)
	}
	if got := rawOf(t, &Querier{Hot: db, Cold: store}, uuidIs("a")); len(got) != 0 {
		t.Fatalf("the querier serves %d samples of the deleted series after its tombstone retired", len(got))
	}
}

// TestTombstoneLogBounded: the API server's cleanups at the paper's scale,
// 20 000 units a day (RunScale's Jean-Zay churn), each short enough to be
// cleaned, so one tombstone per unit at every update pass (5 minutes, the
// updater's default), under the block store's maintenance pass every 15
// minutes for six hours. The live log never holds more than the cleanups of
// the head's retention, a pass and an update; at the end it holds only
// tombstones whose range still has data, and the checkpoints carry exactly
// the live log.
func TestTombstoneLogBounded(t *testing.T) {
	const (
		cadence    = 15 * time.Minute
		update     = 5 * time.Minute
		unitEvery  = int64(4320) // ms: 20 000 a day
		unitLength = int64(45_000)
	)
	walDir := t.TempDir()
	db, err := tsdb.Open(tsdb.Options{WALDir: walDir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	store, _ := NewStore("")
	sc := &Sidecar{DB: db, Store: store, HeadRetention: 2 * cadence}
	node := labels.FromStrings(labels.MetricName, "node_power", "instance", "n1")
	bound := int((sc.HeadRetention + cadence + update).Milliseconds() / unitEvery)
	cleaned, peak := int64(0), 0
	for ts := int64(15_000); ts <= 6*time.Hour.Milliseconds(); ts += 15_000 {
		if err := db.Append(node, ts, 100); err != nil {
			t.Fatal(err)
		}
		// Unit i runs for 45 s from i*unitEvery.
		for i := max(0, (ts-unitLength)/unitEvery+1); i*unitEvery <= ts; i++ {
			if err := db.Append(labels.FromStrings(labels.MetricName, "unit_power", "uuid", fmt.Sprint(i)), ts, 10); err != nil {
				t.Fatal(err)
			}
		}
		if ts%update.Milliseconds() == 0 {
			// Every unit that ended since the last pass, one delete each.
			for ; cleaned*unitEvery+unitLength <= ts; cleaned++ {
				if n := db.DeleteSeries(uuidIs(fmt.Sprint(cleaned))); n != 1 {
					t.Fatalf("cleanup of unit %d deleted %d series", cleaned, n)
				}
			}
		}
		if ts%cadence.Milliseconds() == 0 {
			if _, _, err := sc.Maintain(time.UnixMilli(ts), cadence); err != nil {
				t.Fatal(err)
			}
			n := len(db.Tombstones())
			if n > bound {
				t.Fatalf("at %v: %d live tombstones, more than the %d cleanups of the head's retention, a pass and an update", time.Duration(ts)*time.Millisecond, n, bound)
			}
			peak = max(peak, n)
		}
	}
	live := db.Tombstones()
	oldest, _ := db.MinTime()
	for _, tr := range live {
		if tr.MaxT < oldest && !slices.ContainsFunc(store.blocks, func(b *tsdb.PersistentBlock) bool { return b.HoldsDeleted([]tsdb.TombstoneRec{tr}) }) {
			t.Errorf("tombstone %d through %d is live with nothing to delete (head from %d)", tr.Seq, tr.MaxT, oldest)
		}
	}
	if cleaned < 4900 || peak < bound/2 || len(live) == 0 {
		t.Fatalf("%d cleanups, at most %d live tombstones, %d at the end: the run reached too little", cleaned, peak, len(live))
	}
	t.Logf("%d cleanups; at most %d live tombstones (bound %d), %d at the end", cleaned, peak, bound, len(live))
	if err := db.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	checkpoints, _ := filepath.Glob(filepath.Join(walDir, "shard-*", "checkpoint.snap"))
	for _, cp := range checkpoints {
		data, err := os.ReadFile(cp)
		if err != nil {
			t.Fatal(err)
		}
		var seqs []uint64
		for off := 5; off+9 <= len(data); {
			n := int(binary.LittleEndian.Uint32(data[off+1:]))
			if data[off] == 9 {
				seq, _ := binary.Uvarint(data[off+9:])
				seqs = append(seqs, seq)
			}
			off += 9 + n
		}
		if len(seqs) != len(live) {
			t.Fatalf("%s carries tombstones %v, the live log %d", cp, seqs, len(live))
		}
		for i, seq := range seqs {
			if seq != live[i].Seq {
				t.Fatalf("%s carries tombstones %v, the live log %+v", cp, seqs, live)
			}
		}
	}
}

// TestTombstoneLogConcurrentReads: reads through the hot/cold querier run
// while deletes change the log, compactions rewrite the blocks, ships cut
// and retire, and downsampling derives. Every read after a delete returned
// misses what it deleted; under -race, the log, the blocks' resolved
// deletions and the store's adopted log are shared safely.
func TestTombstoneLogConcurrentReads(t *testing.T) {
	db := tsdb.MustOpen(tsdb.Options{Shards: 4})
	store, _ := NewStore("")
	sc := &Sidecar{DB: db, Store: store, HeadRetention: 5 * time.Minute}
	q := &Querier{Hot: db, Cold: store}
	all := labels.MustMatcher(labels.MatchRegexp, "uuid", ".+")
	stop := make(chan struct{})
	done := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func() {
			for {
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
				if _, err := q.SelectWithHints(model.SelectHints{Start: 0, End: math.MaxInt64 / 2}, all); err != nil {
					done <- err
					return
				}
			}
		}()
	}
	clock := int64(0)
	for step := 0; step < 200; step++ {
		clock += 15_000
		for u := 0; u < 8; u++ {
			if err := db.Append(labels.FromStrings("uuid", fmt.Sprint(u)), clock, 1); err != nil {
				t.Fatal(err)
			}
		}
		switch step % 10 {
		case 3:
			victim := uuidIs(fmt.Sprint(step / 10 % 8))
			db.DeleteSeries(victim)
			if got := rawOf(t, q, victim); len(got) != 0 {
				t.Fatalf("step %d: a read after the delete returned %d of its samples", step, len(got))
			}
		case 5:
			if err := sc.Ship(time.UnixMilli(clock)); err != nil {
				t.Fatal(err)
			}
		case 7:
			if _, err := store.Compact(db.Tombstones()); err != nil {
				t.Fatal(err)
			}
		case 9:
			if _, err := store.Downsample(clock-5*time.Minute.Milliseconds(), 5*time.Minute); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	for r := 0; r < 2; r++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
