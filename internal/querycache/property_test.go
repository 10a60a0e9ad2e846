package querycache

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/tsdb"
)

// TestSpliceCorrectnessProperty is the splice-correctness property test:
// random sequences of (append progress, window, step, query) — with series
// deletions and retention pruning mixed in — must produce, through the
// cache, results byte-identical to a cold evaluation oracle. Paranoid mode
// is on, so every splice is additionally self-verified inside the cache.
// Every lookup renders with renderTV, and every hit and splice must hand back
// exactly renderTV of the cold result. The CI querycache job runs this under
// -race -count=2.
func TestSpliceCorrectnessProperty(t *testing.T) {
	trials, ops := 10, 150
	if testing.Short() {
		trials, ops = 3, 60
	}
	queries := []string{
		"p0",
		`p0{i="1"}`,
		"sum by (i) (p0)",
		"rate(p1[1m])",
		"sum(rate(p1[2m]))",
		"p0 + ignoring(i) group_left sum(p0)",
		"max_over_time(p0[45s])",
		"p0 > 0",
	}
	stepChoices := []int64{15_000, 30_000, 60_000}

	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)*7919 + 17))
			db := tsdb.MustOpen(tsdb.Options{MaxSamplesPerChunk: 60, Shards: 1 << rng.Intn(3)})
			eng := promql.NewEngine()
			cache := New(Options{
				MaxBytes: 1 << 21, Shards: 4,
				Head: db, Lookback: eng.LookbackDelta, Paranoid: true,
			})
			ctx := context.Background()

			now := int64(1_000_000_000)
			const tick = 15_000
			nSeries := 3 + rng.Intn(4)
			// Stragglers model the scrape pipeline's same-timestamp second
			// commit (and parallel targets sharing a millisecond): some
			// series hold their sample back and land it AT the current
			// watermark in a later op, with cache fills racing in between.
			type straggler struct {
				ls labels.Labels
				v  float64
			}
			var stragglers []straggler
			flushStragglers := func() {
				for _, s := range stragglers {
					if err := db.Append(s.ls, now, s.v); err != nil {
						t.Fatal(err)
					}
				}
				stragglers = stragglers[:0]
			}
			appendTick := func() {
				// Unflushed stragglers from the previous tick land first, so
				// appends never go strictly behind the watermark.
				flushStragglers()
				now += tick
				for i := 0; i < nSeries; i++ {
					// Series occasionally skip a scrape, so lookback gaps and
					// per-series raggedness are exercised; the global
					// watermark still only moves forward.
					if rng.Float64() < 0.08 {
						continue
					}
					g := labels.FromStrings(labels.MetricName, "p0", "i", fmt.Sprint(i))
					if rng.Float64() < 0.15 {
						stragglers = append(stragglers, straggler{g, float64(rng.Intn(1000)) - 200})
					} else if err := db.Append(g, now, float64(rng.Intn(1000))-200); err != nil {
						t.Fatal(err)
					}
					c := labels.FromStrings(labels.MetricName, "p1", "i", fmt.Sprint(i))
					if err := db.Append(c, now, float64(now/100+int64(i))); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 50; i++ {
				appendTick()
			}

			for op := 0; op < ops; op++ {
				switch r := rng.Float64(); {
				case r < 0.35: // head advances a few scrapes
					for i := 0; i < 1+rng.Intn(5); i++ {
						appendTick()
					}
				case r < 0.38: // same-timestamp second commit at the watermark
					flushStragglers()
				case r < 0.40 && op > 10: // destructive mutation
					db.DeleteSeries(labels.MustMatcher(labels.MatchEqual, "i", fmt.Sprint(rng.Intn(nSeries))))
				case r < 0.45: // retention pruning
					db.Truncate(now - int64(20+rng.Intn(40))*tick)
				default: // range query vs cold oracle
					q := queries[rng.Intn(len(queries))]
					step := stepChoices[rng.Intn(len(stepChoices))]
					endMs := now + int64(rng.Intn(5)-2)*tick // sometimes past the watermark
					startMs := endMs - int64(5+rng.Intn(40))*step
					start, end := model.MillisToTime(startMs), model.MillisToTime(endMs)
					stepDur := time.Duration(step) * time.Millisecond
					ans, outcome, err := cache.RangeQuery(ctx, q, start, end, stepDur,
						func(ctx context.Context, s, e time.Time, st time.Duration) (promql.Matrix, error) {
							return eng.RangeCtx(ctx, db, q, s, e, st)
						}, renderTV)
					got := ans.Matrix
					if err != nil {
						t.Fatalf("op %d: RangeQuery(%s) [%s]: %v", op, q, outcome, err)
					}
					want, err := eng.RangeCtx(ctx, db, q, start, end, stepDur)
					if err != nil {
						t.Fatalf("op %d: oracle: %v", op, err)
					}
					if !EqualMatrix(got, want) {
						t.Fatalf("op %d: %s over [%d..%d] step %d (%s) diverged from cold oracle:\n got %v\nwant %v",
							op, q, startMs, endMs, step, outcome, got, want)
					}
					if outcome == OutcomeHit || outcome == OutcomeSplice {
						if err := checkRendered(ans, want); err != nil {
							t.Fatalf("op %d: %s over [%d..%d] step %d (%s): %v", op, q, startMs, endMs, step, outcome, err)
						}
					}
				}
			}
			st := cache.Stats()
			if st.SpliceFails != 0 {
				t.Fatalf("paranoid verification failed %d times", st.SpliceFails)
			}
			if st.Hits+st.Splices == 0 {
				t.Fatalf("property run never reused the cache (stats %+v); workload too cold to prove anything", st)
			}
		})
	}
}

// renderTV is the tests' Render: a sample's time and value bits, so two
// renderings differ wherever the samples do.
func renderTV(b []byte, t int64, v float64) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(t))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// checkRendered reports how ans.Rendered differs from renderTV of want,
// series by series; a hit or a splice must carry a rendering.
func checkRendered(ans Range, want promql.Matrix) error {
	if ans.Rendered == nil {
		return fmt.Errorf("no rendering")
	}
	if len(ans.Rendered) != len(want) {
		return fmt.Errorf("%d rendered series, want %d", len(ans.Rendered), len(want))
	}
	for k, s := range want {
		var w []byte
		for _, p := range s.Samples {
			w = renderTV(w, p.T, p.V)
		}
		if !bytes.Equal(ans.Rendered[k], w) {
			return fmt.Errorf("series %s: rendered %x, want %x", s.Labels, ans.Rendered[k], w)
		}
	}
	return nil
}

// TestSpliceMergeProperty checks the sorted merge against the obvious
// construction — pool every part's series by label set, concatenate, sort —
// on random disjoint, increasing time windows in which any series may be
// missing from any part. Label values are drawn from a tiny alphabet and
// label sets of different lengths share prefixes, so neighbours in the sort
// order are one comparison step apart. The merge compares label sets and
// never hashes them, so two series can only be joined when their labels are
// equal. Parts come rendered and unrendered at random, and the merge's
// rendering must be renderTV of the oracle: kept bytes are copied to the
// right place, the rest rendered.
func TestSpliceMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 500; iter++ {
		// The universe of series, strictly sorted.
		set := map[string]labels.Labels{}
		for n := rng.Intn(9); n > 0; n-- {
			ls := labels.Labels{}
			for j, name := range []string{"a", "b", "c"}[:rng.Intn(4)] {
				ls = append(ls, labels.Label{Name: name, Value: fmt.Sprint(rng.Intn(2 + j))})
			}
			set[ls.String()] = ls
		}
		universe := make([]labels.Labels, 0, len(set))
		for _, ls := range set {
			universe = append(universe, ls)
		}
		sort.Slice(universe, func(i, j int) bool { return labels.Compare(universe[i], universe[j]) < 0 })

		parts := make([]part, 1+rng.Intn(3))
		want := map[string]*model.Series{}
		ts := int64(0)
		for k := range parts {
			steps := rng.Intn(4)
			for _, ls := range universe {
				if rng.Intn(3) == 0 {
					continue // absent from this part
				}
				var smp []model.Sample
				for s := 0; s < steps; s++ {
					if rng.Intn(4) > 0 {
						smp = append(smp, model.Sample{T: ts + int64(s)*15, V: rng.Float64()})
					}
				}
				if len(smp) == 0 {
					continue // evaluations and extractRange drop empty series
				}
				parts[k].m = append(parts[k].m, model.Series{Labels: ls, Samples: smp})
				w := want[ls.String()]
				if w == nil {
					w = &model.Series{Labels: ls}
					want[ls.String()] = w
				}
				w.Samples = append(w.Samples, smp...)
			}
			if rng.Intn(2) == 0 {
				// Rendered, and cut to its own window the way a cached
				// entry is: every series but the first starts mid-slab.
				parts[k].r = renderMatrix(renderTV, math.MaxInt64, parts[k].m)
				parts[k] = extractRange(parts[k], math.MinInt64, math.MaxInt64)
			}
			ts += int64(steps) * 15
		}
		oracle := make(promql.Matrix, 0, len(want))
		for _, s := range want {
			oracle = append(oracle, *s)
		}
		sort.Slice(oracle, func(i, j int) bool { return labels.Compare(oracle[i].Labels, oracle[j].Labels) < 0 })

		got := spliceMerge(renderTV, math.MaxInt64, parts...)
		if !EqualMatrix(got.m, oracle) {
			t.Fatalf("iter %d: merge of %v\n got %v\nwant %v", iter, parts, got.m, oracle)
		}
		if err := checkRendered(got.answer(renderTV), oracle); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !sameRendering(renderTV, got, oracle) {
			t.Fatalf("iter %d: rendering offsets differ from a fresh render", iter)
		}
		if plain := spliceMerge(nil, math.MaxInt64, parts...); !EqualMatrix(plain.m, oracle) || plain.r.off != nil {
			t.Fatalf("iter %d: merge without render: %v, rendered %v", iter, plain.m, plain.r.off != nil)
		}
		// The result owns its samples (label sets are shared, read-only):
		// scribbling on them leaves the parts intact.
		before := make([]promql.Matrix, len(parts))
		for k, p := range parts {
			before[k] = p.m.Clone()
		}
		for i := range got.m {
			for j := range got.m[i].Samples {
				got.m[i].Samples[j] = model.Sample{T: -1, V: -1}
			}
		}
		for i := range got.r.b {
			got.r.b[i] = 0xff
		}
		for k := range parts {
			if !EqualMatrix(parts[k].m, before[k]) {
				t.Fatalf("iter %d: mutating the merge result changed part %d", iter, k)
			}
			if parts[k].r.off != nil {
				if err := checkRendered(parts[k].answer(renderTV), before[k]); err != nil {
					t.Fatalf("iter %d: mutating the merge result changed part %d's rendering: %v", iter, k, err)
				}
			}
		}
	}
}
