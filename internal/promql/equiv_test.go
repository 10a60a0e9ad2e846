package promql

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/thanos"
	"repro/internal/tsdb"
)

// The differential property test: random PromQL over a random dataset,
// evaluated by the production (series-major) evaluator and by the per-step
// oracle, must agree bit for bit — values, timestamps, series order and
// whether the query errors at all — for range queries at several step
// geometries and for instant queries.
//
// The tier-1 size is a fixed seed and a few hundred expressions; `make
// promql-equiv` raises -equiv.exprs and, with no -equiv.seed, draws a new
// seed per run (logged, so a failure can be replayed).
var (
	equivExprs = flag.Int("equiv.exprs", 250, "random expressions per TestEvaluatorMatchesOracleRandom run")
	equivSeed  = flag.Int64("equiv.seed", 0, "generator seed; 0 means 1 at the default size, time-based otherwise")
)

const equivSpanS = 900 // the dataset covers [0, 900] s

// equivStorage builds the random dataset: gauges and counters at a jittered
// 15 s cadence with dropped scrapes, staleness markers followed by silence,
// counter resets, series that exist only for a stretch (churn), a few NaN
// and negative values, and two metric names carrying identical label sets
// so that name-dropping operators collapse them onto one output series.
func equivStorage(t testing.TB, rng *rand.Rand) *tsdb.DB {
	t.Helper()
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	for _, name := range []string{"g_a", "g_b", "c_a_total", "c_b_total"} {
		counter := strings.HasSuffix(name, "_total")
		for i := 0; i < 4; i++ {
			for j := 0; j < 2; j++ {
				if rng.Intn(8) == 0 {
					continue // this label combination does not exist for this name
				}
				ls := labels.FromStrings(labels.MetricName, name,
					"inst", fmt.Sprintf("i%d", i), "job", fmt.Sprintf("j%d", j),
					"zone", fmt.Sprintf("z%d", i%2))
				// Churn: a third of the series live only for a stretch.
				from, to := int64(0), int64(equivSpanS*1000)
				if rng.Intn(3) == 0 {
					from = rng.Int63n(equivSpanS * 500)
					to = from + rng.Int63n(equivSpanS*500) + 30_000
				}
				v := rng.Float64() * 100
				silentUntil := int64(-1)
				// g_b is scraped on the exact 15 s grid, so step times, window
				// edges and the lookback horizon land on samples; the rest jitter.
				exact := name == "g_b"
				if exact {
					from, to = from/15_000*15_000, to/15_000*15_000
				}
				for ts := from + rng.Int63n(4000); ts <= to; ts += 13_000 + rng.Int63n(4000) {
					if exact {
						ts = (ts + 7_500) / 15_000 * 15_000
					}
					if ts < silentUntil || rng.Intn(10) == 0 {
						continue // dropped scrape
					}
					if rng.Intn(25) == 0 {
						// The target lost the series: marker, then silence.
						if err := db.Append(ls, ts, model.StaleNaN()); err != nil {
							t.Fatal(err)
						}
						silentUntil = ts + rng.Int63n(200_000)
						continue
					}
					switch {
					case counter && rng.Intn(20) == 0:
						v = rng.Float64() * 5 // reset
					case counter:
						v += rng.Float64() * 50
					default:
						v = rng.Float64()*200 - 50
						if rng.Intn(40) == 0 {
							v = math.NaN()
						}
					}
					if err := db.Append(ls, ts, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	return db
}

// exprGen draws random expressions as query text, so the parser and its
// type checks are part of what is exercised.
type exprGen struct{ rng *rand.Rand }

func (g *exprGen) pick(ss ...string) string { return ss[g.rng.Intn(len(ss))] }

func (g *exprGen) duration() string { return g.pick("30s", "1m", "2m", "5m", "10m") }

func (g *exprGen) number() string {
	return g.pick("0", "1", "2", "0.5", "3", "10", "100", "-1", "0.9", "1e3")
}

func (g *exprGen) labelList() string {
	all := []string{"inst", "job", "zone", "nosuch"}
	g.rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return strings.Join(all[:g.rng.Intn(3)], ", ")
}

func (g *exprGen) selector() string {
	name := g.pick("g_a", "g_b", "c_a_total", "c_b_total", "nosuch_metric")
	var ms []string
	if g.rng.Intn(6) == 0 {
		// Several names through one selector: derived series collapse.
		ms = append(ms, `__name__=~"`+g.pick("g_a|g_b", "c_.*", "g_a|c_a_total", ".+")+`"`)
		name = ""
	}
	for _, l := range []string{"inst", "job", "zone"} {
		if g.rng.Intn(4) != 0 {
			continue
		}
		val := map[string][]string{
			"inst": {"i0", "i1", "i2", "i3"}, "job": {"j0", "j1"}, "zone": {"z0", "z1"},
		}[l]
		switch g.rng.Intn(4) {
		case 0:
			ms = append(ms, fmt.Sprintf(`%s="%s"`, l, g.pick(val...)))
		case 1:
			ms = append(ms, fmt.Sprintf(`%s!="%s"`, l, g.pick(val...)))
		case 2:
			ms = append(ms, fmt.Sprintf(`%s=~"%s|%s"`, l, g.pick(val...), g.pick(val...)))
		default:
			ms = append(ms, fmt.Sprintf(`%s!~"%s"`, l, g.pick(val...)))
		}
	}
	if name == "" || len(ms) > 0 {
		name += "{" + strings.Join(ms, ",") + "}"
	}
	return name
}

func (g *exprGen) offset() string {
	if g.rng.Intn(5) == 0 {
		return " offset " + g.pick("30s", "1m", "5m")
	}
	return ""
}

func (g *exprGen) matching(group bool) string {
	if g.rng.Intn(3) == 0 {
		return ""
	}
	m := g.pick("on", "ignoring") + " (" + g.labelList() + ")"
	if group && g.rng.Intn(2) == 0 {
		// Always with an include list: a bare group_left before "(" would
		// swallow the parenthesised operand as one.
		m += " " + g.pick("group_left", "group_right") + " (" + g.pick("", "", "job", "zone", "inst", "nosuch") + ")"
	}
	return m
}

func (g *exprGen) scalar(depth int) string {
	switch n := g.rng.Intn(10); {
	case depth <= 0 || n < 5:
		return g.number()
	case n == 5:
		return "time()"
	case n == 6:
		return "scalar(" + g.vector(depth-1) + ")"
	case n == 7:
		return "(" + g.scalar(depth-1) + " " + g.pick("+", "-", "*", "/", "%", "^") + " " + g.scalar(depth-1) + ")"
	case n == 8:
		return "(" + g.scalar(depth-1) + " " + g.pick("==", "!=", "<", ">", "<=", ">=") + " bool " + g.scalar(depth-1) + ")"
	default:
		return "-" + g.scalar(depth-1)
	}
}

func (g *exprGen) vector(depth int) string {
	if depth <= 0 {
		return g.selector() + g.offset()
	}
	arith := []string{"+", "-", "*", "/", "%", "^"}
	cmp := []string{"==", "!=", "<", ">", "<=", ">="}
	switch g.rng.Intn(17) {
	case 0:
		return g.selector() + g.offset()
	case 1, 2:
		fn := g.pick("rate", "irate", "increase", "delta", "idelta", "deriv", "changes", "resets",
			"avg_over_time", "sum_over_time", "min_over_time", "max_over_time",
			"count_over_time", "last_over_time", "stddev_over_time")
		return fmt.Sprintf("%s(%s[%s]%s)", fn, g.selector(), g.duration(), g.offset())
	case 3:
		return fmt.Sprintf("quantile_over_time(%s, %s[%s]%s)", g.pick("0.5", "0.9", "0", "1", "1.5", "-1"), g.selector(), g.duration(), g.offset())
	case 4, 5, 6:
		op := g.pick("sum", "avg", "min", "max", "count", "group", "stddev", "stdvar")
		param := ""
		switch g.rng.Intn(6) {
		case 0:
			op, param = g.pick("topk", "bottomk"), g.pick("1", "2", "3", "0", "100")+", "
			if g.rng.Intn(4) == 0 {
				param = g.scalar(depth-1) + ", "
			}
		case 1:
			op, param = "quantile", g.pick("0.5", "0.9", "0", "1", "2")+", "
		}
		mod := ""
		if g.rng.Intn(4) != 0 {
			mod = " " + g.pick("by", "without") + " (" + g.labelList() + ")"
		}
		return fmt.Sprintf("%s%s (%s%s)", op, mod, param, g.vector(depth-1))
	case 7:
		return fmt.Sprintf("(%s %s %s %s)", g.vector(depth-1), g.pick(arith...), g.matching(true), g.vector(depth-1))
	case 8:
		b := ""
		if g.rng.Intn(2) == 0 {
			b = " bool"
		}
		return fmt.Sprintf("(%s %s%s %s %s)", g.vector(depth-1), g.pick(cmp...), b, g.matching(true), g.vector(depth-1))
	case 9:
		return fmt.Sprintf("(%s %s %s %s)", g.vector(depth-1), g.pick("and", "or", "unless"), g.matching(false), g.vector(depth-1))
	case 10:
		op := g.pick(append(arith, cmp...)...)
		if strings.ContainsAny(op, "=<>") && g.rng.Intn(2) == 0 {
			op += " bool"
		}
		if g.rng.Intn(2) == 0 {
			return fmt.Sprintf("(%s %s %s)", g.scalar(depth-1), op, g.vector(depth-1))
		}
		return fmt.Sprintf("(%s %s %s)", g.vector(depth-1), op, g.scalar(depth-1))
	case 11:
		return "-" + g.vector(depth-1)
	case 12:
		fn := g.pick("abs", "ceil", "floor", "exp", "ln", "log2", "log10", "sqrt", "timestamp", "absent")
		return fn + "(" + g.vector(depth-1) + ")"
	case 15:
		// Operators whose vector order varies by step, under whatever
		// consumes them next.
		return g.pick("sort", "sort_desc") + "(" + g.vector(depth-1) + ")"
	case 13:
		switch g.rng.Intn(5) {
		case 0:
			return "round(" + g.vector(depth-1) + ")"
		case 1:
			return "round(" + g.vector(depth-1) + ", " + g.scalar(depth-1) + ")"
		case 2:
			return "clamp(" + g.vector(depth-1) + ", " + g.scalar(depth-1) + ", " + g.scalar(depth-1) + ")"
		case 3:
			return g.pick("clamp_min", "clamp_max") + "(" + g.vector(depth-1) + ", " + g.scalar(depth-1) + ")"
		default:
			return "vector(" + g.scalar(depth-1) + ")"
		}
	case 14:
		if g.rng.Intn(2) == 0 {
			return fmt.Sprintf(`label_replace(%s, "%s", "%s", "%s", "%s")`, g.vector(depth-1),
				g.pick("zone", "dst", "inst"), g.pick("x-$1", "$1", "const", ""), g.pick("inst", "job", "nosuch"),
				g.pick("(.*)", "i(\\d)", "j0", "nomatch"))
		}
		return fmt.Sprintf(`label_join(%s, "%s", "%s", "%s", "%s")`, g.vector(depth-1),
			g.pick("dst", "inst"), g.pick("-", ""), g.pick("inst", "job"), g.pick("zone", "nosuch"))
	default:
		return "(" + g.vector(depth-1) + ")"
	}
}

type equivGeometry struct {
	startS, endS int64
	step         time.Duration
}

var equivGeometries = []equivGeometry{
	{0, 600, 15 * time.Second},    // aligned with the nominal scrape grid
	{0, 890, 47 * time.Second},    // misaligned step
	{103, 553, 30 * time.Second},  // misaligned start
	{880, 1400, 40 * time.Second}, // runs past the end of data, through and beyond lookback
	{300, 300, 15 * time.Second},  // single step
	{1, 899, 7 * time.Second},     // 129 steps: presence bitmaps span several words
}

// evalPair is two ways of answering one parsed query that must agree.
type evalPair struct {
	rangeWant, rangeGot     func(expr Expr, start, end time.Time, step time.Duration) (Matrix, error)
	instantWant, instantGot func(expr Expr, ts time.Time) (Value, error)
	// geometries are the range queries to compare; nil means equivGeometries.
	geometries []equivGeometry
}

// check evaluates q both ways, as a range query at every geometry and as an
// instant query at a few times, and reports any difference in results or in
// error-ness.
func (p evalPair) check(t *testing.T, q string, rng *rand.Rand) {
	t.Helper()
	expr, err := ParseExpr(q)
	if err != nil {
		t.Fatalf("generator produced unparsable %q: %v", q, err)
	}
	geometries := p.geometries
	if geometries == nil {
		geometries = equivGeometries
	}
	for _, g := range geometries {
		start := model.MillisToTime(g.startS * 1000)
		end := model.MillisToTime(g.endS * 1000)
		step := g.step
		want, wantErr := p.rangeWant(expr, start, end, step)
		got, gotErr := p.rangeGot(expr, start, end, step)
		if (wantErr != nil) != (gotErr != nil) {
			t.Errorf("%s %+v: error mismatch:\n got  %v\n want %v", q, g, gotErr, wantErr)
			continue
		}
		if wantErr == nil && !matrixIdentical(got, want) {
			t.Errorf("%s %+v:\n got  %v\n want %v", q, g, got, want)
		}
	}
	for i := 0; i < 3; i++ {
		ts := model.MillisToTime(rng.Int63n((equivSpanS + 400) * 1000))
		want, wantErr := p.instantWant(expr, ts)
		got, gotErr := p.instantGot(expr, ts)
		if (wantErr != nil) != (gotErr != nil) {
			t.Errorf("%s @%v: error mismatch:\n got  %v\n want %v", q, ts, gotErr, wantErr)
			continue
		}
		if wantErr == nil && !valueIdentical(got, want) {
			t.Errorf("%s @%v:\n got  %v\n want %v", q, ts, got, want)
		}
	}
}

// checkEquivalent holds the production evaluator to the per-step oracle on
// one storage.
func checkEquivalent(t *testing.T, eng *Engine, db Queryable, q string, rng *rand.Rand) {
	t.Helper()
	evalPair{
		rangeWant: func(expr Expr, start, end time.Time, step time.Duration) (Matrix, error) {
			return eng.rangeExprNaive(db, expr, start, end, step)
		},
		rangeGot: func(expr Expr, start, end time.Time, step time.Duration) (Matrix, error) {
			return eng.RangeExpr(db, expr, start, end, step)
		},
		instantWant: func(expr Expr, ts time.Time) (Value, error) { return eng.instantNaive(db, expr, ts) },
		instantGot:  func(expr Expr, ts time.Time) (Value, error) { return eng.InstantExpr(db, expr, ts) },
	}.check(t, q, rng)
}

// checkSameAnswers holds one evaluator to the same answers on two storages.
func checkSameAnswers(t *testing.T, eng *Engine, want, got Queryable, q string, rng *rand.Rand) {
	t.Helper()
	on := func(db Queryable) (func(Expr, time.Time, time.Time, time.Duration) (Matrix, error), func(Expr, time.Time) (Value, error)) {
		return func(expr Expr, start, end time.Time, step time.Duration) (Matrix, error) {
				return eng.RangeExpr(db, expr, start, end, step)
			}, func(expr Expr, ts time.Time) (Value, error) {
				return eng.InstantExpr(db, expr, ts)
			}
	}
	var p evalPair
	p.rangeWant, p.instantWant = on(want)
	p.rangeGot, p.instantGot = on(got)
	p.check(t, q, rng)
}

// valueIdentical is bit-exact equality of instant results, vector order
// included.
func valueIdentical(a, b Value) bool {
	switch av := a.(type) {
	case Scalar:
		bv, ok := b.(Scalar)
		return ok && av.T == bv.T && math.Float64bits(av.V) == math.Float64bits(bv.V)
	case Vector:
		bv, ok := b.(Vector)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !av[i].Labels.Equal(bv[i].Labels) || av[i].T != bv[i].T ||
				math.Float64bits(av[i].V) != math.Float64bits(bv[i].V) {
				return false
			}
		}
		return true
	case Matrix:
		bv, ok := b.(Matrix)
		return ok && matrixIdentical(av, bv)
	case String:
		return a == b
	}
	return false
}

// equivRun is the seed and the expression generator of one random run.
func equivRun(t *testing.T) (*rand.Rand, *exprGen) {
	seed := *equivSeed
	if seed == 0 {
		seed = 1
		if *equivExprs != 250 {
			seed = time.Now().UnixNano()
		}
	}
	t.Logf("seed %d, %d expressions (replay with -args -equiv.seed=%d -equiv.exprs=%d)", seed, *equivExprs, seed, *equivExprs)
	rng := rand.New(rand.NewSource(seed))
	return rng, &exprGen{rng: rng}
}

// query draws one root expression.
func (g *exprGen) query() string {
	q := g.vector(1 + g.rng.Intn(3))
	switch g.rng.Intn(16) {
	case 0, 1:
		q = g.scalar(1 + g.rng.Intn(3))
	case 2:
		// A value-ordered root: what emission must honour.
		q = g.pick("sort(", "sort_desc(", "topk by (job) (3, ", "bottomk(2, ") + q + ")"
	}
	return q
}

func TestEvaluatorMatchesOracleRandom(t *testing.T) {
	rng, gen := equivRun(t)
	eng := NewEngine()
	var db *tsdb.DB
	errored := 0
	for i := 0; i < *equivExprs; i++ {
		if i%100 == 0 {
			db = equivStorage(t, rng) // a fresh dataset every hundred expressions
		}
		q := gen.query()
		checkEquivalent(t, eng, db, q, rng)
		if t.Failed() {
			t.Fatalf("first divergence at expression %d", i)
		}
		if _, err := eng.Instant(db, q, model.MillisToTime(450_000)); err != nil {
			errored++
		}
	}
	// The generator must mostly produce queries that evaluate: agreement on
	// "both fail" proves little.
	if errored*2 > *equivExprs {
		t.Errorf("%d of %d generated expressions error at t=450s; the generator is too wild", errored, *equivExprs)
	}
}

// TestHotColdSeamMatchesOracleRandom: the same random PromQL through the
// hot/cold seam. [0, cut] of the dataset is cut into a block store at a
// random cut, once with the head left whole (every cold sample is also hot)
// and once with the head truncated to the cut (chunks straddling it still
// overlap); a thanos.Querier over either pair must answer exactly as the
// uncut head does — the oracle here — for Range at every geometry and for
// Instant.
func TestHotColdSeamMatchesOracleRandom(t *testing.T) {
	rng, gen := equivRun(t)
	eng := NewEngine()
	var whole *tsdb.DB
	var seams []*thanos.Querier
	for i := 0; i < *equivExprs; i++ {
		if i%100 == 0 {
			whole = equivStorage(t, rng)
			seams = hotColdSeams(t, rng, whole, 0)
		}
		q := gen.query()
		for _, seam := range seams {
			checkSameAnswers(t, eng, whole, seam, q, rng)
		}
		if t.Failed() {
			t.Fatalf("first divergence at expression %d", i)
		}
	}
}

// allSeries reads every sample of db.
func allSeries(t *testing.T, db *tsdb.DB) []model.Series {
	t.Helper()
	all, err := db.Select(math.MinInt64, math.MaxInt64, labels.MustMatcher(labels.MatchRegexp, labels.MetricName, ".*"))
	if err != nil {
		t.Fatal(err)
	}
	return all
}

// headOf holds series in a new head of the given shard count and chunk size.
func headOf(t *testing.T, all []model.Series, shards, perChunk int) *tsdb.DB {
	t.Helper()
	db := tsdb.MustOpen(tsdb.Options{Shards: shards, MaxSamplesPerChunk: perChunk})
	for _, sr := range all {
		if err := db.AppendSeries(sr.Labels, sr.Samples); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// hotColdSeams cuts [0, cut] of whole, at a random cut, into a block store
// twice — downsampled to the given resolution too, when it is not 0: once
// with the head left whole (every cold sample is also hot) and once with the
// head truncated to the cut (chunks straddling it still overlap). It returns
// a thanos.Querier over either pair.
func hotColdSeams(t *testing.T, rng *rand.Rand, whole *tsdb.DB, downsample time.Duration) []*thanos.Querier {
	t.Helper()
	all := allSeries(t, whole)
	cut := rng.Int63n(equivSpanS * 1000)
	var seams []*thanos.Querier
	for _, truncate := range []bool{false, true} {
		// Eight samples to a chunk, so that truncation finds closed chunks to
		// drop.
		hot := headOf(t, all, 4, 8)
		cold, err := thanos.NewStore("")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cold.CutHead(hot, 0, cut); err != nil {
			t.Fatal(err)
		}
		if downsample > 0 {
			if _, err := cold.Downsample(1<<60, downsample); err != nil {
				t.Fatal(err)
			}
		}
		if truncate {
			hot.Truncate(cut + 1)
		}
		seams = append(seams, &thanos.Querier{Hot: hot, Cold: cold})
	}
	return seams
}

// TestShardCountMatchesOracleRandom: the same random PromQL over the same
// dataset held in a 1-shard head — the single-lock layout, the oracle here —
// and in a 16-shard head. Which shard a series hashes to, and so the order
// the shards' partial selects are merged in, must not show in any answer,
// Range at every geometry or Instant.
func TestShardCountMatchesOracleRandom(t *testing.T) {
	rng, gen := equivRun(t)
	eng := NewEngine()
	var heads [2]*tsdb.DB
	for i := 0; i < *equivExprs; i++ {
		if i%100 == 0 {
			all := allSeries(t, equivStorage(t, rng))
			for k, shards := range []int{1, 16} {
				heads[k] = headOf(t, all, shards, 120)
			}
		}
		checkSameAnswers(t, eng, heads[0], heads[1], gen.query(), rng)
		if t.Failed() {
			t.Fatalf("first divergence at expression %d", i)
		}
	}
}

// multiCutSeam cuts [0, cut] of whole into a block store at a random cut,
// as several raw blocks ending at random times — seldom on a bucket
// boundary — with the store downsampled to res after every cut and
// compacted at the end, and returns a thanos.Querier over it and the head
// truncated to the cut.
func multiCutSeam(t *testing.T, rng *rand.Rand, whole *tsdb.DB, res time.Duration) *thanos.Querier {
	t.Helper()
	hot := headOf(t, allSeries(t, whole), 4, 8)
	cold, err := thanos.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	cut := rng.Int63n(equivSpanS * 1000)
	for from, i, n := int64(0), 0, 2+rng.Intn(5); i < n && from <= cut; i++ {
		to := from + rng.Int63n(cut-from+1)
		if i == n-1 {
			to = cut
		}
		if _, err := cold.CutHead(hot, from, to); err != nil {
			t.Fatal(err)
		}
		if _, err := cold.Downsample(1<<60, res); err != nil {
			t.Fatal(err)
		}
		from = to + 1
	}
	if _, err := cold.Compact(nil); err != nil {
		t.Fatal(err)
	}
	hot.Truncate(cut + 1)
	return &thanos.Querier{Hot: hot, Cold: cold}
}

// TestDownsampleEligibleMatchesOracleRandom: the planner's choice of
// resolution against reads forced raw. [0, cut] of the dataset is cut at a
// random cut into a block store downsampled to 1m, read alone and as the
// cold side of the hot/cold seam at both truncations; and cut into several
// raw blocks at random times, downsampled after each cut and compacted
// (multiCutSeam), read alone and behind the truncated seam. Random min_over_time,
// max_over_time and sum_over_time queries, bare or under an aggregation,
// run as range queries on bucket-aligned grids — every step time a bucket's
// last millisecond, every step 5m or more, every range whole minutes — so
// that aggregates are eligible, once with the hints as sent and once with
// Func stripped, the oracle. min and max agree to the bit; a sum within float
// re-association: 1e-9 of the larger magnitude, or of 1. Plain NaN values are
// dropped from the dataset, since a bucket's min or max keeps a NaN that
// comes first and the evaluator's min_over_time and max_over_time pass over
// it. Some eligible reads must have been served from aggregates.
func TestDownsampleEligibleMatchesOracleRandom(t *testing.T) {
	rng, gen := equivRun(t)
	eng := NewEngine()
	var (
		stores           []Queryable
		aggregated, read int // eligible reads, and those aggregates served
	)
	for i := 0; i < *equivExprs; i++ {
		if i%100 == 0 {
			whole := withoutNaN(t, equivStorage(t, rng))
			seams := hotColdSeams(t, rng, whole, time.Minute)
			multi := multiCutSeam(t, rng, whole, time.Minute)
			stores = []Queryable{seams[0], seams[1], seams[1].Cold, multi, multi.Cold}
		}
		q := fmt.Sprintf("%s(%s[%dm])", gen.pick("min_over_time", "max_over_time", "sum_over_time"), gen.selector(), 1+rng.Intn(10))
		if rng.Intn(2) == 0 {
			q = gen.pick("sum", "min", "max") + " by (" + gen.labelList() + ") (" + q + ")"
		}
		expr, err := ParseExpr(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		step := time.Duration(5+rng.Intn(11)) * time.Minute
		start := model.MillisToTime(rng.Int63n(20)*60_000 + 59_999)
		end := start.Add(time.Duration(rng.Intn(5)) * step)
		rel := 0.0
		if strings.Contains(q, "sum") {
			rel = 1e-9
		}
		for k, db := range stores {
			want, wantErr := eng.RangeExpr(funcStripped{db}, expr, start, end, step)
			got, gotErr := eng.RangeExpr(aggrCounter{db, &aggregated, &read}, expr, start, end, step)
			if wantErr != nil || gotErr != nil {
				t.Fatalf("%s on store %d: errors %v, %v", q, k, gotErr, wantErr)
			}
			if !matrixClose(got, want, rel) {
				t.Errorf("%s on store %d, [%v, %v] step %v:\n got  %v\n want %v", q, k, start, end, step, got, want)
			}
		}
		if t.Failed() {
			t.Fatalf("first divergence at expression %d", i)
		}
	}
	t.Logf("%d of %d eligible reads served from aggregates", aggregated, read)
	if aggregated == 0 {
		t.Errorf("none of %d eligible reads was served from aggregates", read)
	}
}

// withoutNaN holds db's series in a new head with their plain NaN values
// dropped; staleness markers stay.
func withoutNaN(t *testing.T, db *tsdb.DB) *tsdb.DB {
	t.Helper()
	all := allSeries(t, db)
	for i := range all {
		all[i].Samples = slices.DeleteFunc(slices.Clone(all[i].Samples), func(s model.Sample) bool {
			return math.IsNaN(s.V) && !model.IsStaleNaN(s.V)
		})
	}
	return headOf(t, all, 1, 120)
}

// funcStripped reads its store with the consuming function dropped from the
// hints: every read is served raw.
type funcStripped struct{ Queryable }

func (s funcStripped) SelectWithHints(h model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	h.Func = ""
	return s.Queryable.SelectWithHints(h, ms...)
}

// aggrCounter counts the reads of its store that aggregates may serve, and
// those they did: where the same read forced raw returns another number of
// samples.
type aggrCounter struct {
	Queryable
	aggregated, eligible *int
}

func (c aggrCounter) SelectWithHints(h model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	out, err := c.Queryable.SelectWithHints(h, ms...)
	raw, rawErr := funcStripped{c.Queryable}.SelectWithHints(h, ms...)
	if err == nil && rawErr == nil && h.Func != "" {
		*c.eligible++
		if countSamples(out) != countSamples(raw) {
			*c.aggregated++
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

// matrixClose is matrixIdentical with values allowed to differ by rel of the
// larger of their magnitudes and 1.
func matrixClose(a, b Matrix, rel float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Labels.Equal(b[i].Labels) || len(a[i].Samples) != len(b[i].Samples) {
			return false
		}
		for j, sa := range a[i].Samples {
			sb := b[i].Samples[j]
			if sa.T != sb.T {
				return false
			}
			if same := math.Float64bits(sa.V) == math.Float64bits(sb.V); !same && !(math.Abs(sa.V-sb.V) <= rel*max(1, math.Abs(sa.V), math.Abs(sb.V))) {
				return false
			}
		}
	}
	return true
}

// trimGeometries are equivGeometries plus steps wider than the dataset's
// cadence and than most range windows, where reads trim the most, and a step
// of a fractional millisecond, whose step times drift off any millisecond
// grid storage could trim to — by 83 ms at the first of its 94 steps, about
// the scrape cadence apart, so steps often fall between two close samples.
var trimGeometries = append(equivGeometries[:len(equivGeometries):len(equivGeometries)],
	equivGeometry{0, 900, 2 * time.Minute},
	equivGeometry{13, 1400, 5 * time.Minute},
	equivGeometry{0, 1300, 10 * time.Minute},
	equivGeometry{0, 1400, 15*time.Second + 900*time.Microsecond},
)

// hintStripped reads its store with every hint but the window and the
// sample budget dropped: it answers as a store that trims nothing.
type hintStripped struct{ Queryable }

func (s hintStripped) SelectWithHints(h model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	return s.Queryable.SelectWithHints(model.SelectHints{Start: h.Start, End: h.End, SampleLimit: h.SampleLimit}, ms...)
}

// TestHintTrimMatchesOracleRandom: the same random PromQL over each store
// read with its hints as sent — trimmed to the samples the steps look at
// (SelectHints.Lookback) — and read with them stripped, the oracle here: a
// head, the hot/cold seam at both truncations and a 16-shard head, Range at
// every geometry of trimGeometries and Instant. Without a budget the answers
// agree to the bit; under a random budget a trimmed query may fail only where
// the untrimmed one fails too, and where both answer they agree.
func TestHintTrimMatchesOracleRandom(t *testing.T) {
	rng, gen := equivRun(t)
	eng := NewEngine()
	var stores []Queryable
	var kept, read int // samples the unbudgeted reads returned, trimmed and not
	for i := 0; i < *equivExprs; i++ {
		if i%100 == 0 {
			whole := equivStorage(t, rng)
			stores = []Queryable{whole, headOf(t, allSeries(t, whole), 16, 120)}
			for _, seam := range hotColdSeams(t, rng, whole, 0) {
				stores = append(stores, seam)
			}
		}
		q := gen.query()
		budgeted := *eng
		budgeted.MaxSamples = 1 + rng.Intn(2000)
		for _, db := range stores {
			trimmed, full := countedReads{db, &kept}, hintStripped{countedReads{db, &read}}
			evalPair{
				rangeWant: func(expr Expr, start, end time.Time, step time.Duration) (Matrix, error) {
					return eng.RangeExpr(full, expr, start, end, step)
				},
				rangeGot: func(expr Expr, start, end time.Time, step time.Duration) (Matrix, error) {
					return eng.RangeExpr(trimmed, expr, start, end, step)
				},
				instantWant: func(expr Expr, ts time.Time) (Value, error) { return eng.InstantExpr(full, expr, ts) },
				instantGot:  func(expr Expr, ts time.Time) (Value, error) { return eng.InstantExpr(trimmed, expr, ts) },
				geometries:  trimGeometries,
			}.check(t, q, rng)
			checkTrimmedBudget(t, &budgeted, db, q, rng)
		}
		if t.Failed() {
			t.Fatalf("first divergence at expression %d", i)
		}
	}
	t.Logf("trimmed reads returned %d samples, untrimmed %d", kept, read)
	if kept >= read {
		t.Errorf("trimmed reads returned %d samples, untrimmed %d: nothing was trimmed", kept, read)
	}
}

// countedReads adds up the samples its store returns.
type countedReads struct {
	Queryable
	samples *int
}

func (c countedReads) SelectWithHints(h model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	out, err := c.Queryable.SelectWithHints(h, ms...)
	for _, s := range out {
		*c.samples += len(s.Samples)
	}
	return out, err
}

// checkTrimmedBudget evaluates q on db under eng's sample budget, trimmed
// and untrimmed, at every geometry of trimGeometries and at one instant:
// the trimmed run may fail only where the untrimmed run fails too, over the
// budget only where that one is over it as well (an untrimmed run over
// budget can hide a query error the trimmed run then meets); where both
// answer, they agree to the bit.
func checkTrimmedBudget(t *testing.T, eng *Engine, db Queryable, q string, rng *rand.Rand) {
	t.Helper()
	expr, err := ParseExpr(q)
	if err != nil {
		t.Fatalf("generator produced unparsable %q: %v", q, err)
	}
	compare := func(what string, want, got Value, wantErr, gotErr error) {
		switch {
		case gotErr != nil && wantErr == nil:
			t.Errorf("%s %s budget %d: trimmed run failed where the untrimmed one answered: %v", q, what, eng.MaxSamples, gotErr)
		case IsLimitError(gotErr) && !IsLimitError(wantErr):
			t.Errorf("%s %s budget %d: trimmed run failed with %v, untrimmed with %v", q, what, eng.MaxSamples, gotErr, wantErr)
		case gotErr == nil && wantErr == nil && !valueIdentical(got, want):
			t.Errorf("%s %s budget %d:\n got  %v\n want %v", q, what, eng.MaxSamples, got, want)
		}
	}
	for _, g := range trimGeometries {
		start, end := model.MillisToTime(g.startS*1000), model.MillisToTime(g.endS*1000)
		want, wantErr := eng.RangeExpr(hintStripped{db}, expr, start, end, g.step)
		got, gotErr := eng.RangeExpr(db, expr, start, end, g.step)
		compare(fmt.Sprintf("%+v", g), want, got, wantErr, gotErr)
	}
	ts := model.MillisToTime(rng.Int63n((equivSpanS + 400) * 1000))
	want, wantErr := eng.InstantExpr(hintStripped{db}, expr, ts)
	got, gotErr := eng.InstantExpr(db, expr, ts)
	compare(fmt.Sprintf("@%v", ts), want, got, wantErr, gotErr)
}

// TestInstantMatrixAndStringMatchOracle covers the two instant result
// shapes a range query cannot have.
func TestInstantMatrixAndStringMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := equivStorage(t, rng)
	eng := NewEngine()
	for _, q := range []string{`g_a[5m]`, `(c_a_total{inst="i1"}[2m] offset 1m)`, `{__name__=~"g_.*"}[10m]`, `"hello"`, `("x")`} {
		expr, err := ParseExpr(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		for _, atS := range []int64{0, 300, 451, 900, 1300} {
			ts := model.MillisToTime(atS * 1000)
			want, wantErr := eng.instantNaive(db, expr, ts)
			got, gotErr := eng.InstantExpr(db, expr, ts)
			if (wantErr != nil) != (gotErr != nil) || (wantErr == nil && !valueIdentical(got, want)) {
				t.Errorf("%s @%ds:\n got  %v, %v\n want %v, %v", q, atS, got, gotErr, want, wantErr)
			}
		}
	}
}

// TestStepOrderMatchesOracle pins the operators that consume a vector whose
// order varies by step (sort, topk) or that must break label ties the way
// an unstable per-step sort does — rare enough that the random test at its
// tier-1 size may not draw them.
func TestStepOrderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := equivStorage(t, rng)
	eng := NewEngine()
	for _, q := range []string{
		`sum(sort(g_a))`,
		`avg by (zone) (sort_desc(g_a * 1.1))`,
		`stddev(sort(g_a))`,
		`quantile(0.5, sort_desc(g_a))`,
		`min(sort(g_b))`,
		`topk(2, sort_desc(g_a))`,
		`sum by (job) (sort(g_a) or g_b)`,
		`sum(g_b or sort(g_a))`,
		`sort(g_a) or g_b`,
		`sort(g_a) and g_b`,
		`sort_desc(g_a) unless g_b{zone="z0"}`,
		`sum(sort(g_a) > 20)`,
		`-sort(g_a)`,
		`scalar(sort(g_a{inst="i1",job="j0"}))`,
		`absent(sort(nosuch_metric))`,
		`label_replace(sort(g_a), "inst", "x", "inst", ".*")`,
		`sort_desc({__name__=~"g_a|g_b"} * 2)`,
		`sort(rate({__name__=~"c_.*"}[2m]))`,
		`topk(3, {__name__=~"g_a|g_b"} + 0)`,
		`bottomk by (zone) (2, abs({__name__=~"g_a|g_b"}))`,
		`sum(topk(3, {__name__=~"g_a|g_b"} + 0))`,
		`{__name__=~"g_a|g_b"} * on (inst, job) group_left () c_a_total`,
		`sort({__name__=~"g_a|g_b"}) * on (inst, job) group_left () c_a_total`,
		`c_a_total / on (inst, job) group_right (zone) sort_desc({__name__=~"g_a|g_b"})`,
		`sum by (inst) ({__name__=~"g_a|g_b"} * on (inst, job) group_left () c_a_total)`,
		`rate({__name__=~"c_.*"}[1m]) or g_a`,
	} {
		checkEquivalent(t, eng, db, q, rng)
	}
}
