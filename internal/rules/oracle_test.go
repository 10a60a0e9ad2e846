package rules_test

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
	"repro/internal/promql"
	"repro/internal/rules"
	"repro/internal/rules/ceemsrules"
	"repro/internal/rules/rulefeed"
	"repro/internal/tsdb"
)

// The differential oracle for group evaluation: the per-rule Instant →
// per-sample Append loop rules.Engine ran before it evaluated a group from
// one plan, kept verbatim as the reference. Its one departure from that
// code is the key of the staleness state, (group, rule index) where the old
// engine used the record name and so let rules sharing a name stale-mark
// each other's output.

const defaultEquivGroups = 6

var (
	equivGroups = flag.Int("equiv.groups", defaultEquivGroups, "random rule-group sets per TestGroupEvalMatchesOracle run")
	equivSeed   = flag.Int64("equiv.seed", 0, "generator seed; 0 means 1 at the default size, time-based otherwise")
)

type oracleEngine struct {
	promql *promql.Engine
	seen   map[string]map[uint64][]labels.Labels
}

func newOracle() *oracleEngine {
	return &oracleEngine{promql: promql.NewEngine(), seen: map[string]map[uint64][]labels.Labels{}}
}

func (e *oracleEngine) evalAll(groups []*rules.Group, q promql.Queryable, dst rules.Appender, ts time.Time) error {
	var firstErr error
	for _, g := range groups {
		if err := e.evalGroup(g, q, dst, ts); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (e *oracleEngine) evalGroup(g *rules.Group, q promql.Queryable, dst rules.Appender, ts time.Time) error {
	var firstErr error
	for i, r := range g.Rules {
		_, err := e.evalRule(fmt.Sprintf("%s/%d", g.Name, i), &r, q, dst, ts)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("rules: group %s rule %s: %w", g.Name, r.Record, err)
		}
	}
	return firstErr
}

func (e *oracleEngine) evalRule(key string, r *rules.Rule, q promql.Queryable, dst rules.Appender, ts time.Time) (int, error) {
	val, err := e.promql.Instant(q, r.Expr, ts)
	if err != nil {
		return 0, err
	}
	var vec promql.Vector
	switch v := val.(type) {
	case promql.Vector:
		vec = v
	case promql.Scalar:
		vec = promql.Vector{{Labels: labels.Labels{}, T: v.T, V: v.V}}
	default:
		return 0, fmt.Errorf("rule result must be vector or scalar, got %s", val.Type())
	}
	n := 0
	cur := make(map[uint64][]labels.Labels, len(vec))
	evalTS := ts.UnixMilli()
	for _, s := range vec {
		b := labels.NewBuilder(s.Labels)
		b.Set(labels.MetricName, r.Record)
		for k, v := range r.Labels {
			b.Set(k, v)
		}
		ls := b.Labels()
		if err := dst.Append(ls, s.T, s.V); err != nil {
			return n, err
		}
		h := ls.Hash()
		cur[h] = append(cur[h], ls)
		n++
	}
	// Staleness markers for series this rule produced last time but not
	// now (e.g. a completed job's uuid:host_watts).
	prev := e.seen[key]
	e.seen[key] = cur
	for h, bucket := range prev {
		for _, ls := range bucket {
			if !slices.ContainsFunc(cur[h], ls.Equal) {
				dst.Append(ls, evalTS, model.StaleNaN())
			}
		}
	}
	return n, nil
}

// plainDest hides everything but Append, so rule evaluation takes its
// one-by-one fallback.
type plainDest struct{ db *tsdb.DB }

func (p plainDest) Append(l labels.Labels, t int64, v float64) error { return p.db.Append(l, t, v) }

// equivPair is one head evaluated by the oracle and one by rules.Engine,
// fed the same raw samples.
type equivPair struct {
	oracleDB, planDB *tsdb.DB
	oracle           *oracleEngine
	engine           *rules.Engine
	planDest         rules.Appender
}

func newEquivPair(t *testing.T, shards int, batch bool) *equivPair {
	t.Helper()
	open := func() *tsdb.DB {
		opts := tsdb.DefaultOptions()
		opts.Shards = shards
		db, err := tsdb.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	p := &equivPair{oracleDB: open(), planDB: open(), oracle: newOracle(), engine: rules.NewEngine(nil)}
	p.planDest = plainDest{p.planDB}
	if batch {
		p.planDest = p.planDB
	}
	return p
}

// add feeds one raw sample to both heads.
func (p *equivPair) add(ls labels.Labels, ts int64, v float64) {
	p.oracleDB.Append(ls, ts, v)
	p.planDB.Append(ls, ts, v)
}

// evalAndCompare evaluates the groups on both sides at ts and fails unless
// both report an error or neither does and the two heads hold the same
// series with the same samples, bit for bit.
func (p *equivPair) evalAndCompare(t *testing.T, groups []*rules.Group, ts time.Time) {
	t.Helper()
	errO := p.oracle.evalAll(groups, p.oracleDB, p.oracleDB, ts)
	var errP error
	for _, g := range groups {
		if err := p.engine.EvalGroup(g, p.planDB, p.planDest, ts); err != nil && errP == nil {
			errP = err
		}
	}
	if (errO == nil) != (errP == nil) {
		t.Fatalf("at %s: oracle error %v, plan error %v", ts.Format(time.TimeOnly), errO, errP)
	}
	want, got := dumpHead(t, p.oracleDB), dumpHead(t, p.planDB)
	for i := 0; i < len(want) || i < len(got); i++ {
		if i >= len(want) || i >= len(got) || want[i] != got[i] {
			w, g := "(nothing)", "(nothing)"
			if i < len(want) {
				w = want[i]
			}
			if i < len(got) {
				g = got[i]
			}
			t.Fatalf("at %s: heads differ at line %d of %d/%d:\noracle %s\nplan   %s", ts.Format(time.TimeOnly), i, len(want), len(got), w, g)
		}
	}
}

// dumpHead renders every series of the head, one line each, values as bits
// so staleness markers and NaNs compare exactly.
func dumpHead(t *testing.T, db *tsdb.DB) []string {
	t.Helper()
	all, err := db.Select(math.MinInt64/2, math.MaxInt64/2, labels.MustMatcher(labels.MatchRegexp, labels.MetricName, ".+"))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(all))
	var b strings.Builder
	for i, s := range all {
		b.Reset()
		b.WriteString(s.Labels.String())
		for _, smp := range s.Samples {
			fmt.Fprintf(&b, " %d:%016x", smp.T, math.Float64bits(smp.V))
		}
		out[i] = b.String()
	}
	return out
}

var equivConfigs = []struct {
	shards int
	batch  bool
}{{1, true}, {1, false}, {16, true}, {16, false}}

const (
	equivRounds = 24
	equivT0     = int64(1_700_000_000_000)
)

func TestGroupEvalMatchesOracle(t *testing.T) {
	seed := *equivSeed
	if seed == 0 {
		seed = 1
		if *equivGroups != defaultEquivGroups {
			seed = time.Now().UnixNano()
		}
	}
	t.Logf("seed %d, %d group sets (replay with -args -equiv.seed=%d -equiv.groups=%d)", seed, *equivGroups, seed, *equivGroups)
	for _, cfg := range equivConfigs {
		name := fmt.Sprintf("shards=%d/batch=%v", cfg.shards, cfg.batch)
		t.Run("random/"+name, func(t *testing.T) {
			for n := 0; n < *equivGroups; n++ {
				runRandomGroups(t, seed+int64(n), cfg.shards, cfg.batch)
			}
		})
		t.Run("ceems/"+name, func(t *testing.T) {
			runCEEMSGroups(t, seed, cfg.shards, cfg.batch)
		})
	}
}

// runCEEMSGroups drives ceemsrules.AllGroups over a small fleet whose jobs
// end, start and come back.
func runCEEMSGroups(t *testing.T, seed int64, shards int, batch bool) {
	rng := rand.New(rand.NewSource(seed))
	p := newEquivPair(t, shards, batch)
	fleet := rulefeed.New(8, 2)
	groups := ceemsrules.AllGroups(ceemsrules.DefaultOptions())
	type job struct {
		instance int
		uuid     string
	}
	var live, gone []job
	for i := 0; i < fleet.Instances(); i++ {
		for j := 0; j < 2; j++ {
			live = append(live, job{i, fmt.Sprintf("n%04d-j%d", i, j)})
		}
	}
	ts := equivT0
	for i := 0; i < 8; i++ { // history for the rate windows
		fleet.Scrape(ts, p.add)
		ts += 15000
	}
	for round := 0; round < equivRounds; round++ {
		switch k := rng.Intn(4); {
		case k == 0 && len(live) > 0:
			i := rng.Intn(len(live))
			fleet.EndJob(live[i].instance, live[i].uuid)
			gone = append(gone, live[i])
			live = slices.Delete(live, i, i+1)
		case k == 1 && len(gone) > 0:
			i := rng.Intn(len(gone))
			fleet.StartJob(gone[i].instance, gone[i].uuid)
			live = append(live, gone[i])
			gone = slices.Delete(gone, i, i+1)
		case k == 2:
			j := job{rng.Intn(fleet.Instances()), fmt.Sprintf("new-%d", round)}
			fleet.StartJob(j.instance, j.uuid)
			live = append(live, j)
		}
		for i := 0; i < 4; i++ {
			fleet.Scrape(ts, p.add)
			ts += 15000
		}
		p.evalAndCompare(t, groups, model.MillisToTime(ts-15000))
	}
}

// Raw series of the random legs: raw_a and raw_b per key k (g groups the
// keys in threes), flip_l per g, and flip_r per g with a second series on
// odd rounds that makes `flip_l * on (g) flip_r` fail every other round.
func rawSeries(name, k string) labels.Labels {
	return labels.FromStrings(labels.MetricName, name, "k", k, "g", "g"+string(k[len(k)-1]%3+'0'))
}

// runRandomGroups generates one to three groups of chained rules and
// evaluates them for equivRounds rounds while raw series come, go (with and
// without a staleness marker) and return.
func runRandomGroups(t *testing.T, seed int64, shards int, batch bool) {
	rng := rand.New(rand.NewSource(seed))
	groups := randomGroups(rng)
	p := newEquivPair(t, shards, batch)
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}
	present := map[string]bool{}
	for _, k := range keys {
		present[k] = rng.Intn(4) > 0
	}
	ts := equivT0
	for round := 0; round < equivRounds; round++ {
		for _, k := range keys {
			if rng.Intn(5) == 0 {
				present[k] = !present[k]
				if !present[k] && rng.Intn(2) == 0 {
					p.add(rawSeries("raw_a", k), ts, model.StaleNaN())
					p.add(rawSeries("raw_b", k), ts, model.StaleNaN())
					// the other half just stops and ages out of the lookback
				}
			}
		}
		for half := 0; half < 2; half++ {
			ts += 30000
			sec := float64(ts-equivT0) / 1000
			for i, k := range keys {
				if present[k] {
					p.add(rawSeries("raw_a", k), ts, sec*float64(i+1))
					p.add(rawSeries("raw_b", k), ts, 100+float64((int(sec)/30+i)%7))
				}
			}
			for g := 0; g < 3; g++ {
				gl := fmt.Sprintf("g%d", g)
				p.add(labels.FromStrings(labels.MetricName, "flip_l", "g", gl), ts, float64(g+1))
				p.add(labels.FromStrings(labels.MetricName, "flip_r", "g", gl, "side", "a"), ts, 2)
			}
			twin := labels.FromStrings(labels.MetricName, "flip_r", "g", "g0", "side", "b")
			if round%2 == 1 {
				p.add(twin, ts, 3)
			} else if round > 0 && half == 0 {
				p.add(twin, ts, model.StaleNaN())
			}
		}
		p.evalAndCompare(t, groups, model.MillisToTime(ts))
	}
}

// randomGroups builds groups whose rules read raw series and each other:
// chains and fan-in through bare selectors, range and offset selectors on
// recorded names, a regexp over recorded names, duplicate record names
// (told apart by a rule label; label names are unique per rule so no two
// results collapse to one recorded label set), scalar rules and the
// alternately failing rule. Names are unique across groups; later groups also read earlier
// groups' records, from storage.
func randomGroups(rng *rand.Rand) []*rules.Group {
	var groups []*rules.Group
	var earlier []string // names recorded by earlier groups
	for gi := 0; gi < 1+rng.Intn(3); gi++ {
		g := &rules.Group{Name: fmt.Sprintf("g%d", gi)}
		var mine []string
		nRules := 4 + rng.Intn(9)
		for ri := 0; ri < nRules; ri++ {
			name := fmt.Sprintf("rec_%d_%d", gi, ri)
			pool := append([]string{"raw_a", "raw_b"}, earlier...)
			pool = append(pool, mine...)
			pool = append(pool, mine...) // favour in-group reads
			if rng.Intn(6) == 0 {
				pool = append(pool, fmt.Sprintf("rec_%d_%d", gi, ri+1+rng.Intn(3)), name) // a later rule, itself
			}
			x, y := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			r := rules.Rule{Record: name}
			kind := rng.Intn(16)
			if r.Labels != nil {
				// Only over results whose label sets the expression fixes: a
				// rule that passed its input's labels through could meet its
				// own label on the way back round and collapse two results
				// into one recorded label set.
				kind = []int{2, 5, 10, 12, 13}[rng.Intn(5)]
			}
			switch kind {
			case 0:
				r.Expr = x
			case 1:
				r.Expr = fmt.Sprintf(`%s{k=~"k1|k2|k5|k6"}`, x)
			case 2:
				r.Expr = fmt.Sprintf(`sum by (g) (%s)`, x)
			case 3:
				r.Expr = fmt.Sprintf(`%s * 2 + 1`, x)
			case 4:
				r.Expr = fmt.Sprintf(`%s + on (k) group_left %s`, x, y)
			case 5:
				r.Expr = fmt.Sprintf(`sum by (g) (%s) / on (g) sum by (g) (%s)`, x, y)
			case 6:
				r.Expr = fmt.Sprintf(`rate(%s[3m])`, x)
			case 7:
				r.Expr = fmt.Sprintf(`max_over_time(%s[2m])`, x)
			case 8:
				r.Expr = fmt.Sprintf(`avg_over_time(%s[5m]) - %s offset 1m`, x, x)
			case 9:
				r.Expr = fmt.Sprintf(`%s offset 2m`, x)
			case 10:
				r.Expr = fmt.Sprintf(`count by (g) ({__name__=~"rec_%d_.*|raw_b"})`, gi)
			case 11:
				r.Expr = fmt.Sprintf(`%s or %s`, x, y)
			case 12:
				r.Expr = fmt.Sprintf(`scalar(count(%s)) * 3`, x)
			case 13:
				r.Expr = fmt.Sprintf(`%d + time() / 1000`, ri)
			case 14:
				r.Expr = `flip_l * on (g) flip_r`
			case 15:
				r.Expr = fmt.Sprintf(`%s unless %s{g="g1"}`, x, y)
			}
			g.Rules = append(g.Rules, r)
			mine = append(mine, r.Record)
		}
		groups = append(groups, g)
		earlier = append(earlier, mine...)
	}
	return groups
}
