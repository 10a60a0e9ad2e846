package rules

import (
	"context"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/tsdb"
)

func seedDB(t *testing.T) *tsdb.DB {
	t.Helper()
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	for i := int64(0); i <= 20; i++ {
		ts := i * 15000
		if err := db.Append(labels.FromStrings(labels.MetricName, "energy_joules_total", "node", "n1"), ts, float64(i)*1500); err != nil {
			t.Fatal(err)
		}
		if err := db.Append(labels.FromStrings(labels.MetricName, "energy_joules_total", "node", "n2"), ts, float64(i)*3000); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestEvalGroupWritesRecords(t *testing.T) {
	db := seedDB(t)
	g := &Group{
		Name: "energy",
		Rules: []Rule{
			{Record: "node:power_watts", Expr: `rate(energy_joules_total[2m])`},
			{Record: "cluster:power_watts", Expr: `sum(rate(energy_joules_total[2m]))`,
				Labels: map[string]string{"cluster": "jz"}},
		},
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	eng := NewEngine(nil)
	ts := model.MillisToTime(300 * 1000)
	if err := eng.EvalGroup(g, db, db, ts); err != nil {
		t.Fatalf("EvalGroup: %v", err)
	}
	// Per-node records.
	got, _ := db.Select(0, 1<<60, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "node:power_watts"))
	if len(got) != 2 {
		t.Fatalf("node records = %d", len(got))
	}
	if v := got[0].Samples[0].V; v != 100 { // 1500 J per 15 s
		t.Errorf("n1 power = %v, want 100", v)
	}
	// Aggregate record with static label.
	got, _ = db.Select(0, 1<<60, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "cluster:power_watts"))
	if len(got) != 1 {
		t.Fatalf("cluster records = %d", len(got))
	}
	if got[0].Labels.Get("cluster") != "jz" {
		t.Errorf("static label missing: %v", got[0].Labels)
	}
	if v := got[0].Samples[0].V; v != 300 {
		t.Errorf("cluster power = %v, want 300", v)
	}
	// Stats recorded.
	st := eng.Stats()["energy"]
	if st.EvalCount != 1 || st.SeriesLastWrite != 3 || st.FailureCount != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []Group{
		{Name: "", Rules: []Rule{{Record: "r", Expr: "1"}}},
		{Name: "g", Rules: []Rule{{Record: "", Expr: "1"}}},
		{Name: "g", Rules: []Rule{{Record: "r", Expr: "sum("}}},
	}
	for i, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestEvalGroupContinuesOnError(t *testing.T) {
	db := seedDB(t)
	g := &Group{
		Name: "mixed",
		Rules: []Rule{
			// label_replace with bad regex fails at eval time.
			{Record: "bad", Expr: `label_replace(energy_joules_total, "a", "$1", "b", "(")`},
			{Record: "good", Expr: `energy_joules_total`},
		},
	}
	eng := NewEngine(nil)
	err := eng.EvalGroup(g, db, db, model.MillisToTime(300*1000))
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("expected error mentioning rule, got %v", err)
	}
	// Second rule still ran.
	got, _ := db.Select(0, 1<<60, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "good"))
	if len(got) != 2 {
		t.Errorf("good rule did not run: %d series", len(got))
	}
	if eng.Stats()["mixed"].FailureCount != 1 {
		t.Errorf("failure not recorded")
	}
}

func TestScalarRule(t *testing.T) {
	db := seedDB(t)
	g := &Group{Name: "s", Rules: []Rule{{Record: "answer", Expr: "6 * 7"}}}
	eng := NewEngine(nil)
	if err := eng.EvalGroup(g, db, db, model.MillisToTime(1000)); err != nil {
		t.Fatal(err)
	}
	got, _ := db.Select(0, 1<<60, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "answer"))
	if len(got) != 1 || got[0].Samples[0].V != 42 {
		t.Errorf("scalar rule = %+v", got)
	}
}

func TestManagerEvalAll(t *testing.T) {
	db := seedDB(t)
	m := &Manager{
		Engine: NewEngine(nil),
		Query:  db,
		Dest:   db,
		Groups: []*Group{
			{Name: "b", Rules: []Rule{{Record: "r1", Expr: "1"}}},
			{Name: "a", Rules: []Rule{{Record: "r2", Expr: "2"}}},
		},
	}
	if err := m.EvalAll(model.MillisToTime(1000)); err != nil {
		t.Fatalf("EvalAll: %v", err)
	}
	for _, rec := range []string{"r1", "r2"} {
		got, _ := db.Select(0, 1<<60, labels.MustMatcher(labels.MatchEqual, labels.MetricName, rec))
		if len(got) != 1 {
			t.Errorf("%s not written", rec)
		}
	}
	names := m.SortedGroupNames()
	if names[0] != "a" || names[1] != "b" {
		t.Errorf("sorted names = %v", names)
	}
}

// Rules chained across evaluations: rule 2 reads rule 1's output from the
// previous EvalAll.
func TestChainedRulesAcrossIntervals(t *testing.T) {
	db := seedDB(t)
	m := &Manager{
		Engine: NewEngine(nil),
		Query:  db,
		Dest:   db,
		Groups: []*Group{{
			Name: "chain",
			Rules: []Rule{
				{Record: "lvl1", Expr: `sum(energy_joules_total)`},
				{Record: "lvl2", Expr: `lvl1 * 2`},
			},
		}},
	}
	// First eval: lvl1 written; lvl2 sees nothing yet (same timestamp
	// lookback does include lvl1 written in the same pass at an earlier
	// wall moment? No: lvl1's sample carries ts, and lvl2's selector reads
	// storage at the same ts — the appended sample is visible).
	if err := m.EvalAll(model.MillisToTime(300 * 1000)); err != nil {
		t.Fatalf("EvalAll: %v", err)
	}
	got, _ := db.Select(0, 1<<60, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "lvl2"))
	if len(got) != 1 {
		t.Fatalf("lvl2 missing")
	}
	want := (20*1500.0 + 20*3000.0) * 2
	if got[0].Samples[0].V != want {
		t.Errorf("lvl2 = %v, want %v", got[0].Samples[0].V, want)
	}
}

func BenchmarkEvalGroup(b *testing.B) {
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	for n := 0; n < 100; n++ {
		ls := labels.FromStrings(labels.MetricName, "energy_joules_total", "node", string(rune('a'+n%26))+string(rune('0'+n/26)))
		for i := int64(0); i <= 20; i++ {
			db.Append(ls, i*15000, float64(i)*1500)
		}
	}
	g := &Group{Name: "g", Rules: []Rule{
		{Record: "node:power", Expr: `rate(energy_joules_total[2m])`},
		{Record: "total:power", Expr: `sum(rate(energy_joules_total[2m]))`},
	}}
	eng := NewEngine(nil)
	ts := model.MillisToTime(300 * 1000)
	sink := tsdb.MustOpen(tsdb.DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.EvalGroup(g, db, &tsShift{sink, int64(i)}, ts); err != nil {
			b.Fatal(err)
		}
	}
}

// tsShift offsets appends so repeated benchmark iterations do not collide
// on out-of-order timestamps.
type tsShift struct {
	db  *tsdb.DB
	off int64
}

func (s *tsShift) Append(l labels.Labels, t int64, v float64) error {
	return s.db.Append(l, t+s.off, v)
}

var _ promql.Queryable = (*tsdb.DB)(nil)
var _ Appender = (*tsdb.DB)(nil)
var _ = time.Second

// stubStore answers every Select with the series named in live (one sample
// each, at the query's end) and records what the rule engine appends.
type stubStore struct {
	live []string
	got  []string
}

func (s *stubStore) SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	var out []model.Series
	for _, k := range s.live {
		out = append(out, model.Series{
			Labels:  labels.FromStrings(labels.MetricName, "m", "k", k),
			Samples: []model.Sample{{T: hints.End, V: 1}},
		})
	}
	return out, nil
}

func (s *stubStore) Append(l labels.Labels, t int64, v float64) error {
	row := l.Get("k") + " 1"
	if model.IsStaleNaN(v) {
		row = l.Get("k") + " stale"
	}
	s.got = append(s.got, row)
	return nil
}

// Rule-output staleness was tracked under ls.Hash() alone, so two outputs of
// one rule whose hashes collide shared a slot and one never got its marker.
// Each vanished output gets its own marker; the forced-equal-hash half of
// this check is the shared cache's own test (labels.TestSeriesCacheMatchesOracle).
func TestRuleStalenessSurvivesHashCollision(t *testing.T) {
	eng := NewEngine(nil)
	g := &Group{Name: "g", Rules: []Rule{{Record: "r", Expr: `m`}}}
	st := &stubStore{}
	eval := func(at int64, live ...string) []string {
		t.Helper()
		st.live, st.got = live, nil
		if err := eng.EvalGroup(g, st, st, model.MillisToTime(at)); err != nil {
			t.Fatal(err)
		}
		sort.Strings(st.got)
		return st.got
	}
	eval(15000, "a", "b", "c")
	// One of three outputs vanishes: it, and only it, is marked.
	if got, want := eval(30000, "a", "c"), []string{"a 1", "b stale", "c 1"}; !slices.Equal(got, want) {
		t.Errorf("one vanished: got %v, want %v", got, want)
	}
	// Both remaining vanish at once: two markers, not one.
	if got, want := eval(45000), []string{"a stale", "c stale"}; !slices.Equal(got, want) {
		t.Errorf("both vanished: got %v, want %v", got, want)
	}
	// Markers are emitted once.
	if got := eval(60000); len(got) != 0 {
		t.Errorf("nothing live, nothing seen: got %v", got)
	}
}

// Two rules may record the same name (usually with different labels), in
// one group or in two. Staleness state used to be keyed by the record name,
// so each treated the other's output as its own previous round and
// stale-marked it at every evaluation.
func TestDuplicateRecordNamesDoNotStaleEachOther(t *testing.T) {
	db := seedDB(t)
	groups := []*Group{
		{Name: "a", Rules: []Rule{
			{Record: "power", Expr: `sum(energy_joules_total)`, Labels: map[string]string{"src": "a0"}},
			{Record: "power", Expr: `max(energy_joules_total)`, Labels: map[string]string{"src": "a1"}},
		}},
		{Name: "b", Rules: []Rule{
			{Record: "power", Expr: `min(energy_joules_total)`, Labels: map[string]string{"src": "b0"}},
		}},
	}
	eng := NewEngine(nil)
	for round := int64(0); round < 3; round++ {
		for _, g := range groups {
			if err := eng.EvalGroup(g, db, db, model.MillisToTime(300_000+round*60_000)); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, _ := db.Select(0, 1<<60, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "power"))
	if len(got) != 3 {
		t.Fatalf("power series = %d, want 3", len(got))
	}
	for _, s := range got {
		if len(s.Samples) != 3 {
			t.Errorf("%s: %d samples, want one per round", s.Labels, len(s.Samples))
		}
		for _, smp := range s.Samples {
			if model.IsStaleNaN(smp.V) {
				t.Errorf("%s: stale marker at %d though the rule produced it every round", s.Labels, smp.T)
			}
		}
	}
}

// A commit the head only partly takes — here the whole group re-evaluated at
// a timestamp it already wrote — is a failed evaluation, not a silent skip.
func TestPartlyRefusedCommitIsReported(t *testing.T) {
	for _, batch := range []bool{true, false} {
		db := seedDB(t)
		var dst Appender = db
		if !batch {
			dst = appendOnly{db}
		}
		g := &Group{Name: "g", Rules: []Rule{
			{Record: "node:power", Expr: `rate(energy_joules_total[2m])`},
			{Record: "total:power", Expr: `sum(node:power)`},
		}}
		eng := NewEngine(nil)
		ts := model.MillisToTime(300 * 1000)
		if err := eng.EvalGroup(g, db, dst, ts); err != nil {
			t.Fatal(err)
		}
		err := eng.EvalGroup(g, db, dst, ts)
		if err == nil || !strings.Contains(err.Error(), "3 of 3 samples refused") {
			t.Errorf("batch=%v: re-evaluation at a written ts: err = %v", batch, err)
		}
		st := eng.Stats()["g"]
		if st.EvalCount != 2 || st.FailureCount != 1 || !strings.Contains(st.LastError, "refused") {
			t.Errorf("batch=%v: stats = %+v", batch, st)
		}
		// The next round lands whole again.
		if err := eng.EvalGroup(g, db, dst, ts.Add(time.Minute)); err != nil {
			t.Errorf("batch=%v: next round: %v", batch, err)
		}
	}
}

// appendOnly hides a DB's batch capability.
type appendOnly struct{ db *tsdb.DB }

func (a appendOnly) Append(l labels.Labels, t int64, v float64) error { return a.db.Append(l, t, v) }

// The labelling and staleness bookkeeping of a rule's output is cache hits
// and appends into reused buffers: in steady state it allocates nothing,
// however many series the rule produces.
func TestSteadyStateAllocsIndependentOfOutputs(t *testing.T) {
	allocs := func(n int) float64 {
		vec := make(promql.Vector, n)
		for i := range vec {
			vec[i] = promql.Sample{Labels: labels.FromStrings("instance", "n1", "uuid", strconv.Itoa(i)), T: 1000, V: float64(i)}
		}
		p := newGroupPlan(&Group{Name: "g", Rules: []Rule{{Record: "r", Expr: "1", Labels: map[string]string{"cluster": "jz"}}}})
		v := &p.view
		stage := func() {
			v.reset(nil, 1000)
			if stale := p.rules[0].stage(vec, v); stale != 0 || len(v.samples) != n {
				t.Fatalf("staged %d samples, %d markers; want %d, 0", len(v.samples), stale, n)
			}
		}
		stage() // fills the cache and sizes the buffers
		return testing.AllocsPerRun(10, stage)
	}
	small, large := allocs(500), allocs(1000)
	if small != 0 || large != 0 {
		t.Errorf("allocations per steady-state evaluation: %v for 500 outputs, %v for 1000; want 0 for both", small, large)
	}
}

// Manager.Run evaluates its groups concurrently against one Engine; two
// groups recording the same name share nothing but the engine's group table
// and the head. Run under -race.
func TestManagerRunConcurrentGroups(t *testing.T) {
	db := seedDB(t)
	var mu sync.Mutex
	clock := model.MillisToTime(300 * 1000)
	var failures []error
	m := &Manager{
		Engine: NewEngine(nil), Query: db, Dest: db,
		Groups: []*Group{
			{Name: "a", Interval: time.Millisecond, Rules: []Rule{
				{Record: "power", Expr: `sum(energy_joules_total)`, Labels: map[string]string{"src": "a"}},
				{Record: "power:twice", Expr: `power * 2`},
			}},
			{Name: "b", Interval: time.Millisecond, Rules: []Rule{
				{Record: "power", Expr: `max(energy_joules_total)`, Labels: map[string]string{"src": "b"}},
			}},
		},
		// Every evaluation gets its own millisecond, so no commit is refused.
		Now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			clock = clock.Add(time.Millisecond)
			return clock
		},
		OnError: func(err error) {
			mu.Lock()
			defer mu.Unlock()
			failures = append(failures, err)
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { m.Run(ctx); close(done) }()
	for {
		st := m.Engine.Stats()
		if st["a"].EvalCount >= 20 && st["b"].EvalCount >= 20 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	if len(failures) > 0 {
		t.Fatalf("%d evaluations failed, first: %v", len(failures), failures[0])
	}
	got, _ := db.Select(0, 1<<60, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "power"))
	if len(got) != 2 {
		t.Fatalf("power series = %d, want 2", len(got))
	}
	for _, s := range got {
		for _, smp := range s.Samples {
			if model.IsStaleNaN(smp.V) {
				t.Fatalf("%s: stale marker at %d", s.Labels, smp.T)
			}
		}
	}
}
