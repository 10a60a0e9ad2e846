package rules

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/labels"
	"repro/internal/promql"
)

// groupPlan is what one group derives once and reuses at every evaluation:
// each rule's parsed expression, how each selector of those expressions is
// read (selPlan), and — the only parts that change — the rules' output
// caches and the evaluation scratch. See docs/ARCHITECTURE.md, "One
// evaluation per group".
type groupPlan struct {
	name  string
	rules []rulePlan
	// sels is keyed by the *VectorSelector or *MatrixSelector node of a
	// rule's own AST (parsed privately, never shared through the parse
	// cache, so a node belongs to exactly one rule).
	sels map[promql.Expr]*selPlan
	// fetches is the number of distinct (matchers, window) storage reads
	// among the selectors no earlier rule of the group writes to.
	fetches int
	view    view
}

type rulePlan struct {
	rule     Rule // the plan's own copy, compared against the group's
	expr     promql.Expr
	parseErr error
	// out maps a result label set's Bytes to the set it is recorded under.
	out labels.SeriesCache
}

// selPlan says how one selector is read during an evaluation.
type selPlan struct {
	vs *promql.VectorSelector
	// writers are the earlier rules of the group whose recorded name the
	// selector can match. Empty means nothing this evaluation stages can
	// show up in the read: it goes to storage, once per fetch id.
	writers []int
	fetch   int
	// owner is set (≥ 0) for a bare instant selector — no range, no
	// offset, name matched by equality — on a name recorded by exactly one
	// rule of the group, an earlier one: the read is that rule's output of
	// this evaluation, filtered by the remaining matchers.
	owner  int
	filter []*labels.Matcher
}

// outputName is the metric name the rule's series are stored under.
func (r *Rule) outputName() string {
	if v, ok := r.Labels[labels.MetricName]; ok {
		return v
	}
	return r.Record
}

func newGroupPlan(g *Group) *groupPlan {
	p := &groupPlan{name: g.Name, rules: make([]rulePlan, len(g.Rules)), sels: map[promql.Expr]*selPlan{}}
	p.view.plan = p
	recorders := map[string]int{}
	for _, r := range g.Rules {
		recorders[r.outputName()]++
	}
	fetchIDs := map[string]int{}
	for i, r := range g.Rules {
		rp := &p.rules[i]
		rp.rule = Rule{Record: r.Record, Expr: r.Expr, Labels: maps.Clone(r.Labels)}
		rp.expr, rp.parseErr = promql.ParseExpr(r.Expr)
		if rp.parseErr != nil {
			continue
		}
		promql.WalkSelectors(rp.expr, func(node promql.Expr, vs *promql.VectorSelector) {
			sp := &selPlan{vs: vs, owner: -1}
			_, ranged := node.(*promql.MatrixSelector)
			for j := range g.Rules[:i] {
				if matchesName(vs, g.Rules[j].outputName()) {
					sp.writers = append(sp.writers, j)
				}
			}
			if len(sp.writers) == 0 {
				key := fetchKey(node, vs)
				id, ok := fetchIDs[key]
				if !ok {
					id = len(fetchIDs)
					fetchIDs[key] = id
				}
				sp.fetch = id
			} else if !ranged && vs.Offset == 0 && len(sp.writers) == 1 {
				w := sp.writers[0]
				name := g.Rules[w].outputName()
				eq := slices.IndexFunc(vs.Matchers, func(m *labels.Matcher) bool {
					return m.Name == labels.MetricName && m.Type == labels.MatchEqual && m.Value == name
				})
				if eq >= 0 && recorders[name] == 1 {
					sp.owner = w
					sp.filter = slices.Delete(slices.Clone(vs.Matchers), eq, eq+1)
				}
			}
			p.sels[node] = sp
		})
	}
	p.fetches = len(fetchIDs)
	return p
}

// matchesName reports whether the selector's matchers on the metric name
// (none is legal) all accept name.
func matchesName(vs *promql.VectorSelector, name string) bool {
	for _, m := range vs.Matchers {
		if m.Name == labels.MetricName && !m.Matches(name) {
			return false
		}
	}
	return true
}

// fetchKey identifies a storage read up to the evaluation time: matchers in
// any order, offset, and the range (none for an instant selector, whose
// window is the engine's lookback).
func fetchKey(node promql.Expr, vs *promql.VectorSelector) string {
	parts := make([]string, len(vs.Matchers))
	for i, m := range vs.Matchers {
		parts[i] = m.String()
	}
	slices.Sort(parts)
	window := "instant"
	if ms, ok := node.(*promql.MatrixSelector); ok {
		window = ms.Range.String()
	}
	return fmt.Sprintf("%s offset %s [%s]", strings.Join(parts, ","), vs.Offset, window)
}

// describes reports whether the plan was built from rules equal to g's.
func (p *groupPlan) describes(g *Group) bool {
	return slices.EqualFunc(p.rules, g.Rules, func(rp rulePlan, r Rule) bool {
		return rp.rule.Record == r.Record && rp.rule.Expr == r.Expr && maps.Equal(rp.rule.Labels, r.Labels)
	})
}
