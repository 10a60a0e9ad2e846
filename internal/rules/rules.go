// Package rules implements Prometheus-style recording rules: named
// expressions evaluated on an interval whose results are written back to
// storage as new series. CEEMS expresses its per-hardware-group energy
// estimation formulas (paper Eq. 1 and variants) as recording rules; the
// concrete rule sets live in the ceemsrules subpackage.
package rules

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
)

// Appender is the storage destination for rule results; *tsdb.DB satisfies
// it.
type Appender interface {
	Append(lset labels.Labels, t int64, v float64) error
}

// Rule is one recording rule.
type Rule struct {
	// Record is the output metric name.
	Record string `yaml:"record"`
	// Expr is the PromQL expression to evaluate.
	Expr string `yaml:"expr"`
	// Labels are added to every output series (overriding collisions).
	Labels map[string]string `yaml:"labels"`
}

// Group is a set of rules evaluated together at one interval. Rules within
// a group are evaluated in order, so later rules can reference the output
// of earlier ones (from the previous write, as in Prometheus).
type Group struct {
	Name     string        `yaml:"name"`
	Interval time.Duration `yaml:"interval"`
	Rules    []Rule        `yaml:"rules"`
}

// Validate parses every rule expression, returning the first error.
func (g *Group) Validate() error {
	if g.Name == "" {
		return errors.New("rules: group name required")
	}
	for i, r := range g.Rules {
		if r.Record == "" {
			return fmt.Errorf("rules: group %s rule %d: record name required", g.Name, i)
		}
		if _, err := promql.ParseExpr(r.Expr); err != nil {
			return fmt.Errorf("rules: group %s rule %q: %w", g.Name, r.Record, err)
		}
	}
	return nil
}

// Engine evaluates rule groups.
type Engine struct {
	promql *promql.Engine

	mu    sync.Mutex
	stats map[string]*GroupStats
	// seen tracks each rule's output series from the previous evaluation
	// so vanished series receive staleness markers, exactly as Prometheus
	// rule evaluation does. The label hash (labels.Labels.Hash unless a
	// test swaps it) only buckets; Labels.Equal decides identity.
	seen map[string]map[uint64][]labels.Labels
	hash func(labels.Labels) uint64
}

// GroupStats tracks evaluation health of one group.
type GroupStats struct {
	LastEval        time.Time
	LastDuration    time.Duration
	EvalCount       int64
	FailureCount    int64
	LastError       string
	SeriesLastWrite int
}

// NewEngine returns a rules engine using the given PromQL engine (nil for
// defaults).
func NewEngine(pe *promql.Engine) *Engine {
	if pe == nil {
		pe = promql.NewEngine()
	}
	return &Engine{promql: pe, stats: map[string]*GroupStats{},
		seen: map[string]map[uint64][]labels.Labels{}, hash: labels.Labels.Hash}
}

// EvalGroup evaluates all rules of the group at ts, reading from q and
// writing results to dst. Evaluation continues past individual rule errors;
// the first error is returned after all rules ran.
func (e *Engine) EvalGroup(g *Group, q promql.Queryable, dst Appender, ts time.Time) error {
	start := time.Now()
	var firstErr error
	written := 0
	for _, r := range g.Rules {
		n, err := e.evalRule(&r, q, dst, ts)
		written += n
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("rules: group %s rule %s: %w", g.Name, r.Record, err)
		}
	}
	e.mu.Lock()
	st, ok := e.stats[g.Name]
	if !ok {
		st = &GroupStats{}
		e.stats[g.Name] = st
	}
	st.LastEval = ts
	st.LastDuration = time.Since(start)
	st.EvalCount++
	st.SeriesLastWrite = written
	if firstErr != nil {
		st.FailureCount++
		st.LastError = firstErr.Error()
	}
	e.mu.Unlock()
	return firstErr
}

func (e *Engine) evalRule(r *Rule, q promql.Queryable, dst Appender, ts time.Time) (int, error) {
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
		h := e.hash(ls)
		cur[h] = append(cur[h], ls)
		n++
	}
	// Staleness markers for series this rule produced last time but not
	// now (e.g. a completed job's uuid:host_watts).
	e.mu.Lock()
	prev := e.seen[r.Record]
	e.seen[r.Record] = cur
	e.mu.Unlock()
	for h, bucket := range prev {
		for _, ls := range bucket {
			if !slices.ContainsFunc(cur[h], ls.Equal) {
				dst.Append(ls, evalTS, model.StaleNaN())
			}
		}
	}
	return n, nil
}

// Stats returns a copy of the per-group evaluation statistics.
func (e *Engine) Stats() map[string]GroupStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]GroupStats, len(e.stats))
	for k, v := range e.stats {
		out[k] = *v
	}
	return out
}

// Manager periodically evaluates a set of groups against one storage.
type Manager struct {
	Engine *Engine
	Query  promql.Queryable
	Dest   Appender
	Groups []*Group
	// Now returns the evaluation timestamp; defaults to time.Now. The
	// cluster simulator overrides it to drive simulated time.
	Now func() time.Time
	// OnError receives evaluation errors; nil drops them.
	OnError func(error)
}

// Run evaluates each group on its interval until ctx is cancelled. Groups
// with no interval default to one minute.
func (m *Manager) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for _, g := range m.Groups {
		interval := g.Interval
		if interval <= 0 {
			interval = time.Minute
		}
		wg.Add(1)
		go func(g *Group) {
			defer wg.Done()
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					m.evalOnce(g)
				}
			}
		}(g)
	}
	wg.Wait()
}

// EvalAll evaluates every group once at the given time; used by simulations
// that drive a virtual clock instead of Run.
func (m *Manager) EvalAll(ts time.Time) error {
	var firstErr error
	for _, g := range m.Groups {
		if err := m.Engine.EvalGroup(g, m.Query, m.Dest, ts); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (m *Manager) evalOnce(g *Group) {
	now := time.Now
	if m.Now != nil {
		now = m.Now
	}
	if err := m.Engine.EvalGroup(g, m.Query, m.Dest, now()); err != nil && m.OnError != nil {
		m.OnError(err)
	}
}

// SortedGroupNames returns the group names in sorted order (for stable
// status output).
func (m *Manager) SortedGroupNames() []string {
	names := make([]string, 0, len(m.Groups))
	for _, g := range m.Groups {
		names = append(names, g.Name)
	}
	sort.Strings(names)
	return names
}
