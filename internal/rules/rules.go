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
	"sort"
	"sync"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/telemetry"
)

// Appender is the storage destination for rule results; *tsdb.DB satisfies
// it.
type Appender interface {
	Append(lset labels.Labels, t int64, v float64) error
}

// BatchAppender is the optional bulk capability of a destination: one call
// commits samples[i] to the series lsets[i] for the whole group evaluation.
// refused counts samples that did not land (out of order, too old, or cut
// off by err). *tsdb.DB and *cluster.RingDB implement it; a destination
// without it receives the same samples through Append, one by one, once the
// group has been evaluated.
type BatchAppender interface {
	AppendBatch(lsets []labels.Labels, samples []model.Sample) (refused int, err error)
}

// EntryAppender is BatchAppender by ref: entries is as long as samples, a
// sample whose entries[i] is not nil goes to the series entries[i].Labels
// names, and the destination keeps its handle on that series in the entry,
// so the next evaluation reaches it without its labels; the others go to
// lsets[i]. *tsdb.DB implements it, and a group's commit prefers it to
// AppendBatch.
type EntryAppender interface {
	AppendEntries(entries []*labels.CacheEntry, lsets []labels.Labels, samples []model.Sample) (refused int, err error)
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
// a group are evaluated in order, and a later rule reads what an earlier
// one produced in this same evaluation (docs/ARCHITECTURE.md, "One
// evaluation per group").
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
	promql  *promql.Engine
	metrics *ruleMetrics

	mu     sync.Mutex
	groups map[string]*groupState
}

// groupState is what the engine keeps per group name.
type groupState struct {
	stats GroupStats // guarded by Engine.mu
	// evalMu serialises evaluations of the group; it guards plan, which
	// holds the rules' output caches and the evaluation scratch.
	evalMu sync.Mutex
	plan   *groupPlan
	// evalSeconds is nil on an uninstrumented engine.
	evalSeconds *telemetry.Histogram
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
	return &Engine{promql: pe, groups: map[string]*groupState{}}
}

// EvalGroup evaluates all rules of the group at ts, reading from q and
// writing results to dst in one commit. Evaluation continues past
// individual rule errors; the first error is returned after all rules ran,
// and a commit dst did not fully accept is an error too.
func (e *Engine) EvalGroup(g *Group, q promql.Queryable, dst Appender, ts time.Time) error {
	start := time.Now()
	e.mu.Lock()
	gs, ok := e.groups[g.Name]
	if !ok {
		gs = &groupState{}
		if e.metrics != nil {
			gs.evalSeconds = e.metrics.groupSeconds(g.Name)
		}
		e.groups[g.Name] = gs
	}
	e.mu.Unlock()

	gs.evalMu.Lock()
	if gs.plan == nil || !gs.plan.describes(g) {
		gs.plan = newGroupPlan(g)
	}
	written, err := gs.plan.eval(e, q, dst, ts)
	gs.evalMu.Unlock()
	if gs.evalSeconds != nil {
		gs.evalSeconds.ObserveSince(start)
	}

	e.mu.Lock()
	st := &gs.stats
	st.LastEval = ts
	st.LastDuration = time.Since(start)
	st.EvalCount++
	st.SeriesLastWrite = written
	if err != nil {
		st.FailureCount++
		st.LastError = err.Error()
	}
	e.mu.Unlock()
	return err
}

// Stats returns a copy of the per-group evaluation statistics.
func (e *Engine) Stats() map[string]GroupStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]GroupStats, len(e.groups))
	for k, gs := range e.groups {
		out[k] = gs.stats
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
