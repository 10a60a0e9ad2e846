package rules

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
)

// view is the read side of one group evaluation and the buffer of its
// write side. The promql engine reads through it (SelectSelector); every
// rule's samples and staleness markers are staged in lsets/samples and go
// to the destination in one commit when the group is done, so during the
// evaluation storage never changes under the group's own hands and what an
// earlier rule produced is visible only through the view.
type view struct {
	plan *groupPlan
	q    promql.Queryable
	ts   int64

	// fetched holds the storage reads of this evaluation, by fetch id.
	fetched []fetchResult
	// staged[i] is where rule i's samples sit in lsets/samples.
	staged []stagedRange
	// lsets[i], samples[i] is one staged sample; the label sets are the
	// output caches' and immutable. entries[i] is the output cache's entry
	// of a result sample, nil for a staleness marker.
	lsets   []labels.Labels
	entries []*labels.CacheEntry
	samples []model.Sample
	// key holds the cache key of the result set being staged.
	key []byte

	selects, hits int // storage reads, reads answered without one
}

type fetchResult struct {
	done   bool
	series []model.Series
	err    error
}

// stagedRange locates one rule's staged samples: [lo, lo+n) are its result
// vector, [lo+n, hi) the staleness markers of the series it no longer
// produces. A rule that failed this evaluation stages nothing and is not ok.
type stagedRange struct {
	lo, n, hi int
	ok        bool
}

func (v *view) reset(q promql.Queryable, ts int64) {
	v.q, v.ts = q, ts
	v.fetched = slices.Grow(v.fetched[:0], v.plan.fetches)[:v.plan.fetches]
	clear(v.fetched)
	v.staged = slices.Grow(v.staged[:0], len(v.plan.rules))[:len(v.plan.rules)]
	clear(v.staged)
	v.lsets, v.entries, v.samples = v.lsets[:0], v.entries[:0], v.samples[:0]
	v.selects, v.hits = 0, 0
}

// release drops what the evaluation borrowed from storage and its caller.
func (v *view) release() {
	v.q = nil
	clear(v.fetched)
	clear(v.lsets)
	clear(v.entries)
}

// SelectWithHints implements promql.Queryable: one storage read, counted in
// selects. SelectSelector reads storage through it, and so would a read the
// engine did not tie to a selector node.
func (v *view) SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	v.selects++
	return v.q.SelectWithHints(hints, ms...)
}

// SelectSelector implements promql.SelectorQueryable: the plan decided from
// the AST how node is read, the view only looks at what this evaluation has
// produced so far.
func (v *view) SelectSelector(node promql.Expr, hints model.SelectHints) ([]model.Series, error) {
	sp := v.plan.sels[node]
	switch {
	case sp == nil:
		return nil, fmt.Errorf("rules: internal: selector %s is not in the plan of group %s", node, v.plan.name)
	case sp.owner >= 0 && v.staged[sp.owner].ok:
		// The owner's result vector is, to an instant selector, exactly
		// what storage will hold under that name once the group commits:
		// every series it produced has a sample at ts, every series it
		// stopped producing a marker at ts.
		v.hits++
		o := v.staged[sp.owner]
		return v.stagedSeries(nil, o.lo, o.lo+o.n, sp.filter), nil
	case len(sp.writers) > 0:
		// Range or offset selector, ambiguous name, or an owner that
		// failed this round: storage, with whatever the writers staged
		// laid over it.
		series, err := v.SelectWithHints(hints, sp.vs.Matchers...)
		if err != nil || v.ts < hints.Start || v.ts > hints.End {
			return series, err
		}
		var pend []model.Series
		for _, w := range sp.writers {
			pend = v.stagedSeries(pend, v.staged[w].lo, v.staged[w].hi, sp.vs.Matchers)
		}
		if len(pend) == 0 {
			return series, nil
		}
		// Staged first: where storage already has a sample at ts, the
		// staged one is what the reader sees.
		return model.MergeSeries([][]model.Series{pend, series}), nil
	}
	f := &v.fetched[sp.fetch]
	if f.done {
		v.hits++
	} else {
		f.series, f.err = v.SelectWithHints(hints, sp.vs.Matchers...)
		f.done = true
	}
	return f.series, f.err
}

// stagedSeries appends to dst the staged samples in [lo, hi) whose labels
// satisfy ms, as one-sample series, and returns dst sorted by labels as a
// Select result is. Two staged samples of one label set keep the first, as
// the head will when they are committed. The samples alias the staging
// buffer: they are valid until the evaluation ends.
func (v *view) stagedSeries(dst []model.Series, lo, hi int, ms []*labels.Matcher) []model.Series {
	if dst == nil {
		dst = make([]model.Series, 0, hi-lo)
	}
	for i := lo; i < hi; i++ {
		if labels.MatchLabels(v.lsets[i], ms...) {
			dst = append(dst, model.Series{Labels: v.lsets[i], Samples: v.samples[i : i+1 : i+1]})
		}
	}
	byLabels := func(a, b model.Series) int { return labels.Compare(a.Labels, b.Labels) }
	if !slices.IsSortedFunc(dst, byLabels) {
		slices.SortStableFunc(dst, byLabels)
	}
	return slices.CompactFunc(dst, func(a, b model.Series) bool { return a.Labels.Equal(b.Labels) })
}

// stage appends the rule's result vector to the view under its recorded
// label sets, then the staleness markers of what the rule's last successful
// evaluation produced and this one did not. In steady state it allocates
// nothing.
func (rp *rulePlan) stage(vec promql.Vector, v *view) (stale int) {
	c := &rp.out
	for _, s := range vec {
		v.key = s.Labels.Bytes(v.key[:0])
		e := c.Get(v.key)
		if e == nil {
			e = c.Put(string(v.key), rp.rule.recorded(s.Labels))
		}
		c.Stamp(e)
		v.lsets = append(v.lsets, e.Labels)
		v.entries = append(v.entries, e)
		v.samples = append(v.samples, model.Sample{T: s.T, V: s.V})
	}
	c.Sweep(func(ls labels.Labels) {
		v.lsets = append(v.lsets, ls)
		v.entries = append(v.entries, nil)
		v.samples = append(v.samples, model.Sample{T: v.ts, V: model.StaleNaN()})
		stale++
	})
	return stale
}

// recorded returns the label set the rule records result set in under: in,
// with the record name and the rule's labels laid over it.
func (r *Rule) recorded(in labels.Labels) labels.Labels {
	b := labels.NewBuilder(in)
	b.Set(labels.MetricName, r.Record)
	for k, v := range r.Labels {
		b.Set(k, v)
	}
	return b.Labels()
}

// eval runs one evaluation of the group: every rule in order against the
// view, then one commit. It returns the number of result samples staged and
// the first rule error, or failing that the commit's.
func (p *groupPlan) eval(e *Engine, q promql.Queryable, dst Appender, ts time.Time) (int, error) {
	v := &p.view
	v.reset(q, model.TimeToMillis(ts))
	defer v.release()
	var firstErr error
	written, stale := 0, 0
	for i := range p.rules {
		rp := &p.rules[i]
		lo := len(v.samples)
		vec, err := rp.vector(e.promql, v, ts)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("rules: group %s rule %s: %w", p.name, rp.rule.Record, err)
			}
			continue
		}
		stale += rp.stage(vec, v)
		v.staged[i] = stagedRange{lo: lo, n: len(vec), hi: len(v.samples), ok: true}
		written += len(vec)
	}
	refused, err := commit(dst, v.entries, v.lsets, v.samples)
	if firstErr == nil && (refused > 0 || err != nil) {
		firstErr = fmt.Errorf("rules: group %s: commit: %d of %d samples refused", p.name, refused, len(v.samples))
		if err != nil {
			firstErr = fmt.Errorf("%w: %w", firstErr, err)
		}
	}
	if m := e.metrics; m != nil {
		m.selects.Add(uint64(v.selects))
		m.viewHits.Add(uint64(v.hits))
		m.written.Add(uint64(written))
		m.staleMarkers.Add(uint64(stale))
	}
	return written, firstErr
}

// vector evaluates the rule's expression at ts as the vector to record.
func (rp *rulePlan) vector(pe *promql.Engine, v *view, ts time.Time) (promql.Vector, error) {
	if rp.parseErr != nil {
		return nil, rp.parseErr
	}
	val, err := pe.InstantExpr(v, rp.expr, ts)
	if err != nil {
		return nil, err
	}
	switch val := val.(type) {
	case promql.Vector:
		return val, nil
	case promql.Scalar:
		return promql.Vector{{Labels: labels.Labels{}, T: val.T, V: val.V}}, nil
	}
	return nil, fmt.Errorf("rule result must be vector or scalar, got %s", val.Type())
}

// commit hands the group's staged samples to dst: in one batch when dst can
// take one, by ref when it can, else one Append each. refused counts the
// samples that did not land; err is the batch's error, or the first Append
// error.
func commit(dst Appender, entries []*labels.CacheEntry, lsets []labels.Labels, samples []model.Sample) (refused int, err error) {
	if len(samples) == 0 {
		return 0, nil
	}
	if b, ok := dst.(EntryAppender); ok {
		return b.AppendEntries(entries, lsets, samples)
	}
	if b, ok := dst.(BatchAppender); ok {
		return b.AppendBatch(lsets, samples)
	}
	for i, s := range samples {
		if aerr := dst.Append(lsets[i], s.T, s.V); aerr != nil {
			refused++
			if err == nil {
				err = aerr
			}
		}
	}
	return refused, err
}
