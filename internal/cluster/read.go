// Quorum reads: the read path of the ring. A query fans out to every ring
// member, partial results come back sorted per member, and the ring k-way
// merges them — deduplicating samples that live on several replicas of the
// same series — into exactly what a single node holding all the data would
// have returned.
//
// Correctness rests on the quorum intersection argument: a write is acked
// only once W of a series' R owners applied it, so any R−W+1 owners of
// that series include at least one that holds every acked sample. The read
// therefore refuses to answer unless every owner group on the ring had at
// least R−W+1 members respond; the per-series union across responders then
// provably contains every acked write, and deduplication makes the replica
// overlap invisible.
package cluster

import (
	"errors"
	"strings"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb"
	"repro/internal/workpool"
)

// SelectWithHints implements promql.Queryable over the ring: the select runs
// on every readable member in parallel and the sorted partials merge with
// replicated samples deduplicated. The sample budget (hints.SampleLimit) is
// forwarded to each member, so enforcement is per member: a query can be
// charged up to R times its true cost before the merge collapses
// duplicates — never looser than one node, but a budget-limit error may
// fire earlier than on a single-node head.
func (r *RingDB) SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	parts, err := gather(r, func(db *tsdb.DB) ([]model.Series, error) {
		return db.SelectWithHints(hints, ms...)
	})
	if err != nil {
		return nil, err
	}
	return model.MergeSeries(parts), nil
}

// LabelValues merges the distinct values of one label across members under
// the same coverage rule.
func (r *RingDB) LabelValues(name string) ([]string, error) {
	return r.gatherStrings(func(db *tsdb.DB) []string { return db.LabelValues(name) })
}

// LabelNames merges label names across members under the same coverage
// rule.
func (r *RingDB) LabelNames() ([]string, error) {
	return r.gatherStrings((*tsdb.DB).LabelNames)
}

// gatherStrings merges one sorted, duplicate-free list per answering member
// through the stack's one merge, keeping the first of equal strings. The
// only non-empty list is returned itself, so the result is read-only.
func (r *RingDB) gatherStrings(f func(*tsdb.DB) []string) ([]string, error) {
	parts, err := gather(r, func(db *tsdb.DB) ([]string, error) { return f(db), nil })
	if err != nil {
		return nil, err
	}
	return model.MergeSorted(parts, strings.Compare, func(run []string) string { return run[0] }), nil
}

// gather runs read on every ring member that passes its read gate and
// returns one part per member (zero for those that did not answer), or
// model.ErrQuorumUnavailable when some owner group had fewer than R−W+1
// answers. A member blowing the sample budget fails the read outright: that
// is a query-shaped error, not unavailability, so it surfaces as a single
// node's would.
func gather[T any](r *RingDB, read func(*tsdb.DB) (T, error)) ([]T, error) {
	ring, members := r.snapshot()
	names := ring.Nodes()
	parts := make([]T, len(names))
	errs := make([]error, len(names))
	workpool.Do(len(names), 0, func(i int) {
		db, err := members[names[i]].readable()
		if err == nil {
			parts[i], err = read(db)
		}
		errs[i] = err
	})
	ok := make(map[string]bool, len(names))
	for i, err := range errs {
		if errors.Is(err, model.ErrSampleLimit) {
			return nil, err
		}
		if err != nil {
			var zero T
			parts[i] = zero
			continue
		}
		ok[names[i]] = true
	}
	need := r.R - r.W + 1
	for _, group := range ring.OwnerGroups(r.R) {
		got := 0
		for _, m := range group {
			if ok[m] {
				got++
			}
		}
		if got < need {
			return nil, &model.ErrQuorumUnavailable{Group: group, Need: need, Got: got}
		}
	}
	return parts, nil
}
