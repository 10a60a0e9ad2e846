// Scatter-gather quorum reads: the LB-side read path of the cluster
// distribution layer. A query fans out to every replica node, partial
// results come back sorted per node, and the gatherer k-way merges them —
// deduplicating samples that live on several replicas of the same series —
// into exactly what a single node holding all the data would have returned.
//
// Correctness rests on the quorum intersection argument: a write is acked
// only once W of a series' R owners applied it, so any R−W+1 owners of
// that series include at least one that holds every acked sample. The
// gatherer therefore refuses to answer unless every owner group on the
// ring had at least R−W+1 members respond; the per-series union across
// responders then provably contains every acked write, and deduplication
// makes the replica overlap invisible.
package lb

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/workpool"
)

// SeriesBackend is one storage replica the scatter-gather reader queries:
// the one read method plus label metadata that, like a read, can fail.
// cluster.Member adapts *tsdb.DB (adding unreachability/warming errors), and
// ScatterGather is one itself, so the query API serves its label endpoints
// through this interface.
type SeriesBackend interface {
	promql.Queryable
	LabelValues(name string) ([]string, error)
	LabelNames() ([]string, error)
}

// Placement answers which replicas own which keys. The cluster package's
// consistent-hash ring implements it; lb depends only on this interface so
// the import points cluster -> lb, matching the existing Sim wiring.
type Placement interface {
	// Groups returns every distinct owner set the ring produces at the
	// configured replication factor, for read-quorum coverage checks.
	Groups() [][]string
}

// ErrQuorumUnavailable is returned when some keyspace region had fewer
// responding replicas than the read quorum requires; the merged answer
// could silently miss acked writes, so the read fails instead.
type ErrQuorumUnavailable struct {
	Group     []string // the owner set missing coverage
	Need, Got int
}

func (e *ErrQuorumUnavailable) Error() string {
	return fmt.Sprintf("lb: read quorum unavailable: owner group %v answered %d/%d (need %d)",
		e.Group, e.Got, len(e.Group), e.Need)
}

// ScatterGather fans hint-aware selects out to a set of named replicas and
// merges the partial results under the quorum coverage rule. It implements
// promql.Queryable, so a PromQL engine (or promapi handler) evaluates
// against the cluster exactly as it would against one node. Safe for
// concurrent use; replicas may be added and removed while reads are in
// flight.
type ScatterGather struct {
	// ReadQuorum is the minimum responders per owner group, normally
	// R − W + 1. Values < 1 are treated as 1.
	ReadQuorum int
	// Placement supplies the owner groups; nil skips coverage checks (every
	// reachable replica is merged best-effort — single-node setups).
	Placement Placement

	mu       sync.RWMutex
	replicas map[string]SeriesBackend
}

// NewScatterGather returns a gatherer over no replicas.
func NewScatterGather(p Placement, readQuorum int) *ScatterGather {
	return &ScatterGather{Placement: p, ReadQuorum: readQuorum, replicas: map[string]SeriesBackend{}}
}

// SetReplica installs (or replaces) the backend for a node name.
func (s *ScatterGather) SetReplica(name string, b SeriesBackend) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replicas[name] = b
}

// RemoveReplica drops a node.
func (s *ScatterGather) RemoveReplica(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.replicas, name)
}

// snapshot returns the replica set in deterministic (sorted-name) order,
// so merges are reproducible regardless of map iteration.
func (s *ScatterGather) snapshot() ([]string, []SeriesBackend) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.replicas))
	for n := range s.replicas {
		names = append(names, n)
	}
	sort.Strings(names)
	backends := make([]SeriesBackend, len(names))
	for i, n := range names {
		backends[i] = s.replicas[n]
	}
	return names, backends
}

// checkCoverage fails unless every owner group had at least ReadQuorum
// responders among ok.
func (s *ScatterGather) checkCoverage(ok map[string]bool) error {
	if s.Placement == nil {
		if len(ok) == 0 {
			return &ErrQuorumUnavailable{Need: 1}
		}
		return nil
	}
	need := s.ReadQuorum
	if need < 1 {
		need = 1
	}
	for _, group := range s.Placement.Groups() {
		got := 0
		for _, member := range group {
			if ok[member] {
				got++
			}
		}
		if got < need {
			return &ErrQuorumUnavailable{Group: group, Need: need, Got: got}
		}
	}
	return nil
}

// SelectWithHints fans the select out to every replica in parallel and
// merges the sorted partials, deduplicating replicated samples. The sample
// budget (hints.SampleLimit) is forwarded to each replica, so enforcement
// is per replica: a query can be charged up to R times its true cost
// before the merge collapses duplicates — never looser than one node, but
// a budget-limit error may fire earlier than on a single-node head.
func (s *ScatterGather) SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	names, backends := s.snapshot()
	parts := make([][]model.Series, len(backends))
	errs := make([]error, len(backends))
	workpool.Do(len(backends), 0, func(i int) {
		parts[i], errs[i] = backends[i].SelectWithHints(hints, ms...)
	})
	ok := make(map[string]bool, len(names))
	for i, err := range errs {
		if err != nil {
			if errors.Is(err, model.ErrSampleLimit) {
				// A budget blowout is a query-shaped error, not node
				// unavailability: surface it like a single node would.
				return nil, err
			}
			parts[i] = nil
			continue
		}
		ok[names[i]] = true
	}
	if err := s.checkCoverage(ok); err != nil {
		return nil, err
	}
	return MergeReplicaSeries(parts), nil
}

// LabelValues merges the distinct values across replicas under the same
// coverage rule.
func (s *ScatterGather) LabelValues(name string) ([]string, error) {
	return s.gatherStrings(func(b SeriesBackend) ([]string, error) { return b.LabelValues(name) })
}

// LabelNames merges label names across replicas under the same coverage
// rule.
func (s *ScatterGather) LabelNames() ([]string, error) {
	return s.gatherStrings(func(b SeriesBackend) ([]string, error) { return b.LabelNames() })
}

// gatherStrings merges one sorted, duplicate-free list per answering replica
// through the stack's one merge, keeping the first of equal strings. The only
// non-empty list is returned itself, so the result is read-only.
func (s *ScatterGather) gatherStrings(f func(SeriesBackend) ([]string, error)) ([]string, error) {
	names, backends := s.snapshot()
	parts := make([][]string, len(backends))
	errs := make([]error, len(backends))
	workpool.Do(len(backends), 0, func(i int) {
		parts[i], errs[i] = f(backends[i])
	})
	ok := make(map[string]bool, len(names))
	for i, err := range errs {
		if err == nil {
			ok[names[i]] = true
		} else {
			parts[i] = nil
		}
	}
	if err := s.checkCoverage(ok); err != nil {
		return nil, err
	}
	return model.MergeSorted(parts, strings.Compare, func(run []string) string { return run[0] }), nil
}

// MergeReplicaSeries merges per-replica slices, each sorted by labels,
// into one: a series several replicas return becomes one entry with the
// timestamp-deduplicated union of its samples. Replicas received identical
// routed writes, so which copy of a timestamp is kept (the earliest part's;
// parts come in sorted replica-name order) only matters for determinism.
func MergeReplicaSeries(parts [][]model.Series) []model.Series {
	return model.MergeSeries(parts)
}
