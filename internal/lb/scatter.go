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
	"sync/atomic"

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

// Repairer is the optional write-back seam of a SeriesBackend: read repair
// uses it to back-fill a replica the merge caught returning stale or
// missing series. cluster.Member implements it over the member's WAL-backed
// batch appender.
type Repairer interface {
	RepairSamples(ls labels.Labels, samples []model.Sample) error
}

// RepairPlacement is the optional per-series ownership query read repair
// needs on top of Placement: whether a replica that failed to return a
// series was actually supposed to hold it.
type RepairPlacement interface {
	OwnersFor(ls labels.Labels) []string
}

// RepairStats reports read-repair activity.
type RepairStats struct {
	// SeriesRepaired / SamplesRepaired count successful back-fills.
	SeriesRepaired  uint64
	SamplesRepaired uint64
	// Dropped counts repairs discarded because the bounded queue was full
	// or the worker was stopped.
	Dropped uint64
	// Errors counts back-fills the replica rejected (down, partitioned,
	// disk-full — the next anti-entropy pass owns those).
	Errors uint64
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

	// Read-repair machinery: a lazily started single worker drains a
	// bounded job queue so repairs never sit on the read path's latency.
	repairMu      sync.Mutex
	repairCh      chan repairJob
	repairStop    chan struct{}
	repairStopped bool
	repairWG      sync.WaitGroup

	repairSeries  atomic.Uint64
	repairSamples atomic.Uint64
	repairDropped atomic.Uint64
	repairErrors  atomic.Uint64
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
	merged := MergeReplicaSeries(parts)
	s.scheduleRepairs(names, backends, parts, ok, merged, hints)
	return merged, nil
}

// ---- read repair ----

const (
	// repairQueueSize bounds the async back-fill queue; overflow drops the
	// repair (counted) — the next read or anti-entropy pass retries it.
	repairQueueSize = 256
	// maxRepairsPerSelect caps how many series one merge may enqueue, so a
	// wide scan over a badly stale replica cannot monopolize the worker;
	// later selects pick up what this one deferred.
	maxRepairsPerSelect = 64
)

type repairJob struct {
	backend Repairer
	ls      labels.Labels
	samples []model.Sample
}

// RepairStatsSnapshot returns the current read-repair counters.
func (s *ScatterGather) RepairStatsSnapshot() RepairStats {
	return RepairStats{
		SeriesRepaired:  s.repairSeries.Load(),
		SamplesRepaired: s.repairSamples.Load(),
		Dropped:         s.repairDropped.Load(),
		Errors:          s.repairErrors.Load(),
	}
}

// WaitRepairs blocks until every queued repair has been applied or
// dropped — the determinism hook the chaos tests converge on.
func (s *ScatterGather) WaitRepairs() { s.repairWG.Wait() }

// StopRepairs shuts the repair worker down; queued and future repairs are
// dropped (counted). Idempotent.
func (s *ScatterGather) StopRepairs() {
	s.repairMu.Lock()
	defer s.repairMu.Unlock()
	if s.repairStopped {
		return
	}
	s.repairStopped = true
	if s.repairStop != nil {
		close(s.repairStop)
	}
}

// enqueueRepair hands a job to the (lazily started) worker; a full queue
// or stopped worker drops it.
func (s *ScatterGather) enqueueRepair(j repairJob) {
	s.repairMu.Lock()
	if s.repairStopped {
		s.repairMu.Unlock()
		s.repairDropped.Add(1)
		return
	}
	if s.repairCh == nil {
		s.repairCh = make(chan repairJob, repairQueueSize)
		s.repairStop = make(chan struct{})
		go s.repairWorker(s.repairCh, s.repairStop)
	}
	// Non-blocking send under the mutex: the channel is buffered, so this
	// never waits, and holding the lock means no job enters the queue after
	// StopRepairs flipped repairStopped (the WaitGroup stays balanced).
	// Count the job before the send: the worker may finish it — and call
	// Done — before this goroutine runs another instruction.
	s.repairWG.Add(1)
	select {
	case s.repairCh <- j:
	default:
		s.repairWG.Done()
		s.repairDropped.Add(1)
	}
	s.repairMu.Unlock()
}

func (s *ScatterGather) repairWorker(ch chan repairJob, stop chan struct{}) {
	for {
		select {
		case j := <-ch:
			if err := j.backend.RepairSamples(j.ls, j.samples); err != nil {
				s.repairErrors.Add(1)
			} else {
				s.repairSeries.Add(1)
				s.repairSamples.Add(uint64(len(j.samples)))
			}
			s.repairWG.Done()
		case <-stop:
			for {
				select {
				case <-ch:
					s.repairDropped.Add(1)
					s.repairWG.Done()
				default:
					return
				}
			}
		}
	}
}

// scheduleRepairs compares each OK responder's partial against the merged
// answer and back-fills what the responder should hold but returned stale
// or missing. Both slices are label-sorted, so the diff is one lockstep
// walk per responder. Only the missing SUFFIX of a series is repaired —
// the tsdb appender rejects t <= lastT, so interior holes are left to the
// full anti-entropy sync; repairing a suffix (or a wholly missing series)
// lands cleanly. Skipped entirely when a sample budget was in play
// (per-replica truncation would fake staleness), when the read was trimmed
// to its step grid (model.StepFilter: each replica's answer is then a
// per-window subset, so a diff could only ever repair the newest samples) or
// when the placement cannot answer per-series ownership.
func (s *ScatterGather) scheduleRepairs(names []string, backends []SeriesBackend, parts [][]model.Series, ok map[string]bool, merged []model.Series, hints model.SelectHints) {
	if len(merged) == 0 || hints.SampleLimit > 0 || hints.StepFilter() != nil {
		return
	}
	rp, _ := s.Placement.(RepairPlacement)
	if rp == nil {
		return
	}
	budget := maxRepairsPerSelect
	for i, name := range names {
		if !ok[name] {
			continue
		}
		rep, isRep := backends[i].(Repairer)
		if !isRep {
			continue
		}
		part := parts[i]
		j := 0
		for _, ms := range merged {
			for j < len(part) && labels.Compare(part[j].Labels, ms.Labels) < 0 {
				j++
			}
			var have []model.Sample
			if j < len(part) && labels.Compare(part[j].Labels, ms.Labels) == 0 {
				have = part[j].Samples
			}
			missing := missingSuffix(have, ms.Samples)
			if len(missing) == 0 || !ownedBy(rp.OwnersFor(ms.Labels), name) {
				continue
			}
			if budget <= 0 {
				return
			}
			budget--
			s.enqueueRepair(repairJob{backend: rep, ls: ms.Labels, samples: missing})
		}
	}
}

// missingSuffix returns the samples of want past have's last timestamp —
// everything the replica can actually accept via append.
func missingSuffix(have, want []model.Sample) []model.Sample {
	if len(have) == 0 {
		return want
	}
	lastT := have[len(have)-1].T
	if want[len(want)-1].T <= lastT {
		return nil
	}
	lo := sort.Search(len(want), func(k int) bool { return want[k].T > lastT })
	return want[lo:]
}

func ownedBy(owners []string, name string) bool {
	for _, o := range owners {
		if o == name {
			return true
		}
	}
	return false
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
