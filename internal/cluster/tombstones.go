// Quorum delete tombstones: the delete path's equivalent of the W-quorum
// write. DeleteSeries used to fan out to whichever members happened to be
// reachable and hope — a member that was down or partitioned during the
// delete would resurrect the series into the ring through handoff. Now
// every delete allocates a monotonic sequence number and applies a durable
// tombstone through the ring's newest sample (tsdb.ApplyTombstone —
// journalled in every member's WAL) on as many members as it can reach:
//
//   - >= W members acked --> the delete is acked, exactly like a write.
//   - a member that missed the tombstone is marked tombstone-stale: it
//     refuses reads (ErrNodeStale) until the tombstone reaches it, because
//     a read served from it could resurrect the deleted series into a
//     merged answer. The tombstone travels via the handoff tombstone union
//     (SyncNode, handoff.go) or the startup anti-entropy below, whichever
//     runs first.
//
// The resurrection invariant the chaos harness enforces: once a delete is
// acked at W, no single-member kill / partition / rejoin sequence can bring
// the deleted series back into a quorum read.
//
// A member retires a tombstone (tsdb.DB.RetireTombstones) only on a
// Truncate that finds every member reachable, synced and holding the whole
// log: a member that was down across a delete learns it through the union
// before anyone forgets it.
package cluster

import (
	"math"
	"sort"

	"repro/internal/labels"
	"repro/internal/tsdb"
	"repro/internal/workpool"
)

// ApplyTombstone applies one delete to the member, honoring fault
// injection. A nil error means the tombstone is journalled on the member's
// WAL (same durability contract as BatchAppend).
func (m *Member) ApplyTombstone(tr tsdb.TombstoneRec) (int, error) {
	db, err := m.reachable()
	if err != nil {
		return 0, err
	}
	if m.diskFull.Load() {
		return 0, ErrDiskFull
	}
	return db.ApplyTombstone(tr)
}

// MemberOutcome reports how one member fared in a cluster-wide maintenance
// fan-out (delete, truncate). Err is nil when the operation applied; a
// non-nil Err names why the member was skipped (ErrNodeDown,
// ErrNodePartitioned, ErrDiskFull, ...).
type MemberOutcome struct {
	Member string
	Count  int
	Err    error
}

// DeleteOutcome is the full result of one quorum delete.
type DeleteOutcome struct {
	// Seq is the tombstone sequence number the delete was assigned.
	Seq uint64
	// Deleted is the largest per-member deletion count among the ackers
	// (replicas overlap, so a sum would overcount).
	Deleted int
	// Acks is how many members durably applied the tombstone.
	Acks int
	// Members holds the per-member outcome, sorted by member name.
	Members []MemberOutcome
}

// DeleteSeriesQuorum deletes every series matching ms cluster-wide, up to
// the ring's newest sample, with write-style quorum semantics: a tombstone
// with a fresh sequence number fans out to EVERY member, and the delete is
// acked once W members applied it durably. Members that missed it are
// excluded from reads (ErrNodeStale) until SyncNode's tombstone union
// reaches them, so an acked delete can never be resurrected into a merged
// answer. Returns the per-member outcome; the error is a *QuorumWriteError
// when fewer than W members acked (the tombstone stays applied wherever it
// landed — a partial delete, like a partial write, is visible until
// retried).
func (r *RingDB) DeleteSeriesQuorum(ms ...*labels.Matcher) (DeleteOutcome, error) {
	// Serialize deletes: seq allocation stays ordered, and deletes are rare
	// enough that coordinator-side serialization is free.
	r.deleteMu.Lock()
	defer r.deleteMu.Unlock()
	r.deleteSeq++
	tr := tsdb.TombstoneRec{Seq: r.deleteSeq, MaxT: math.MinInt64, Matchers: ms}
	if maxt, ok := r.MaxTime(); ok {
		tr.MaxT = maxt
	}

	_, members := r.snapshot()
	names := sortedNames(members)
	out := DeleteOutcome{Seq: tr.Seq, Members: make([]MemberOutcome, len(names))}
	workpool.Do(len(names), 0, func(i int) {
		m := members[names[i]]
		n, err := m.ApplyTombstone(tr)
		out.Members[i] = MemberOutcome{Member: names[i], Count: n, Err: err}
	})

	for _, mo := range out.Members {
		if mo.Err == nil {
			out.Acks++
			if mo.Count > out.Deleted {
				out.Deleted = mo.Count
			}
			continue
		}
		// The member missed the delete: gate its reads until it catches up.
		members[mo.Member].tombStale.Store(true)
	}
	r.topoGen.Add(1)
	if out.Acks < r.W {
		return out, &QuorumWriteError{Group: names, Need: r.W, Got: out.Acks}
	}
	return out, nil
}

// DeleteSeries implements api.SeriesDeleter over the quorum delete path,
// returning the acked deletion count. Callers that need the per-member
// outcome or the quorum verdict use DeleteSeriesQuorum directly.
func (r *RingDB) DeleteSeries(ms ...*labels.Matcher) int {
	out, _ := r.DeleteSeriesQuorum(ms...)
	return out.Deleted
}

// syncTombstones is the startup/handoff anti-entropy pass: union the
// tombstone logs of the source DBs and apply every entry the target is
// missing, in sequence order. tsdb.ApplyTombstone dedups by seq, so
// re-applying is free; applying a tombstone the coordinator never acked is
// benign (a partial delete is the documented partial-write caveat, and
// convergence beats resurrection). Returns how many tombstones were newly
// applied to the target.
func syncTombstones(target *tsdb.DB, sources ...*tsdb.DB) (int, error) {
	union := make(map[uint64]tsdb.TombstoneRec)
	for _, src := range sources {
		if src == nil {
			continue
		}
		for _, tr := range src.Tombstones() {
			union[tr.Seq] = tr
		}
	}
	seqs := make([]uint64, 0, len(union))
	for seq := range union {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	applied := 0
	have := make(map[uint64]struct{})
	for _, tr := range target.Tombstones() {
		have[tr.Seq] = struct{}{}
	}
	for _, seq := range seqs {
		if _, ok := have[seq]; ok {
			continue
		}
		if _, err := target.ApplyTombstone(union[seq]); err != nil {
			return applied, err
		}
		applied++
	}
	return applied, nil
}
