// Hinted handoff: when a write (or delete) replica is dead, partitioned or
// out of disk at commit time, the coordinator buffers that replica's share
// of the batch in a bounded per-target hint queue instead of relying on a
// full peer-window sync at rejoin. The queue is drained back into the
// member — through its normal BatchAppend / ApplyTombstone seam, so drained
// hints land in the member's own WAL with full durability — on Revive, on
// Heal, and at the start of SyncNode.
//
// The bound: each target queue holds at most hintLimit samples. Overflow
// drops the OLDEST hints and counts them. A queue that dropped anything is
// "lossy": its surviving samples are discarded at drain time — applying
// only the newest would raise the append-only head's watermark past the
// dropped window and block the back-fill — and it cannot clear the
// member's warming or tombstone-stale gates; only a full SyncNode can,
// because only it re-pulls the window in order and proves the holes are
// filled. Tombstone hints share the bound; losing one is why
// the tombstone-stale gate exists at all, so a lossy queue keeps the member
// out of read coverage until SyncNode runs its tombstone union.
//
// Sample-hint loss is read-safe by the quorum argument (W ackers hold the
// data; the lossy member simply stays stale until synced). Tombstone-hint
// loss is read-UNSAFE if ignored — a stale member could resurrect deleted
// series into a merge — which is why ErrNodeStale gates reads instead.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/labels"
	"repro/internal/tsdb"
)

// DefaultHintLimit is the per-target sample bound of the hint queue. At the
// chaos harness's scrape shape (tens of series, 15s cadence) it covers well
// over an hour of downtime before the queue turns lossy.
const DefaultHintLimit = 4096

// tombHint is one buffered tombstone apply.
type tombHint struct {
	seq uint64
	ms  []*labels.Matcher
}

// hintQueue buffers one target's missed writes and deletes.
type hintQueue struct {
	mu      sync.Mutex
	samples []tsdb.BatchSample
	tombs   []tombHint
	// lossy is set when anything was dropped to the bound and cleared only
	// by a completed SyncNode — a lossy drain proves nothing about holes.
	lossy bool
}

// HintStats summarizes the coordinator's hint activity.
type HintStats struct {
	// SamplesQueued / TombstonesQueued count hints ever buffered.
	SamplesQueued    uint64
	TombstonesQueued uint64
	// SamplesDropped counts hints evicted by the per-target bound.
	SamplesDropped uint64
	// SamplesDrained / TombstonesDrained count hints handed back to revived
	// or healed members (before out-of-order dedup on the member).
	SamplesDrained    uint64
	TombstonesDrained uint64
	// Pending is the sample total currently buffered across targets.
	Pending int
}

// HintDrainStats describes one queue drain.
type HintDrainStats struct {
	// SamplesOffered / SamplesApplied: hints handed to the member and how
	// many actually landed (the rest were already present — out-of-order
	// duplicates, exactly like handoff).
	SamplesOffered int
	SamplesApplied int
	// Tombstones is how many buffered tombstones were applied.
	Tombstones int
	// Lossless is true when the queue never overflowed since the last full
	// sync: the drain provably covered everything the coordinator failed to
	// deliver, so the member's warming/stale gates were cleared.
	Lossless bool
}

// setHintLimit bounds every per-target hint queue to n samples; n <= 0
// disables hinting entirely (every missed write is dropped and counted,
// recovery falls back to full SyncNode). Affects future queueing only.
func (r *RingDB) setHintLimit(n int) { r.hintLimit.Store(int64(n)) }

// HintStats reports coordinator-side hint counters.
func (r *RingDB) HintStats() HintStats {
	st := HintStats{
		SamplesQueued:     r.hintSamplesQueued.Load(),
		TombstonesQueued:  r.hintTombsQueued.Load(),
		SamplesDropped:    r.hintSamplesDropped.Load(),
		SamplesDrained:    r.hintSamplesDrained.Load(),
		TombstonesDrained: r.hintTombsDrained.Load(),
	}
	r.hintMu.Lock()
	for _, q := range r.hints {
		q.mu.Lock()
		st.Pending += len(q.samples)
		q.mu.Unlock()
	}
	r.hintMu.Unlock()
	return st
}

// hintQueueFor returns (creating if needed) the named member's hint queue.
func (r *RingDB) hintQueueFor(name string) *hintQueue {
	r.hintMu.Lock()
	defer r.hintMu.Unlock()
	if r.hints == nil {
		r.hints = make(map[string]*hintQueue)
	}
	q := r.hints[name]
	if q == nil {
		q = &hintQueue{}
		r.hints[name] = q
	}
	return q
}

// queueSampleHints buffers one failed replica call's samples, evicting the
// oldest hints past the bound.
func (r *RingDB) queueSampleHints(name string, samples []tsdb.BatchSample) {
	limit := int(r.hintLimit.Load())
	q := r.hintQueueFor(name)
	q.mu.Lock()
	if limit <= 0 {
		q.lossy = true
		q.mu.Unlock()
		r.hintSamplesDropped.Add(uint64(len(samples)))
		return
	}
	q.samples = append(q.samples, samples...)
	dropped := 0
	if over := len(q.samples) - limit; over > 0 {
		q.samples = append(q.samples[:0], q.samples[over:]...)
		q.lossy = true
		dropped = over
	}
	q.mu.Unlock()
	r.hintSamplesQueued.Add(uint64(len(samples)))
	if dropped > 0 {
		r.hintSamplesDropped.Add(uint64(dropped))
	}
}

// queueTombstoneHint buffers one failed tombstone apply. Tombstones share
// the sample bound; overflow marks the queue lossy (the member stays
// read-gated until SyncNode).
func (r *RingDB) queueTombstoneHint(name string, seq uint64, ms []*labels.Matcher) {
	limit := int(r.hintLimit.Load())
	q := r.hintQueueFor(name)
	q.mu.Lock()
	if limit <= 0 || len(q.tombs) >= limit {
		q.lossy = true
		q.mu.Unlock()
		return
	}
	q.tombs = append(q.tombs, tombHint{seq: seq, ms: ms})
	q.mu.Unlock()
	r.hintTombsQueued.Add(1)
}

// drainHints hands a member's buffered hints back to it: tombstones first
// (they gate reads), then samples in handoff-sized batches. A lossless
// complete drain proves the member missed nothing the coordinator saw, so
// its warming and tombstone-stale gates clear and it rejoins read coverage
// without a full peer sync. A failed drain re-queues what was not applied
// and returns the error; a lossy drain applies what survived but leaves the
// gates to SyncNode.
func (r *RingDB) drainHints(name string) (HintDrainStats, error) {
	_, members := r.snapshot()
	m := members[name]
	if m == nil {
		return HintDrainStats{}, fmt.Errorf("cluster: drain hints: no member %q", name)
	}
	q := r.hintQueueFor(name)
	q.mu.Lock()
	samples, tombs, lossy := q.samples, q.tombs, q.lossy
	q.samples, q.tombs = nil, nil
	q.mu.Unlock()

	st := HintDrainStats{Lossless: !lossy}
	if lossy && len(samples) > 0 {
		// A lossy queue's surviving samples are the NEWEST of the outage.
		// Applying them would raise each series' append watermark past the
		// dropped window, and the append-only head would then reject the
		// full sync's older back-fill — a permanent hole. Discard them
		// (counted) and let SyncNode deliver the whole window in order;
		// tombstones below still apply, they carry no ordering.
		r.hintSamplesDropped.Add(uint64(len(samples)))
		samples = nil
	}
	requeue := func(ts []tombHint, ss []tsdb.BatchSample) {
		q.mu.Lock()
		// Concurrent commits may have queued fresh hints after the swap;
		// the re-queued remainder is older and goes first.
		q.tombs = append(ts, q.tombs...)
		q.samples = append(ss, q.samples...)
		q.mu.Unlock()
	}
	for i, th := range tombs {
		if _, err := m.ApplyTombstone(th.seq, th.ms...); err != nil {
			requeue(tombs[i:], samples)
			return st, fmt.Errorf("cluster: drain hints %s: %w", name, err)
		}
		st.Tombstones++
		r.hintTombsDrained.Add(1)
	}
	for len(samples) > 0 {
		n := len(samples)
		if n > handoffBatchSize {
			n = handoffBatchSize
		}
		applied, err := m.BatchAppend(samples[:n])
		if err != nil {
			requeue(nil, samples)
			return st, fmt.Errorf("cluster: drain hints %s: %w", name, err)
		}
		st.SamplesOffered += n
		st.SamplesApplied += applied
		r.hintSamplesDrained.Add(uint64(n))
		samples = samples[n:]
	}
	if !lossy {
		// Everything the coordinator failed to deliver since the last sync
		// has now landed: the member's history is whole again.
		m.tombStale.Store(false)
		if m.warming.Load() {
			m.warming.Store(false)
			r.topoGen.Add(1)
		}
	}
	return st, nil
}

// clearHintLossy resets a member's lossy marker; called by SyncNode once
// the full anti-entropy pull has provably filled every hole.
func (r *RingDB) clearHintLossy(name string) {
	q := r.hintQueueFor(name)
	q.mu.Lock()
	q.lossy = false
	q.mu.Unlock()
}

// hint-related coordinator state, embedded in RingDB (ringdb.go).
type hintState struct {
	hintMu    sync.Mutex
	hints     map[string]*hintQueue
	hintLimit atomic.Int64

	hintSamplesQueued  atomic.Uint64
	hintSamplesDropped atomic.Uint64
	hintSamplesDrained atomic.Uint64
	hintTombsQueued    atomic.Uint64
	hintTombsDrained   atomic.Uint64
}
