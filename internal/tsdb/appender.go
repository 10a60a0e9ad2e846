package tsdb

import (
	"sync"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
)

// Appender accumulates samples for many series and routes them to their
// shards on Commit. Grouping by shard lets a whole batch resolve its series
// with one read-lock pass per shard (plus one write-lock pass for series
// seen for the first time) instead of a lock round-trip per sample, which
// is the shape of a scrape: hundreds of samples, a handful of shards.
//
// An Appender is not safe for concurrent use; create one per goroutine.
type Appender struct {
	db        *DB
	byShard   [][]pendingSample
	count     int
	lastStats CommitStats
	samples   []model.Sample // one shard's (t, v) pairs, staged for commitShard
}

// CommitStats breaks down what happened to the samples of the last Commit.
// Appended counts samples applied in order; OOOAccepted counts samples that
// landed in the out-of-order buffer (always 0 with the window off);
// Duplicates counts exact (series, timestamp) repeats silently skipped under
// the window; TooOld counts samples rejected for falling outside it.
type CommitStats struct {
	Appended    int
	OOOAccepted int
	Duplicates  int
	TooOld      int
}

type pendingSample struct {
	hash  uint64
	lset  labels.Labels
	entry *labels.CacheEntry // set by AddEntry: where the series' handle is kept
	t     int64
	v     float64
}

// pendingLists holds the per-shard pending lists of committed appenders, so
// that the next batch (a scrape pass or a rule evaluation takes a fresh
// Appender) reuses their room instead of growing its lists from empty.
var pendingLists sync.Pool

// stage appends p to shard i's pending list, taking a pooled list first.
func (a *Appender) stage(i uint64, p pendingSample) {
	if a.byShard[i] == nil {
		if l, ok := pendingLists.Get().(*[]pendingSample); ok {
			a.byShard[i] = *l
		}
	}
	a.byShard[i] = append(a.byShard[i], p)
	a.count++
}

// Appender returns an empty batch appender for the DB.
func (db *DB) Appender() *Appender {
	return &Appender{db: db, byShard: make([][]pendingSample, len(db.shards))}
}

// Add buffers one sample; nothing is visible to queries until Commit.
// The lset slice is retained (its hash decides the shard here, series
// resolution happens at Commit) — the caller must not mutate it until
// Commit returns, or a series could be created in the wrong shard and
// break the one-shard-per-series invariant the query merge relies on.
func (a *Appender) Add(lset labels.Labels, t int64, v float64) {
	h := lset.Hash()
	a.stage(h&a.db.mask, pendingSample{hash: h, lset: lset, t: t, v: v})
}

// AddEntry is Add by ref: it buffers one sample of the series e.Labels names.
// At Commit the series is found through the handle the head published on e
// at an earlier commit, with no label set hashed, looked up or compared;
// only when e has no handle this head can trust is the series resolved by
// its labels, as Add's are, and the new handle published on e. e.Labels is
// retained as Add retains lset and, unlike Add's, kept uncopied by a series
// it creates: a cache entry's set is immutable.
func (a *Appender) AddEntry(e *labels.CacheEntry, t int64, v float64) {
	h := e.Hash()
	a.stage(h&a.db.mask, pendingSample{hash: h, lset: e.Labels, entry: e, t: t, v: v})
}

// Pending returns the number of buffered samples.
func (a *Appender) Pending() int { return a.count }

// Commit appends all buffered samples and resets the appender. Out-of-order
// samples are skipped (the scrape loop's tolerance for overlapping
// retries); any other error aborts the commit. Returns the number of
// samples actually appended.
//
// Each touched shard is one commitShard: with a WAL-backed head its
// accepted samples (plus registrations for series seen for the first time)
// are journalled as one buffered write and one flush — the durability cost
// of a scrape is O(shards touched), not O(samples).
func (a *Appender) Commit() (int, error) {
	var stats CommitStats
	var err error
	m := a.db.metrics
	var commitStart time.Time
	if m != nil {
		commitStart = time.Now()
	}
	// One acceptance bound for the whole commit: every sample in the batch
	// is judged against the head's max time as of commit start.
	ooo := a.db.oooCtx()
	for i, batch := range a.byShard {
		if len(batch) == 0 {
			continue
		}
		sh := a.db.shards[i]
		a.samples = a.samples[:0]
		for _, p := range batch {
			a.samples = append(a.samples, model.Sample{T: p.t, V: p.v})
		}
		var st CommitStats
		st, err = a.db.commitShard(sh, sh.resolveBatch(batch), a.samples, ooo, true)
		stats.Appended += st.Appended
		stats.OOOAccepted += st.OOOAccepted
		stats.Duplicates += st.Duplicates
		stats.TooOld += st.TooOld
		if err != nil {
			break
		}
	}
	// The lists go back to the pool cleared, so that a pooled list keeps no
	// label set or cache entry alive.
	a.count = 0
	for i, l := range a.byShard {
		if l != nil {
			clear(l)
			l = l[:0]
			pendingLists.Put(&l)
			a.byShard[i] = nil
		}
	}
	a.lastStats = stats
	if m != nil {
		m.commitSeconds.ObserveSince(commitStart)
	}
	return stats.Appended + stats.OOOAccepted, err
}

// LastCommitStats returns the outcome breakdown of the most recent Commit.
// The remote-write receiver reads it to report out-of-order/duplicate
// counts per request.
func (a *Appender) LastCommitStats() CommitStats { return a.lastStats }

// seriesHandle is what the head publishes on a labels.CacheEntry: the series
// the entry's labels resolved to and the shard they resolved in, which is
// how a handle from another head — one closed since, or a replica's — is
// told apart.
type seriesHandle struct {
	sh *headShard
	s  *memSeries
}

// resolveBatch maps each pending sample to its memSeries, looking up the
// whole batch under one read lock and creating any misses under one write
// lock. A sample staged by AddEntry takes its entry's handle when the handle
// is this shard's and its series is still attached (dropped is written under
// the shard's write lock); otherwise it resolves by labels and publishes the
// series it finds or creates on the entry. A series created for an entry
// keeps the entry's immutable label set as it is; one created by Add copies
// the caller's.
func (sh *headShard) resolveBatch(batch []pendingSample) []*memSeries {
	out := make([]*memSeries, len(batch))
	missing := false
	sh.mu.RLock()
	for i, p := range batch {
		if p.entry != nil {
			if h, _ := p.entry.Handle().(*seriesHandle); h != nil && h.sh == sh && !h.s.dropped {
				out[i] = h.s
				continue
			}
		}
		if s := sh.lookupLocked(p.hash, p.lset); s != nil {
			out[i] = s
			sh.publish(p.entry, s)
		} else {
			missing = true
		}
	}
	sh.mu.RUnlock()
	if !missing {
		return out
	}
	sh.mu.Lock()
	for i, p := range batch {
		if out[i] == nil {
			out[i] = sh.getOrCreateLocked(p.hash, p.lset, p.entry != nil)
			sh.publish(p.entry, out[i])
		}
	}
	sh.mu.Unlock()
	return out
}

// publish sets e's handle to s, a series of sh attached to it; a nil e is a
// sample staged by labels. The caller holds sh.mu, in either mode.
func (sh *headShard) publish(e *labels.CacheEntry, s *memSeries) {
	if e != nil {
		e.SetHandle(&seriesHandle{sh: sh, s: s})
	}
}
