// Ring-routed replicated storage: the write path of the cluster
// distribution layer. A RingDB looks like one tsdb to the rest of the
// stack — scrape batches, rule outputs, retention, deletes, the query
// cache's Head watermark — but underneath it places every series on R
// members of a consistent-hash ring and acknowledges a write only after W
// of them applied it durably (each member keeps its own WAL, so an ack
// means "journaled on W disks", the same durability contract a single
// node gives for one disk).
//
// Members carry fault injection (kill, partition, refuse writes) so the
// chaos harness can break any one of them mid-scrape and prove the quorum
// math holds: acked data stays readable and a revived member recovers
// byte-exactly through WAL replay plus anti-entropy handoff (handoff.go).
package cluster

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb"
	"repro/internal/workpool"
)

var (
	// ErrNodeDown marks a member whose process is gone (killed, not yet
	// revived). Its db pointer is nil; nothing is servable.
	ErrNodeDown = errors.New("cluster: node down")
	// ErrNodePartitioned marks a member that is alive but unreachable from
	// the coordinator — writes don't arrive, reads don't answer.
	ErrNodePartitioned = errors.New("cluster: node partitioned")
	// ErrNodeWarming marks a member mid-handoff: it accepts writes (so it
	// converges) but is excluded from read coverage until SyncNode finishes,
	// because its history may still have holes.
	ErrNodeWarming = errors.New("cluster: node warming up")
	// ErrDiskFull marks a member whose WAL volume stopped accepting writes.
	// The member still answers reads from what it holds.
	ErrDiskFull = errors.New("cluster: node disk full, write rejected")
	// ErrNodeStale marks a member that missed an acked delete tombstone: it
	// refuses reads until SyncNode's tombstone union reaches it, because a
	// merge including its answer could resurrect deleted series.
	ErrNodeStale = errors.New("cluster: node missing delete tombstones")
)

// QuorumWriteError reports a batch commit that could not reach W acks for
// some owner group. Samples routed to that group are NOT acked; samples in
// groups that met quorum landed normally.
type QuorumWriteError struct {
	Group     []string
	Need, Got int
}

func (e *QuorumWriteError) Error() string {
	return fmt.Sprintf("cluster: write quorum failed: owner group %v acked %d/%d (need %d)",
		e.Group, e.Got, len(e.Group), e.Need)
}

// Member is one ring node: a *tsdb.DB behind an injectable fault surface.
// It is a source of the ring's quorum read (read.go) and the replication
// target for batch appends (writes). The db pointer is atomic so
// Kill/Revive swap it without stalling in-flight operations on other
// members.
type Member struct {
	name string

	db          atomic.Pointer[tsdb.DB]
	partitioned atomic.Bool
	warming     atomic.Bool
	diskFull    atomic.Bool
	// tombStale gates reads on a member that missed a delete tombstone
	// (tombstones.go); serving reads from it could resurrect the series.
	tombStale atomic.Bool
}

// Name returns the member's ring name.
func (m *Member) Name() string { return m.name }

// DB returns the live tsdb, or nil when the node is down.
func (m *Member) DB() *tsdb.DB { return m.db.Load() }

// reachable is the fault-injection check both paths share.
func (m *Member) reachable() (*tsdb.DB, error) {
	if m.partitioned.Load() {
		return nil, ErrNodePartitioned
	}
	db := m.db.Load()
	if db == nil {
		return nil, ErrNodeDown
	}
	return db, nil
}

// BatchAppend applies a replicated batch, honoring fault injection. A nil
// error is a durability ack under the member's own WAL policy.
func (m *Member) BatchAppend(batch []tsdb.BatchSample) (int, error) {
	db, err := m.reachable()
	if err != nil {
		return 0, err
	}
	if m.diskFull.Load() {
		return 0, ErrDiskFull
	}
	return db.BatchAppend(batch)
}

// readable is the read-path gate the ring's quorum read goes through:
// on top of reachability, warming members refuse reads (their history may
// miss acked samples until handoff completes) and tombstone-stale members
// refuse reads (their history may contain acked-deleted series) — counting
// either toward read coverage would break the quorum merge.
func (m *Member) readable() (*tsdb.DB, error) {
	db, err := m.reachable()
	if err != nil {
		return nil, err
	}
	if m.warming.Load() {
		return nil, ErrNodeWarming
	}
	if m.tombStale.Load() {
		return nil, ErrNodeStale
	}
	return db, nil
}

// RingDB coordinates N members behind one tsdb-shaped facade. All methods
// are safe for concurrent use; topology changes (Kill/Revive/Join/Leave)
// serialize on the mutex while the data paths read a consistent snapshot.
type RingDB struct {
	// R is the replication factor, W the write quorum: 1 <= W <= R <= N.
	R, W int

	mu      sync.RWMutex
	ring    *Ring
	members map[string]*Member
	// open recreates a member's tsdb from its (per-name) WAL dir; Revive and
	// Join depend on it.
	open func(name string) (*tsdb.DB, error)
	// topoGen advances on every topology change and folds into MutationGen,
	// so the query cache drops every entry rather than trusting watermarks
	// computed over a different member set.
	topoGen atomic.Uint64

	// deleteMu serializes quorum deletes; deleteSeq is the monotonic
	// tombstone sequence allocator, seeded from the members' persisted logs
	// (tombstones.go).
	deleteMu  sync.Mutex
	deleteSeq uint64

	// metrics holds the ring's instruments; nil until InstrumentTelemetry.
	metrics *ringMetrics
}

// NewRingDB opens one tsdb per name through open and assembles the ring.
// vnodes <= 0 picks DefaultVirtualNodes.
func NewRingDB(rf, w, vnodes int, open func(name string) (*tsdb.DB, error), names ...string) (*RingDB, error) {
	if len(names) == 0 {
		return nil, errors.New("cluster: ring needs at least one member")
	}
	if w < 1 || rf < w || rf > len(names) {
		return nil, fmt.Errorf("cluster: need 1 <= W(%d) <= R(%d) <= nodes(%d)", w, rf, len(names))
	}
	r := &RingDB{
		R:       rf,
		W:       w,
		ring:    NewRing(vnodes, names...),
		members: make(map[string]*Member, len(names)),
		open:    open,
	}
	for _, n := range r.ring.Nodes() {
		db, err := open(n)
		if err != nil {
			for _, m := range r.members {
				if d := m.db.Load(); d != nil {
					d.Close()
				}
			}
			return nil, fmt.Errorf("cluster: open member %s: %w", n, err)
		}
		m := &Member{name: n}
		m.db.Store(db)
		r.members[n] = m
	}
	// Startup tombstone anti-entropy: a member that was down during a
	// delete and a coordinator restart missed the tombstone fan-out, and
	// nothing has run SyncNode on it yet. The WALs remember: union every
	// member's persisted tombstone log and apply the missing entries to
	// each, so the whole cluster agrees on the delete history before
	// anything is read. The sequence allocator resumes past the max.
	dbs := make([]*tsdb.DB, 0, len(r.members))
	for _, n := range r.ring.Nodes() {
		dbs = append(dbs, r.members[n].db.Load())
	}
	for i, db := range dbs {
		if _, err := syncTombstones(db, dbs...); err != nil {
			r.Close()
			return nil, fmt.Errorf("cluster: tombstone sync %s: %w", r.ring.Nodes()[i], err)
		}
		if seq := db.TombstoneSeq(); seq > r.deleteSeq {
			r.deleteSeq = seq
		}
	}
	return r, nil
}

// Member returns a member by name, or nil.
func (r *RingDB) Member(name string) *Member {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.members[name]
}

// MemberNames returns the sorted ring membership.
func (r *RingDB) MemberNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring.Nodes()
}

// snapshot returns the current ring and member map. Both are immutable once
// published: Join and Leave install a changed copy under mu instead of
// writing the map, so the data paths iterate it without a lock and
// tolerate a member going down mid-flight via its own atomics.
func (r *RingDB) snapshot() (*Ring, map[string]*Member) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring, r.members
}

// ---- write path ----

// RingAppender buffers samples and commits them through the quorum
// fan-out. It satisfies scrape.Batch structurally, so the scrape manager's
// two-commit discipline (metrics, then staleness+synthetics) routes through
// the ring unchanged.
type RingAppender struct {
	r   *RingDB
	buf []tsdb.BatchSample
}

// NewBatch returns a reusable quorum batch.
func (r *RingDB) NewBatch() *RingAppender { return &RingAppender{r: r} }

// Add buffers one sample.
func (a *RingAppender) Add(lset labels.Labels, t int64, v float64) {
	a.buf = append(a.buf, tsdb.BatchSample{Lset: lset, T: t, V: v})
}

// ownerGroup is the per-owner-set slice of one commit.
type ownerGroup struct {
	owners  []string
	samples []tsdb.BatchSample
}

// Commit routes the buffered samples to their owner replicas and returns
// once every owner group either reached W acks or provably cannot. The
// returned count is the acked sample total (out-of-order skips excluded,
// like a single-node commit); a non-nil error means at least one group
// missed quorum and its samples are NOT acked. The batch is reusable
// either way.
func (a *RingAppender) Commit() (int, error) {
	buf := a.buf
	a.buf = a.buf[:0]
	if len(buf) == 0 {
		return 0, nil
	}
	if m := a.r.metrics; m != nil {
		defer m.quorumCommitSeconds.ObserveSince(time.Now())
	}
	ring, members := a.r.snapshot()

	// Group samples by owner set: quorum is per owner group, and grouping
	// keeps the fan-out at one BatchAppend per (group, owner) pair.
	groups := map[string]*ownerGroup{}
	var order []string
	for _, s := range buf {
		owners := ring.Owners(s.Lset.Hash(), a.r.R)
		key := fmt.Sprint(owners)
		g, ok := groups[key]
		if !ok {
			g = &ownerGroup{owners: owners}
			groups[key] = g
			order = append(order, key)
		}
		g.samples = append(g.samples, s)
	}
	sort.Strings(order)

	type call struct {
		g     *ownerGroup
		owner string
	}
	var calls []call
	for _, k := range order {
		for _, o := range groups[k].owners {
			calls = append(calls, call{g: groups[k], owner: o})
		}
	}
	applied := make([]int, len(calls))
	errs := make([]error, len(calls))
	workpool.Do(len(calls), 0, func(i int) {
		m := members[calls[i].owner]
		if m == nil {
			errs[i] = ErrNodeDown
			return
		}
		applied[i], errs[i] = m.BatchAppend(calls[i].g.samples)
	})

	total := 0
	var firstErr error
	for _, k := range order {
		g := groups[k]
		acks, landed := 0, 0
		for i := range calls {
			if calls[i].g != g {
				continue
			}
			if errs[i] == nil {
				acks++
				if applied[i] > landed {
					landed = applied[i]
				}
			}
		}
		if acks >= a.r.W {
			// Replicas agree on content, so the max applied count across
			// ackers is the new-sample count (lower counts are replicas that
			// already held a prefix and skipped it as out-of-order).
			total += landed
			continue
		}
		if firstErr == nil {
			firstErr = &QuorumWriteError{Group: g.owners, Need: a.r.W, Got: acks}
		}
	}
	return total, firstErr
}

// Append routes one sample through the quorum path — the single-sample
// Appender shape the rules manager and sim bookkeeping write through.
func (r *RingDB) Append(lset labels.Labels, t int64, v float64) error {
	b := r.NewBatch()
	b.Add(lset, t, v)
	_, err := b.Commit()
	return err
}

// AppendBatch routes samples[i] of series lsets[i] through one quorum
// commit (rules.BatchAppender). The ring reports quorum misses only, as
// Append does: a replica skipping samples it already holds is how re-sends
// stay idempotent, so a skip is never counted as a refusal.
func (r *RingDB) AppendBatch(lsets []labels.Labels, samples []model.Sample) (refused int, err error) {
	b := r.NewBatch()
	for i, s := range samples {
		b.Add(lsets[i], s.T, s.V)
	}
	_, err = b.Commit()
	return 0, err
}

// ---- tsdb-shaped maintenance and watermark facade ----

// forEachLive runs f over every member with a live db (down members skip;
// partitioned members are deliberately included — partition models a
// coordinator-to-node link cut for the data path, while maintenance here
// stands in for each node's own local janitor, which keeps running).
func (r *RingDB) forEachLive(f func(m *Member, db *tsdb.DB)) {
	_, members := r.snapshot()
	for _, n := range sortedNames(members) {
		if db := members[n].db.Load(); db != nil {
			f(members[n], db)
		}
	}
}

// Truncate prunes every member to mint. It returns the largest per-member
// drop count — replicas overlap, so a cluster-wide sum would overcount —
// plus the per-member outcome, sorted by name. Down members are skipped
// with ErrNodeDown; partitioned and warming members still truncate, for
// the same local-janitor reason forEachLive documents. A member whose WAL
// checkpoint failed reports that error. When every member is readable, so
// none can still be missing a tombstone, each retires the tombstones its
// head holds nothing of any more (tombstones.go).
func (r *RingDB) Truncate(mint int64) (int, []MemberOutcome) {
	_, members := r.snapshot()
	names := sortedNames(members)
	max, synced := 0, true
	out := make([]MemberOutcome, len(names))
	for i, n := range names {
		_, rerr := members[n].readable()
		synced = synced && rerr == nil
		db := members[n].db.Load()
		if db == nil {
			out[i] = MemberOutcome{Member: n, Err: ErrNodeDown}
			continue
		}
		cnt, err := db.Truncate(mint)
		out[i] = MemberOutcome{Member: n, Count: cnt, Err: err}
		if cnt > max {
			max = cnt
		}
	}
	if synced {
		for _, n := range names {
			if db := members[n].db.Load(); db != nil {
				db.RetireTombstones(nil)
			}
		}
	}
	return max, out
}

// MaxTime implements querycache.Head: the freshest watermark any member
// holds.
func (r *RingDB) MaxTime() (int64, bool) {
	var maxT int64
	ok := false
	r.forEachLive(func(_ *Member, db *tsdb.DB) {
		if t, has := db.MaxTime(); has && (!ok || t > maxT) {
			maxT, ok = t, true
		}
	})
	return maxT, ok
}

// PrunedThrough implements querycache.Head: the most aggressive retention
// cutoff across members (a cached range below it may be partially gone on
// some replica, so the cache must re-derive it).
func (r *RingDB) PrunedThrough() (int64, bool) {
	var maxT int64
	ok := false
	r.forEachLive(func(_ *Member, db *tsdb.DB) {
		if t, has := db.PrunedThrough(); has && (!ok || t > maxT) {
			maxT, ok = t, true
		}
	})
	return maxT, ok
}

// AppendEpoch implements querycache.Head as the member sum. Not monotonic
// across a kill — MutationGen's topology counter covers that by dropping
// all cache entries whenever the member set changes.
func (r *RingDB) AppendEpoch() uint64 {
	var sum uint64
	r.forEachLive(func(_ *Member, db *tsdb.DB) { sum += db.AppendEpoch() })
	return sum
}

// MutationGen implements querycache.Head: member mutation sum plus the
// topology generation, so kills, revivals, joins and leaves invalidate
// every cached query.
func (r *RingDB) MutationGen() uint64 {
	sum := r.topoGen.Load()
	r.forEachLive(func(_ *Member, db *tsdb.DB) { sum += db.MutationGen() })
	return sum
}

// OutOfOrderWindow reports the widest out-of-order acceptance window of
// any live member, in milliseconds (members are normally configured
// identically; the max is the safe answer if they are not). The
// query-result cache probes it to widen its mutable-tail watermark.
func (r *RingDB) OutOfOrderWindow() int64 {
	var w int64
	r.forEachLive(func(_ *Member, db *tsdb.DB) {
		if ow := db.OutOfOrderWindow(); ow > w {
			w = ow
		}
	})
	return w
}

// Close shuts every member down.
func (r *RingDB) Close() error {
	var first error
	r.forEachLive(func(m *Member, db *tsdb.DB) {
		m.db.Store(nil)
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
	})
	return first
}

// ---- chaos injection and membership ----

// Kill stops a member: its db closes (flushing its WAL like a SIGTERM) and
// every subsequent read or write fails with ErrNodeDown until Revive.
func (r *RingDB) Kill(name string) error {
	r.mu.Lock()
	m := r.members[name]
	r.mu.Unlock()
	if m == nil {
		return fmt.Errorf("cluster: kill: no member %q", name)
	}
	db := m.db.Swap(nil)
	if db == nil {
		return nil // already down
	}
	r.topoGen.Add(1)
	return db.Close()
}

// Revive reopens a killed member from its WAL and marks it warming: it
// takes writes again immediately but stays out of read coverage until
// SyncNode (or Rejoin) pulls the tail it missed while down — nothing else
// back-fills it. Sync before the next write lands: a write newer than the
// hole makes the pull skip the hole's samples, yet the gate still clears.
// Returns the WAL replay stats so callers can assert recovery actually
// happened.
func (r *RingDB) Revive(name string) (tsdb.WALReplayStats, error) {
	r.mu.Lock()
	m := r.members[name]
	r.mu.Unlock()
	if m == nil {
		return tsdb.WALReplayStats{}, fmt.Errorf("cluster: revive: no member %q", name)
	}
	if m.db.Load() != nil {
		return tsdb.WALReplayStats{}, fmt.Errorf("cluster: revive: member %q is not down", name)
	}
	db, err := r.open(name)
	if err != nil {
		return tsdb.WALReplayStats{}, fmt.Errorf("cluster: revive %s: %w", name, err)
	}
	m.warming.Store(true)
	m.diskFull.Store(false)
	m.db.Store(db)
	r.topoGen.Add(1)
	st, _ := db.WALStats()
	return st.Replay, nil
}

// Rejoin is Revive followed by the handoff sync: the member comes back,
// replays its own WAL, pulls the tail it missed from its peers, and
// rejoins read coverage.
func (r *RingDB) Rejoin(name string) (tsdb.WALReplayStats, HandoffStats, error) {
	replay, err := r.Revive(name)
	if err != nil {
		return replay, HandoffStats{}, err
	}
	sync, err := r.SyncNode(name)
	return replay, sync, err
}

// Partition cuts the coordinator's link to the named members: their reads
// and writes fail with ErrNodePartitioned until Heal.
func (r *RingDB) Partition(names ...string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, n := range names {
		if m := r.members[n]; m != nil {
			m.partitioned.Store(true)
		}
	}
}

// Heal restores every partitioned link and nothing more. Samples a healed
// member missed stay covered by the quorum — every acked sample is on W
// replicas, and any R−W+1 readers include one of them — and only SyncNode
// back-fills them onto the member. A member that missed a delete stays
// ErrNodeStale until SyncNode's tombstone union reaches it.
func (r *RingDB) Heal() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, m := range r.members {
		m.partitioned.Store(false)
	}
}

// SetDiskFull toggles write rejection on a member — the observable shape
// of a full WAL volume: appends fail, reads keep serving what landed.
func (r *RingDB) SetDiskFull(name string, full bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if m := r.members[name]; m != nil {
		m.diskFull.Store(full)
	}
}

// Join adds a new member: it enters the ring warming (so routed writes
// start landing on it at once), pulls its owned history from the existing
// members, then joins read coverage.
func (r *RingDB) Join(name string) (HandoffStats, error) {
	r.mu.Lock()
	if _, dup := r.members[name]; dup {
		r.mu.Unlock()
		return HandoffStats{}, fmt.Errorf("cluster: join: member %q already present", name)
	}
	db, err := r.open(name)
	if err != nil {
		r.mu.Unlock()
		return HandoffStats{}, fmt.Errorf("cluster: join %s: %w", name, err)
	}
	m := &Member{name: name}
	m.warming.Store(true)
	m.db.Store(db)
	members := maps.Clone(r.members)
	members[name] = m
	r.members = members
	r.ring = r.ring.WithNode(name)
	r.topoGen.Add(1)
	r.mu.Unlock()
	return r.SyncNode(name)
}

// Leave removes a member gracefully: ownership moves to the surviving
// ring first, the successors pull what only the leaver held (it still
// answers as a data source during the sync), and only then does it close.
func (r *RingDB) Leave(name string) (HandoffStats, error) {
	r.mu.Lock()
	m := r.members[name]
	if m == nil {
		r.mu.Unlock()
		return HandoffStats{}, fmt.Errorf("cluster: leave: no member %q", name)
	}
	if r.ring.Len() <= r.R {
		r.mu.Unlock()
		return HandoffStats{}, fmt.Errorf("cluster: leave would shrink below replication factor %d", r.R)
	}
	r.ring = r.ring.WithoutNode(name)
	r.topoGen.Add(1)
	successors := r.ring.Nodes()
	r.mu.Unlock()

	// New owners of the departed ranges pull their history while the leaver
	// is still queryable.
	var total HandoffStats
	for _, succ := range successors {
		st, err := r.SyncNode(succ)
		if err != nil {
			return total, fmt.Errorf("cluster: leave %s: sync %s: %w", name, succ, err)
		}
		total.add(st)
	}

	r.mu.Lock()
	members := maps.Clone(r.members)
	delete(members, name)
	r.members = members
	r.mu.Unlock()
	db := m.db.Swap(nil)
	if db != nil {
		return total, db.Close()
	}
	return total, nil
}
