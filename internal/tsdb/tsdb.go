// Package tsdb implements the time-series database substrate of the CEEMS
// stack: an in-memory head with Gorilla-compressed chunks, an inverted label
// index, matcher-based series selection, retention, series deletion (used by
// the CEEMS API server to reduce cardinality) and block cutting for
// replication to long-term storage (the Thanos role in the paper's Fig. 1).
//
// # Sharded head
//
// The head is lock-striped into N shards (Options.Shards rounded up to a
// power of two; the default is GOMAXPROCS rounded up; a reopened WAL
// directory keeps the count it was written with). A series lives in
// exactly one shard, chosen by its labels hash (shard = hash & (N-1)); each
// shard owns an independent RWMutex, series map, inverted postings index and
// retention state. Appends route by hash and touch only their stripe — two
// goroutines writing different series contend only when the hashes collide
// in one shard — and the per-shard sample counters and time bounds are
// maintained with atomics, off the lock path entirely.
//
// Reads visit the shards on the caller's goroutine. A read plans first —
// every shard resolves the matchers through its postings into one flat list
// of series — then copies and sorts the windows of that list, split over
// cores by series only when it is long enough to pay for waking one, so
// output is byte-identical regardless of shard count (read.go, the one
// reader of the head and the blocks below).
// Deletes, retention pruning (Truncate), block cuts and checkpoints run
// per shard on a bounded worker pool with no cross-shard locking.
//
// # Persistent blocks
//
// Beyond the head, the package owns the on-disk block layer the cold tier
// (internal/thanos) is built from. A block has one representation, the
// block directory: CutPersistentBlock cuts a time window of the head, in
// parallel per shard, straight into one (block.go); blockdir.go defines the
// crash-safe format (meta.json commit point, CRC'd index + mmap'd Gorilla
// chunk segment), blockread.go the lazy reference-counted read path, and
// compact.go merging, tombstone application and 5m/1h sum/count/min/max
// downsampling. The lifecycle end to end is documented
// in docs/ARCHITECTURE.md.
package tsdb

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dirlock"
	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/tsdb/chunkenc"
)

// ErrOutOfOrder is returned when appending a sample at or before the last
// timestamp of its series.
var ErrOutOfOrder = errors.New("tsdb: out of order sample")

// ErrClosed is returned by a write to a WAL-backed head after Close: the
// sample may be in memory, but it was not journalled.
var ErrClosed = errors.New("tsdb: closed")

// ErrTooOld is returned when the head accepts bounded out-of-order samples
// (Options.OutOfOrderWindow > 0) but the sample is older than the window.
// It wraps ErrOutOfOrder so existing skip-on-out-of-order call sites treat
// both the same way.
var ErrTooOld = fmt.Errorf("%w: older than the out-of-order window", ErrOutOfOrder)

// defaultSamplesPerChunk is the chunk size of a head that names none and of
// every block compaction and downsampling write; 120 is the Prometheus
// default.
const defaultSamplesPerChunk = 120

// Options configure a DB.
type Options struct {
	// MaxSamplesPerChunk bounds chunk size in the head and in the blocks it
	// cuts; 0 picks 120, the Prometheus default. A chunk counts its samples
	// in 16 bits, so Open rejects anything above math.MaxUint16.
	MaxSamplesPerChunk int
	// Shards is the number of lock stripes of a new head, rounded up to a
	// power of two; 0 picks GOMAXPROCS rounded up. 1 yields the old
	// single-lock behavior (useful for equivalence testing). A WALDir that
	// already holds a journal overrides it: the head reopens with the shard
	// count the journal was written with.
	Shards int
	// WALDir, when non-empty, makes the head durable: every shard journals
	// its appends to a segmented write-ahead log under this directory and
	// Open replays existing journals in parallel before returning (see
	// wal.go / walreplay.go). Empty keeps the head memory-only.
	WALDir string
	// WALSegmentSize rotates WAL segments at this many bytes; 0 picks
	// DefaultWALSegmentSize.
	WALSegmentSize int64
	// OutOfOrderWindow, in milliseconds, bounds how far behind the head's
	// newest sample an append may land and still be accepted (the
	// remote-write retry case: an agent resends a batch that partially
	// committed before a timeout). 0 — the default — keeps the strict
	// behavior: any non-increasing timestamp within a series fails with
	// ErrOutOfOrder. When > 0, a sample older than its series' last
	// timestamp is accepted iff it is newer than (head max time − window);
	// samples past the window fail with ErrTooOld and exact duplicates
	// (same series, same timestamp) are silently skipped, which is what
	// makes retries idempotent. Accepted out-of-order samples journal as
	// ordinary WAL sample records (which round-trip backwards timestamps)
	// and queries merge them in timestamp order.
	OutOfOrderWindow int64
	// Telemetry, when set, registers the head's instruments (append
	// outcome counters, batch commit latency, WAL flush/fsync bytes and
	// latency, live-series gauge) on the registry; see telemetry.go. Nil
	// leaves the head uninstrumented at one branch per commit.
	Telemetry *telemetry.Registry
}

// DefaultOptions returns production-like defaults. The head prunes nothing
// by itself: whoever owns retention calls Truncate (the block-store sidecar
// after a ship, or a head-only process on its tsdb.retention setting).
func DefaultOptions() Options {
	return Options{MaxSamplesPerChunk: defaultSamplesPerChunk}
}

// DB is the in-memory time-series database, optionally backed by a
// per-shard write-ahead log. All methods are safe for concurrent use.
type DB struct {
	opts   Options
	shards []*headShard
	mask   uint64

	selectGrain int // the constant; a field so tests can force a read fanned out or inline

	// kept is the label lists merged across the shards (labellists.go).
	kept keptLabels

	// mutations counts destructive cross-series operations (deletes);
	// the query-result cache invalidates on any change (see MutationGen).
	mutations atomic.Uint64
	// pruned is the highest retention cutoff ever applied (Truncate's mint),
	// or minInt64 when the head was never pruned; see PrunedThrough.
	pruned atomic.Int64
	// whole is the head's whole-from watermark; see WholeFrom.
	whole atomic.Int64

	// tombs is the tombstone log (tombstones.go). It is a pointer so that a
	// read loading the log through Sources.Head leaves the caller's Sources
	// on its stack: a load straight out of the DB would move them to the
	// heap (BenchmarkBlockSelect's allocs/op).
	tombs *tombstones

	walReplay WALReplayStats
	walErrMu  sync.Mutex
	walErr    error
	// lock makes the DB the WAL directory's one owner; nil without one.
	lock *dirlock.Lock

	// metrics is the hot-path instrumentation, nil when Options.Telemetry
	// was unset; commit paths branch on it once per commit.
	metrics *tsdbMetrics
}

type memSeries struct {
	ref  uint64
	lset labels.Labels
	// walRef is the series' ref in its shard's WAL (0 = not yet journalled).
	// Guarded by the shard WAL's mutex, not s.mu: every WAL writer holds it,
	// and replay finishes before writers exist.
	walRef uint64
	// dropped marks a series detached from its shard (a delete or
	// retention pruning). Journal paths check it so a writer that resolved
	// the series before a racing removal cannot journal records that would
	// resurrect it on replay. Set under the shard lock — with the shard WAL
	// mutex also held whenever a WAL exists — and read under the WAL mutex.
	dropped bool
	hasAny  bool // guarded by mu, as everything below; next to dropped, it costs no padding

	mu     sync.Mutex
	chunks []*chunkRange // closed, in time order
	head   *chunkRange   // the open chunk, nil until a sample opens one
	// lastT, lastV is the newest in-order sample, which is the series' newest
	// while the chunk holding it is kept: out-of-order samples are older.
	lastT int64
	lastV float64
	// ooo holds accepted out-of-order samples, sorted by timestamp and
	// deduplicated; queries merge it with the in-order chunks (in-order
	// wins on a timestamp tie). Always empty when Options.OutOfOrderWindow
	// is 0.
	ooo []model.Sample
}

// chunkRange is a chunk, its time bounds and its seek marks: one after every
// markEvery-th sample but the chunk's last, taken while it is open.
type chunkRange struct {
	min, max int64
	chunk    *chunkenc.Chunk
	marks    []chunkenc.Mark
}

// markEvery is how many in-order samples of a head chunk lie between two seek
// marks: a head read decodes fewer than this many samples before its window,
// for 32 bytes of mark per markEvery samples.
const markEvery = 32

// seekBefore resumes it, an iterator at the start of the chunk marks were
// taken of, after the last mark earlier than t: every sample it skips is
// before t.
func seekBefore(it *chunkenc.Iterator, marks []chunkenc.Mark, t int64) {
	for i := len(marks) - 1; i >= 0; i-- {
		if marks[i].T() < t {
			it.Resume(marks[i])
			return
		}
	}
}

// nextPow2 returns the smallest power of two >= n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// maxShards caps the head's shard count.
const maxShards = 1024

// Open creates a DB with the given options. With Options.WALDir set it
// locks the directory (a second Open of it fails until Close), takes the
// shard count the directory's journal was written with (Options.Shards
// sizes only a directory that holds none), replays the shard journals in
// parallel (rebuilding series, postings and samples, repairing torn tails)
// and attaches a writer to every shard before returning; WALReplayStats on
// Stats/WALStats describe what was recovered.
func Open(opts Options) (*DB, error) {
	if opts.MaxSamplesPerChunk <= 0 {
		opts.MaxSamplesPerChunk = defaultSamplesPerChunk
	}
	if opts.MaxSamplesPerChunk > math.MaxUint16 {
		return nil, fmt.Errorf("tsdb: MaxSamplesPerChunk %d exceeds a chunk's %d-sample limit", opts.MaxSamplesPerChunk, math.MaxUint16)
	}
	n := opts.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	n = min(nextPow2(n), maxShards)
	db := &DB{opts: opts, selectGrain: selectGrain, tombs: &tombstones{}}
	db.pruned.Store(-(int64(1) << 62))
	db.whole.Store(math.MinInt64)
	if opts.WALDir == "" {
		db.initShards(n)
	} else if err := db.openWAL(n); err != nil {
		db.lock.Release()
		return nil, fmt.Errorf("tsdb: open wal: %w", err)
	}
	if opts.Telemetry != nil {
		db.instrument(opts.Telemetry)
	}
	return db, nil
}

// initShards gives the head n empty shards; n is a power of two.
func (db *DB) initShards(n int) {
	db.opts.Shards = n
	db.shards = make([]*headShard, n)
	db.mask = uint64(n - 1)
	for i := range db.shards {
		db.shards[i] = newHeadShard(&db.kept)
	}
}

// MustOpen is Open for callers that cannot fail — memory-only heads in
// tests and examples. It panics on error, which a WALDir-less Open never
// returns.
func MustOpen(opts Options) *DB {
	db, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return db
}

// NumShards returns the number of head shards (a power of two).
func (db *DB) NumShards() int { return len(db.shards) }

func (db *DB) shardFor(hash uint64) *headShard {
	return db.shards[hash&db.mask]
}

// Append adds one sample for the series identified by lset. The series is
// created on first append. Returns ErrOutOfOrder for non-increasing
// timestamps within a series.
func (db *DB) Append(lset labels.Labels, t int64, v float64) error {
	return db.AppendSeries(lset, []model.Sample{{T: t, V: v}})
}

// AppendSeries appends a batch of samples of one series, resolving the
// series and taking its lock once for the whole batch. It stops at the
// first sample the head refuses and returns that sample's error; exact
// duplicates under the out-of-order window are skipped, not refused.
func (db *DB) AppendSeries(lset labels.Labels, samples []model.Sample) error {
	if len(samples) == 0 {
		return nil
	}
	h := lset.Hash()
	sh := db.shardFor(h)
	s := sh.getOrCreate(h, lset)
	_, err := db.commitShard(sh, []*memSeries{s}, samples, db.oooCtx(), false)
	return err
}

// commitShard is the head's one write sequence (docs/ARCHITECTURE.md, "One
// commit"). The caller has resolved the series in sh: samples[i] goes to
// series[i], or every sample to series[0] when that is the only one. The
// shard's WAL mutex spans the memory apply and the journal write, so the
// per-series log order matches the apply order; a series' lock is taken
// once per run of its samples. One logLocked journals the first-seen
// series and every accepted sample; then the shard's time bounds and the
// outcome counters move.
//
// A refused sample stops the sequence and is returned, except that with
// skipOutOfOrder set ErrOutOfOrder refusals (ErrTooOld included) are
// counted and passed over. What was accepted before a stop is journalled
// and stays. A journal error is returned when no sample error is: the
// samples are in the head either way, they just may not survive a restart.
func (db *DB) commitShard(sh *headShard, series []*memSeries, samples []model.Sample, ooo *oooAppendCtx, skipOutOfOrder bool) (CommitStats, error) {
	var (
		stats     CommitStats
		err       error
		held      *memSeries
		mint      = int64(1) << 62
		maxt      = -(int64(1) << 62)
		newSeries []walSeriesRec
	)
	w := sh.wal
	if w != nil {
		w.mu.Lock()
		w.recs = w.recs[:0]
	}
	for i, smp := range samples {
		s := series[min(i, len(series)-1)]
		if s != held {
			if held != nil {
				held.mu.Unlock()
			}
			s.mu.Lock()
			held = s
		}
		outcome, aerr := s.appendLocked(smp.T, smp.V, db.opts.MaxSamplesPerChunk, ooo)
		if aerr != nil {
			if errors.Is(aerr, ErrTooOld) {
				stats.TooOld++
			}
			if skipOutOfOrder && errors.Is(aerr, ErrOutOfOrder) {
				continue
			}
			err = aerr
			break
		}
		switch outcome {
		case appendDuplicate:
			stats.Duplicates++
			continue
		case appendOOO:
			stats.OOOAccepted++
		default:
			stats.Appended++
		}
		// A series detached by a delete or Truncate that raced the caller's
		// resolve must not be journalled, or replay would resurrect it.
		if w != nil && !s.dropped {
			ref, isNew := w.refForLocked(s)
			if isNew {
				newSeries = append(newSeries, walSeriesRec{ref: ref, lset: s.lset})
			}
			w.recs = append(w.recs, walSampleRec{ref: ref, t: smp.T, v: smp.V})
		}
		mint, maxt = min(mint, smp.T), max(maxt, smp.T)
	}
	if held != nil {
		held.mu.Unlock()
	}
	if w != nil {
		if lerr := w.logLocked(newSeries, w.recs); lerr != nil && err == nil {
			err = lerr
		}
		w.mu.Unlock()
	}
	if n := stats.Appended + stats.OOOAccepted; n > 0 {
		sh.noteAppend(mint, maxt, uint64(n))
	}
	if m := db.metrics; m != nil && stats.OOOAccepted+stats.Duplicates+stats.TooOld > 0 {
		m.oooAccepted.Add(uint64(stats.OOOAccepted))
		m.duplicates.Add(uint64(stats.Duplicates))
		m.tooOld.Add(uint64(stats.TooOld))
	}
	return stats, err
}

// appendOutcome says where appendLocked put a sample (or why it didn't).
type appendOutcome uint8

const (
	appendInOrder appendOutcome = iota
	appendOOO
	appendDuplicate
	appendFailed
)

// oooAppendCtx carries the out-of-order acceptance bound for one append or
// batch commit. A nil ctx means the window is off (strict ordering). The
// bound is snapshotted once per commit from the head's max time, matching
// Prometheus' global out-of-order window: acceptance depends on how far the
// whole head has advanced, not on the individual series.
type oooAppendCtx struct {
	bound int64
}

// oooCtx returns the acceptance context for one append/commit, or nil when
// the window is disabled. Samples at or below the returned bound are too old.
func (db *DB) oooCtx() *oooAppendCtx {
	w := db.opts.OutOfOrderWindow
	if w <= 0 {
		return nil
	}
	_, maxt := db.timeBounds()
	if maxt == -(int64(1) << 62) {
		// Empty head: nothing to be out of order against.
		return &oooAppendCtx{bound: -(int64(1) << 62)}
	}
	return &oooAppendCtx{bound: maxt - w}
}

// OutOfOrderWindow returns Options.OutOfOrderWindow in milliseconds (0 when
// the head is strictly ordered). The query-result cache probes it to widen
// its mutable-tail watermark.
func (db *DB) OutOfOrderWindow() int64 { return db.opts.OutOfOrderWindow }

// appendLocked adds one sample; the caller holds s.mu. ooo carries the
// out-of-order acceptance bound, or nil for strict ordering. The outcome
// tells the caller whether the sample landed in order, landed in the
// out-of-order buffer, or was skipped as an exact duplicate (nil error —
// duplicates must not be journalled or counted).
func (s *memSeries) appendLocked(t int64, v float64, maxPerChunk int, ooo *oooAppendCtx) (appendOutcome, error) {
	if s.hasAny && t <= s.lastT {
		if ooo == nil {
			return appendFailed, fmt.Errorf("%w: t=%d last=%d series=%s", ErrOutOfOrder, t, s.lastT, s.lset)
		}
		if t == s.lastT {
			return appendDuplicate, nil
		}
		if t <= ooo.bound {
			return appendFailed, fmt.Errorf("%w: t=%d bound=%d series=%s", ErrTooOld, t, ooo.bound, s.lset)
		}
		// Insert into the sorted out-of-order buffer, skipping duplicates.
		i := sort.Search(len(s.ooo), func(i int) bool { return s.ooo[i].T >= t })
		if i < len(s.ooo) && s.ooo[i].T == t {
			return appendDuplicate, nil
		}
		if s.hasInOrderSampleLocked(t) {
			// The retry case: the timestamp already landed in order before
			// the agent resent it. Skipping keeps the invariant that the
			// head (and therefore the WAL) never stores two samples at one
			// (series, timestamp) — retries are idempotent, not additive.
			return appendDuplicate, nil
		}
		s.ooo = append(s.ooo, model.Sample{})
		copy(s.ooo[i+1:], s.ooo[i:])
		s.ooo[i] = model.Sample{T: t, V: v}
		return appendOOO, nil
	}
	h := s.head
	if h == nil {
		h = &chunkRange{min: t, chunk: chunkenc.NewChunk()}
		s.head = h
	}
	if err := h.chunk.Append(t, v); err != nil {
		return appendFailed, err
	}
	h.max, s.lastT, s.lastV = t, t, v
	s.hasAny = true
	switch n := h.chunk.NumSamples(); {
	case n >= maxPerChunk:
		s.chunks = append(s.chunks, h)
		s.head = nil
	case n%markEvery == 0:
		if h.marks == nil {
			h.marks = make([]chunkenc.Mark, 0, (maxPerChunk-1)/markEvery)
		}
		h.marks = append(h.marks, h.chunk.Mark())
	}
	return appendInOrder, nil
}

// chunkAt returns chunk i of the series: its closed chunks, then the open one.
func (s *memSeries) chunkAt(i int) *chunkRange {
	if i < len(s.chunks) {
		return s.chunks[i]
	}
	return s.head
}

// hasInOrderSampleLocked reports whether timestamp t is already present in
// the series' in-order data (closed chunks or the open head chunk). The
// caller holds s.mu. Cost is the decode of one chunk from its last seek
// mark before t — paid only on the out-of-order path, where a hit means a
// resent batch.
func (s *memSeries) hasInOrderSampleLocked(t int64) bool {
	scan := func(cr *chunkRange) bool {
		var at [1]model.Sample
		// A chunk that fails to decode holds t only if t came before the
		// failure: the samples decoded up to it are all there is to check.
		found, _ := appendChunk(at[:0], cr.chunk, cr.marks, t, t, nil)
		return len(found) != 0
	}
	// Chunks are in time order; find the first one that could hold t.
	i := sort.Search(len(s.chunks), func(i int) bool { return s.chunks[i].max >= t })
	if i < len(s.chunks) && s.chunks[i].min <= t {
		return scan(s.chunks[i])
	}
	if h := s.head; h != nil && h.min <= t && t <= h.max {
		return scan(h)
	}
	return false
}

// Truncate drops all chunks, open ones too, whose data lies entirely before
// mint and removes series that have no chunks and have been silent since
// before mint.
// Each shard prunes independently. When the head is WAL-backed, each shard
// is checkpointed after pruning — the post-truncate state is snapshotted and
// the pre-checkpoint segments dropped — so the journal stays bounded by head
// size. It returns the number of series removed and the shards' checkpoint
// errors, joined; a failed checkpoint leaves that shard's older segments in
// place, so nothing pruned is lost, only the journal's bound.
func (db *DB) Truncate(mint int64) (int, error) {
	// Raise the watermarks first: a cache fill racing the pruning sees the
	// new floor and refuses to reuse steps whose read windows reach below
	// it, and a read fenced at the old whole-from sees that it moved.
	raiseTo(&db.pruned, mint)
	raiseTo(&db.whole, mint)
	removed := make([]int, len(db.shards))
	errs := make([]error, len(db.shards))
	db.forEachShard(func(i int, sh *headShard) {
		if sh.wal != nil {
			// Pruning detaches series; hold the WAL mutex across it so no
			// in-flight commit can journal a just-detached series (it sees
			// s.dropped instead) — replay must never resurrect one.
			sh.wal.mu.Lock()
			removed[i] = sh.truncate(mint)
			sh.wal.mu.Unlock()
			errs[i] = sh.wal.checkpoint(sh, db.Tombstones)
		} else {
			removed[i] = sh.truncate(mint)
		}
	})
	total := 0
	for _, n := range removed {
		total += n
	}
	return total, errors.Join(errs...)
}

// CheckpointWAL forces a checkpoint of every shard journal immediately:
// each shard's retained state is snapshotted (fsynced before any segment is
// unlinked) and its older segments dropped. It is what Truncate runs
// implicitly; exposed for callers that want durability compaction without
// pruning, e.g. after CutPersistentBlock has persisted a block. No-op
// without a WAL.
func (db *DB) CheckpointWAL() error {
	if db.opts.WALDir == "" {
		return nil
	}
	errs := make([]error, len(db.shards))
	db.forEachShard(func(i int, sh *headShard) {
		if sh.wal != nil {
			errs[i] = sh.wal.checkpoint(sh, db.Tombstones)
		}
	})
	for _, err := range errs {
		if err != nil {
			db.noteWALErr(err)
			return err
		}
	}
	return nil
}

// MinTime returns the earliest retained timestamp (approximate after
// truncation), or false when the DB is empty.
func (db *DB) MinTime() (int64, bool) {
	mint, maxt := db.timeBounds()
	if maxt < mint {
		return 0, false
	}
	return mint, true
}

// MaxTime returns the latest appended timestamp, or false when empty.
func (db *DB) MaxTime() (int64, bool) {
	mint, maxt := db.timeBounds()
	if maxt < mint {
		return 0, false
	}
	return maxt, true
}

// AppendEpoch returns the total number of samples ever appended across all
// shards. It is monotonically non-decreasing; two equal readings bracket a
// window in which no append completed. The query-result cache uses it to
// prove that cached results — including ones whose read windows were still
// open — are identical to what a fresh evaluation would produce.
func (db *DB) AppendEpoch() uint64 {
	var n uint64
	for _, sh := range db.shards {
		n += sh.appended.Load()
	}
	return n
}

// MutationGen returns a counter that advances on destructive cross-series
// operations (deletes). Retention pruning (Truncate) deliberately does
// not advance it: truncation only removes samples strictly below the
// pruned watermark, and the cache refuses to serve any step whose padded
// read window reaches below PrunedThrough.
func (db *DB) MutationGen() uint64 { return db.mutations.Load() }

// PrunedThrough returns the highest retention cutoff ever applied: every
// sample below it may have been removed, everything at or above it is
// untouched by pruning (Truncate only drops chunks ending strictly below
// the cutoff). ok is false when the head was never pruned.
func (db *DB) PrunedThrough() (int64, bool) {
	p := db.pruned.Load()
	return p, p != -(int64(1) << 62)
}

// WholeFrom returns the head's whole-from watermark: from it on, the head
// still holds every sample it ever held but those a tombstone deletes, so a
// block cut from it holds nothing there that the head does not. Truncate
// raises it to its cutoff; a delete that drops a series holding samples past
// the tombstone's maxt, which blocks keep, raises it past the series' newest
// sample. Both raise it before a read can miss what they drop, so a read
// that finds it unmoved after reading saw the head whole from where it was
// (thanos.Store's fenced read). It is math.MinInt64 until first raised.
func (db *DB) WholeFrom() int64 { return db.whole.Load() }

// raiseTo raises w to t, unless w is there already.
func raiseTo(w *atomic.Int64, t int64) {
	for {
		cur := w.Load()
		if t <= cur || w.CompareAndSwap(cur, t) {
			return
		}
	}
}

func (db *DB) timeBounds() (int64, int64) {
	mint := int64(1) << 62
	maxt := -(int64(1) << 62)
	for _, sh := range db.shards {
		if m := sh.minTime.Load(); m < mint {
			mint = m
		}
		if m := sh.maxTime.Load(); m > maxt {
			maxt = m
		}
	}
	return mint, maxt
}
