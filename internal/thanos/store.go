package thanos

// The cold tier: a directory of immutable persistent blocks
// (internal/tsdb/blockdir.go) with compaction and multi-resolution
// downsampling, and a hint-aware read path that picks the coarsest
// resolution a query step can afford. Crash recovery at open sweeps aborted
// writes (.tmp dirs, meta-less dirs), garbage-collects blocks superseded by
// a committed compaction (same-resolution survivor listing them in Sources)
// and deletes downsampled blocks an older build derived block by block. See
// docs/ARCHITECTURE.md for the full lifecycle.

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dirlock"
	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb"
)

// DownsampleFactor is how many downsampled points a query step must span
// before the store substitutes an aggregate stream for raw samples: a block
// of resolution R is eligible only when hints.Step >= R*DownsampleFactor,
// mirroring Thanos's rule of thumb of ~5 points per step.
const DownsampleFactor = 5

// compactionFactor is how many consecutive same-level blocks of one
// resolution are merged per compaction.
const compactionFactor = 3

// Store holds blocks as persistent block directories (see
// tsdb/blockdir.go for the on-disk format), one ULID-named directory per
// block plus raw/downsampled siblings. With dir == "" blocks are assembled
// in memory instead — same byte layout, no files — which the cluster
// simulator and tests use.
//
// The store is the cold half of the hot/cold seam: the sidecar cuts
// immutable blocks out of the hot head into it (CutHead), Compact folds
// them into larger higher-level blocks and rewrites every block that still
// holds a sample a delete tombstone deletes, and Downsample derives
// 5m/1h-style aggregate siblings that long-range queries read instead of
// raw chunks.
type Store struct {
	dir string

	mu     sync.RWMutex
	blocks []*tsdb.PersistentBlock // sorted by MinTime
	tombs  []tsdb.TombstoneRec     // the log the last Compact was given (adopt); Downsample obeys it
	clean  []tsdb.TombstoneRec     // the log the last Compact left no block holding a sample of

	metrics *storeMetrics
	lock    *dirlock.Lock // nil for an in-memory store
}

// NewStore opens a store directory, recovering crash leftovers and loading
// every block:
//
//   - *.tmp directories (a block write that never reached its rename) and
//     directories missing meta.json (a rename that never committed) are
//     removed — their data is still in the sources that produced them.
//   - a single-file .blk block (the format before block directories; no
//     reader for it remains) fails the open with an error naming the file,
//     and is left untouched.
//   - blocks fully superseded by a same-resolution block that lists them in
//     its Sources (a compaction that crashed after publishing but before
//     deleting) are garbage-collected. Downsampled children have a
//     different resolution, so raw sources always survive this sweep.
//   - a downsampled block whose start is off its resolution's grid was
//     derived by an older build, one source block at a time, and may hold
//     part of a bucket another holds the rest of: it is deleted, and
//     Downsample derives its range again from the raw blocks.
func NewStore(dir string) (_ *Store, err error) {
	s := &Store{dir: dir}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if s.lock, err = dirlock.Acquire(dir); err != nil {
		return nil, fmt.Errorf("thanos: %w", err)
	}
	defer func() {
		if err != nil {
			s.lock.Release()
		}
	}()
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// Refuse before sweeping anything, so a failed open changes nothing.
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".blk") {
			return nil, fmt.Errorf("thanos: %s is a legacy single-file block this version cannot read; move it out of the store directory", filepath.Join(dir, e.Name()))
		}
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		full := filepath.Join(dir, name)
		if tsdb.IsTmpBlockDir(name) {
			if err := os.RemoveAll(full); err != nil {
				return nil, err
			}
			continue
		}
		if _, err := os.Stat(filepath.Join(full, tsdb.MetaFilename)); os.IsNotExist(err) {
			if err := os.RemoveAll(full); err != nil {
				return nil, err
			}
			continue
		}
		pb, err := tsdb.OpenBlockDir(full)
		if err != nil {
			return nil, fmt.Errorf("thanos: opening block %s: %w", name, err)
		}
		if m := pb.Meta(); m.Resolution > 0 && m.MinTime%m.Resolution != 0 {
			pb.Close()
			if err := os.RemoveAll(full); err != nil {
				return nil, err
			}
			continue
		}
		s.blocks = append(s.blocks, pb)
	}
	s.gcSupersededLocked()
	s.sortLocked()
	s.syncDirBestEffort()
	return s, nil
}

// gcSupersededLocked removes blocks that a surviving same-resolution block
// lists among its compaction Sources. Exclusive access assumed (NewStore).
func (s *Store) gcSupersededLocked() {
	byULID := make(map[string]*tsdb.PersistentBlock, len(s.blocks))
	for _, b := range s.blocks {
		byULID[b.Meta().ULID] = b
	}
	dead := map[*tsdb.PersistentBlock]bool{}
	for _, c := range s.blocks {
		for _, src := range c.Meta().Sources {
			if b, ok := byULID[src]; ok && b.Meta().Resolution == c.Meta().Resolution {
				dead[b] = true
			}
		}
	}
	// DeleteFunc clears the slots it frees, so no retired block stays
	// reachable past the slice's length.
	s.blocks = slices.DeleteFunc(s.blocks, func(b *tsdb.PersistentBlock) bool {
		if dead[b] {
			dir := b.Dir()
			b.Close()
			if dir != "" {
				os.RemoveAll(dir)
			}
		}
		return dead[b]
	})
}

func (s *Store) sortLocked() {
	sort.Slice(s.blocks, func(i, j int) bool {
		a, b := s.blocks[i].Meta(), s.blocks[j].Meta()
		if a.MinTime != b.MinTime {
			return a.MinTime < b.MinTime
		}
		return a.ULID < b.ULID
	})
}

// register publishes an open block to queries.
func (s *Store) register(pb *tsdb.PersistentBlock) {
	s.mu.Lock()
	s.blocks = append(s.blocks, pb)
	s.sortLocked()
	s.mu.Unlock()
}

// syncDirBestEffort fsyncs the store directory so deletions and renames
// made by maintenance are durable; errors are ignored (the worst case is
// re-doing the maintenance after a crash, which recovery handles).
func (s *Store) syncDirBestEffort() {
	if s.dir == "" {
		return
	}
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// CutHead cuts db's samples in [mint, maxt] straight into the store as a
// level-1 raw block directory and registers it. It reports whether a block
// was added: a range holding no samples writes and registers nothing.
func (s *Store) CutHead(db *tsdb.DB, mint, maxt int64) (bool, error) {
	pb, err := db.CutPersistentBlock(s.dir, mint, maxt)
	if err != nil {
		return false, fmt.Errorf("thanos: cut head: %w", err)
	}
	if pb == nil {
		return false, nil
	}
	s.register(pb)
	if m := s.metrics; m != nil {
		m.uploads.Inc()
	}
	return true, nil
}

// NumBlocks returns the number of registered blocks (raw + downsampled).
func (s *Store) NumBlocks() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blocks)
}

// BlockMetas returns a snapshot of every registered block's metadata,
// sorted by MinTime — the store's equivalent of an object-store listing.
func (s *Store) BlockMetas() []tsdb.BlockMeta {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]tsdb.BlockMeta, len(s.blocks))
	for i, b := range s.blocks {
		out[i] = b.Meta()
	}
	return out
}

// aggrForFunc maps the PromQL function consuming a selector to the
// downsampled stream that can substitute for raw samples. Only functions
// whose plain evaluation over the aggregate stream matches the documented
// semantics qualify:
//
//	avg_over_time   -> avg (mean of bucket means, not exact for uneven buckets)
//	sum_over_time   -> sum (exact for bucket-aligned windows)
//	min_over_time   -> min (exact for bucket-aligned windows)
//	max_over_time   -> max (exact for bucket-aligned windows)
//
// Everything else is served raw only: rate/irate/increase and friends need
// raw inter-sample deltas, count_over_time would count buckets instead of
// samples, and bare selectors ("") would flicker whenever the resolution
// is sparser than the engine's lookback window.
func aggrForFunc(fn string) (tsdb.AggrType, bool) {
	switch fn {
	case "avg_over_time":
		return tsdb.AggrAvg, true
	case "sum_over_time":
		return tsdb.AggrSum, true
	case "min_over_time":
		return tsdb.AggrMin, true
	case "max_over_time":
		return tsdb.AggrMax, true
	}
	return tsdb.AggrRaw, false
}

// SelectWithHints implements promql.Queryable over all blocks.
func (s *Store) SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	return s.read(nil, hints, ms)
}

// read is one read of the blocks and, when head is not nil, of the head
// (tsdb.Sources). A downsampled resolution is eligible only when hints.Func
// admits an aggregate substitute (aggrForFunc) and hints.Step spans at least
// DownsampleFactor of its points; a read with just a window is raw. The
// blocks are retained under the store's read lock: Retain fails only for a
// block a compaction retired, which it replaced before closing.
func (s *Store) read(head *tsdb.DB, hints model.SelectHints, ms []*labels.Matcher) ([]model.Series, error) {
	src, maxRes := tsdb.Sources{Head: head}, int64(0) // maxRes 0 serves raw alone
	if a, ok := aggrForFunc(hints.Func); ok && hints.Step > 0 {
		src.Aggr, maxRes = a, hints.Step/DownsampleFactor
		// Never serve data sparser than the selector's window, or steps
		// between points would see an empty window and drop the series.
		if hints.Range > 0 {
			maxRes = min(maxRes, hints.Range)
		}
	}
	s.mu.RLock()
	for _, b := range s.blocks {
		if b.MaxTime() >= hints.Start && b.MinTime() <= hints.End && b.Meta().Resolution <= maxRes && b.Retain() {
			src.Blocks = append(src.Blocks, b)
		}
	}
	s.mu.RUnlock()
	defer func() {
		for _, b := range src.Blocks {
			b.Release()
		}
	}()
	return src.Select(hints, ms...)
}

// LabelNames returns the sorted distinct label names across all blocks
// (with LabelValues, this makes the store — and the fan-in Querier —
// satisfy promapi.LabelStore). It merges the registered blocks' own sorted
// lists, which their indexes hold, so it always agrees with what the blocks
// carry. The list may be a block's own slice and is read-only.
func (s *Store) LabelNames() []string {
	return s.mergeBlockLists((*tsdb.PersistentBlock).LabelNames)
}

// LabelValues returns the sorted distinct values of a label name across all
// blocks, read-only as LabelNames'.
func (s *Store) LabelValues(name string) []string {
	return s.mergeBlockLists(func(b *tsdb.PersistentBlock) []string { return b.LabelValues(name) })
}

// mergeBlockLists merges one sorted list per registered block. The read lock
// keeps every listed block registered, and so open, for the merge.
func (s *Store) mergeBlockLists(list func(*tsdb.PersistentBlock) []string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	parts := make([][]string, len(s.blocks))
	for i, b := range s.blocks {
		parts[i] = list(b)
	}
	return tsdb.MergeLabelLists(parts...)
}

// Compact runs the leveled compaction loop to a fixpoint: runs of
// compactionFactor consecutive same-level blocks of one resolution are
// folded into one block of the next level. The tombstones — the hot head's
// DB.Tombstones() — drop the samples they delete from every block written,
// propagating deletes into cold storage, and then every block that still
// holds such a sample is rewritten without it, at its own level
// (tsdb.RewritePersistentBlock), so a tombstone leaves the blocks at the
// first compaction after it, and may retire from the head's log at the
// next Ship (holds). Later Downsample passes obey the same tombstones,
// sorted by seq as DB.Tombstones returns them. Blocks that overlap (a crash
// window, a re-ship) merge when their run comes up; until then the read
// path dedups them.
//
// Each merge or rewrite publishes the new block durably before deleting its
// sources; a crash in between leaves duplicates the read path dedups and
// NewStore's GC removes. Returns the number of blocks written.
func (s *Store) Compact(tombs []tsdb.TombstoneRec) (int, error) {
	s.adopt(tombs)
	n := 0
	for {
		plan := s.planCompaction()
		if plan == nil {
			break
		}
		if err := s.compactSet(plan, func() (*tsdb.PersistentBlock, error) {
			return tsdb.CompactPersistentBlocks(s.dir, plan, tombs)
		}); err != nil {
			return n, err
		}
		n++
	}
	var touched []*tsdb.PersistentBlock
	if len(tombs) > 0 {
		s.mu.RLock()
		for _, b := range s.blocks {
			if b.HoldsDeleted(tombs) {
				touched = append(touched, b)
			}
		}
		s.mu.RUnlock()
	}
	for _, b := range touched {
		plan := []*tsdb.PersistentBlock{b}
		if err := s.compactSet(plan, func() (*tsdb.PersistentBlock, error) {
			return tsdb.RewritePersistentBlock(s.dir, b, tombs)
		}); err != nil {
			return n, err
		}
		n++
	}
	// A block written later obeys tombs too: a cut holds only what the head
	// kept, and a downsampling pass reads through them.
	s.mu.Lock()
	s.clean = tombs
	s.mu.Unlock()
	return n, nil
}

// adopt makes tombs the log later Downsample passes obey.
func (s *Store) adopt(tombs []tsdb.TombstoneRec) {
	s.mu.Lock()
	s.tombs = tombs
	s.mu.Unlock()
}

// holds reports whether a block of the store may hold a sample tr deletes:
// unless the last Compact was given tr, and so rewrote every block that
// held one, it may. The sidecar's Ship retires by it, so the blocks are
// scanned for what a tombstone deletes once per pass, by Compact.
func (s *Store) holds(tr tsdb.TombstoneRec) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, found := slices.BinarySearchFunc(s.clean, tr.Seq, func(c tsdb.TombstoneRec, seq uint64) int { return cmp.Compare(c.Seq, seq) })
	return !found
}

// planCompaction picks the next set of blocks to merge, or nil: the first
// run of compactionFactor consecutive same-level blocks of one resolution,
// finest resolution first.
func (s *Store) planCompaction() []*tsdb.PersistentBlock {
	s.mu.RLock()
	defer s.mu.RUnlock()
	byRes := map[int64][]*tsdb.PersistentBlock{}
	for _, b := range s.blocks {
		byRes[b.Meta().Resolution] = append(byRes[b.Meta().Resolution], b) // keeps MinTime order
	}
	for _, res := range slices.Sorted(maps.Keys(byRes)) {
		grp, run := byRes[res], 0 // run: same-level blocks ending at i
		for i, b := range grp {
			if run++; i > 0 && b.Meta().Level != grp[i-1].Meta().Level {
				run = 1
			}
			if run == compactionFactor {
				return grp[i+1-run : i+1]
			}
		}
	}
	return nil
}

// compactSet writes plan's replacement, publishes it, then retires plan
// (publish-before-delete).
func (s *Store) compactSet(plan []*tsdb.PersistentBlock, write func() (*tsdb.PersistentBlock, error)) error {
	start := time.Now()
	nb, err := write()
	if err != nil {
		return fmt.Errorf("thanos: compact: %w", err)
	}
	s.mu.Lock()
	// DeleteFunc clears the slots it frees, so no retired block, nor its
	// resident index, stays reachable past the slice's length.
	s.blocks = append(slices.DeleteFunc(s.blocks, func(b *tsdb.PersistentBlock) bool { return slices.Contains(plan, b) }), nb)
	s.sortLocked()
	s.mu.Unlock()
	for _, b := range plan {
		dir := b.Dir()
		b.Close() // munmap deferred past in-flight reads via Retain
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
	s.syncDirBestEffort()
	if m := s.metrics; m != nil {
		m.compactions.Inc()
		m.compactionSeconds.Observe(time.Since(start).Seconds())
	}
	return nil
}

// Downsample derives aggregates at the given resolution by time range, as
// Thanos does: whole buckets only, each once. 1h derives from 5m blocks,
// any other resolution from raw ones. In time order, for each source block,
// it writes one block of the whole buckets from where the newest block of
// the resolution ends up to the last bucket boundary inside both that source
// and [.., before) (tsdb.DownsamplePersistentBlocks), read from every source
// block with samples there, without what the head's tombstones delete (as
// last given to Compact, or seen by the sidecar's Ship); the bucket a
// source ends inside waits for the block that completes it. A range
// without a sample to aggregate is written as a block with no series, so no
// later pass reads it again. Sources are KEPT: raw and downsampled siblings
// coexist and SelectWithHints picks per query. The call is idempotent. Returns the number of blocks created.
func (s *Store) Downsample(before int64, resolution time.Duration) (int, error) {
	res, srcRes := resolution.Milliseconds(), int64(0)
	if res <= 0 {
		return 0, fmt.Errorf("thanos: resolution must be positive")
	}
	if resolution == time.Hour {
		srcRes = (5 * time.Minute).Milliseconds()
	}
	var (
		srcs []*tsdb.PersistentBlock // by MinTime, retained
		next = int64(math.MinInt64)  // where the next range starts
	)
	s.mu.RLock()
	tombs := s.tombs
	for _, b := range s.blocks {
		if m := b.Meta(); m.Resolution == res {
			next = max(next, m.MaxTime+1)
		} else if m.Resolution == srcRes && b.Retain() { // a registered block is open
			srcs = append(srcs, b)
		}
	}
	s.mu.RUnlock()
	defer func() {
		for _, b := range srcs {
			b.Release()
		}
	}()
	n := 0
	for _, b := range srcs {
		end := min(b.MaxTime()+1, before)
		from, to := next, end-floorMod(end, res)
		if from == math.MinInt64 {
			from = srcs[0].MinTime() - floorMod(srcs[0].MinTime(), res)
		}
		if to <= from {
			continue
		}
		start := time.Now()
		var in []*tsdb.PersistentBlock
		for _, o := range srcs {
			if o.MinTime() < to && o.MaxTime() >= from {
				in = append(in, o)
			}
		}
		// A derived block starts at level 1, as a cut does, and compacts like one.
		nb, err := tsdb.DownsamplePersistentBlocks(s.dir, tsdb.BlockMeta{MinTime: from, MaxTime: to - 1, Level: 1, Resolution: res}, in, tombs)
		if err != nil {
			return n, fmt.Errorf("thanos: downsample: %w", err)
		}
		next = to
		s.register(nb)
		n++
		if m := s.metrics; m != nil {
			m.downsamples.Inc()
			m.downsampleSeconds.Observe(time.Since(start).Seconds())
		}
	}
	if n > 0 {
		s.syncDirBestEffort()
	}
	return n, nil
}

// floorMod is t modulo res, in [0, res) for negative t too.
func floorMod(t, res int64) int64 { return (t%res + res) % res }

// Close releases every block mapping and the directory. The store must not
// be queried after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, b := range s.blocks {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.blocks = nil
	if err := s.lock.Release(); err != nil && first == nil {
		first = err
	}
	return first
}
