package tsdb

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/workpool"
)

// forEachShard runs f(i, shard) for every shard through workpool.Do: jobs worth
// a goroutine per shard — truncate, block cut, checkpoint, delete — not reads.
func (db *DB) forEachShard(f func(i int, sh *headShard)) {
	workpool.Do(len(db.shards), 0, func(i int) { f(i, db.shards[i]) })
}

// Select is SelectWithHints over [mint, maxt] with no other hint. The read
// method of every store is SelectWithHints; this shorthand is kept because
// the end-to-end benchmark (bench/) calls it.
func (db *DB) Select(mint, maxt int64, ms ...*labels.Matcher) ([]model.Series, error) {
	return db.SelectWithHints(model.SelectHints{Start: mint, End: maxt}, ms...)
}

// selectGrain is the least number of planned series worth a goroutine of
// their own (workpool.DoRange): a head read fans out from twice that.
// BenchmarkHeadSelectGrain, 2-vCPU sandbox, -cpu 2, series of 60 samples read
// whole, inline → split in two: 256 series 431 → 454 µs, 512 series 965 →
// 856 µs, 1024 series 1972 → 1505 µs; reading their last 8 samples crosses at
// the same size (docs/ARCHITECTURE.md, "Sized fan-out").
const selectGrain = 256

const slabSamples = 4096 // bounds one allocation of a sampleSlab (64 KB)

// SelectWithHints returns all series matching the matchers, restricted to
// samples in [hints.Start, hints.End] and, with hints.Lookback set, to those
// the step filter keeps (model.StepFilter; a bare instant read answers from
// the series' newest sample without decoding). Series with no samples left
// are omitted. Results are sorted by labels, so output is identical for any
// shard count. It plans, then reads.
// The plan runs on the caller's goroutine — every shard in turn resolves the
// matchers through its postings, under its read lock, into one flat list of
// series. The read copies each planned series' window and sorts the copies
// by labels through workpool.DoRange: on the caller too unless the list is
// long enough to pay for waking another core, then split by series, not by
// shard, and the sorted runs merged. With hints.SampleLimit set every copied
// sample is charged to a budget the ranges share and the pass aborts with
// model.ErrSampleLimit the moment it is exhausted, so a runaway query fails
// during the storage pass instead of after materializing everything.
func (db *DB) SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	if len(ms) == 0 {
		return nil, errors.New("tsdb: Select requires at least one matcher")
	}
	if hints.End < hints.Start {
		// An inverted window holds no samples; the per-chunk sizing below
		// assumes a window that is not.
		return nil, nil
	}
	var budget *sampleBudget
	if hints.SampleLimit > 0 {
		budget = &sampleBudget{limit: hints.SampleLimit}
	}
	var plan []*memSeries
	for _, sh := range db.shards {
		sh.mu.RLock()
		plan = sh.selectLocked(plan, ms)
		sh.mu.RUnlock()
	}
	mint, maxt, steps := hints.Start, hints.End, hints.StepFilter() // the closure below carries these, not all of hints
	byLabels := func(a, b model.Series) int { return labels.Compare(a.Labels, b.Labels) }
	out := make([]model.Series, len(plan))
	var mu sync.Mutex
	var runs [][]model.Series // one per range: its series with samples in the window, sorted
	workpool.DoRange(len(plan), db.selectGrain, func(lo, hi int) {
		slab := sampleSlab{left: hi - lo}
		run := out[lo:lo:hi]
		for i := lo; i < hi && !budget.blown(); i++ {
			samples := plan[i].samplesBetween(mint, maxt, &slab, steps)
			if len(samples) > 0 && budget.charge(len(samples)) {
				run = append(run, model.Series{Labels: plan[i].lset, Samples: samples})
			}
		}
		slices.SortFunc(run, byLabels)
		mu.Lock()
		runs = append(runs, run)
		mu.Unlock()
	})
	if budget.blown() {
		return nil, model.ErrSampleLimit
	}
	// One run, the usual case, is returned as it stands; several hold
	// distinct series, so the order they arrived in does not matter.
	return model.MergeSorted(runs, byLabels, nil), nil
}

// sampleSlab hands the series of one range of a select their sample slices
// out of shared allocations: one per slabSamples samples, not one per
// series. A slice is capped at the size asked for, so an append past it, by
// anyone, moves that slice out instead of into its neighbour.
type sampleSlab struct {
	free []model.Sample
	left int // series of the range still to take from it
}

// take returns an empty slice with room for n samples. A new allocation is
// sized for the series still to come (none: this slice alone), guessing their
// windows as long as this one.
func (sl *sampleSlab) take(n int) []model.Sample {
	if n > len(sl.free) {
		sl.free = make([]model.Sample, max(n, min(n*sl.left, slabSamples)))
	}
	sl.left--
	out := sl.free[:0:n]
	sl.free = sl.free[n:]
	return out
}

// sampleBudget is the shared per-query sample allowance charged by all
// ranges of one hint-aware Select.
type sampleBudget struct {
	limit    int64
	used     atomic.Int64
	exceeded atomic.Bool
}

// charge records n copied samples and reports whether the budget still
// holds.
func (b *sampleBudget) charge(n int) bool {
	if b == nil {
		return true
	}
	if b.used.Add(int64(n)) > b.limit {
		b.exceeded.Store(true)
		return false
	}
	return true
}

// blown reports whether the budget is already exhausted.
func (b *sampleBudget) blown() bool { return b != nil && b.exceeded.Load() }

// LabelValues returns the sorted distinct values of a label name across all
// shards.
func (db *DB) LabelValues(name string) []string {
	parts := make([][]string, len(db.shards))
	for i, sh := range db.shards {
		parts[i] = sh.labelValues(name)
	}
	return mergeLabelLists(parts...)
}

// LabelNames returns all label names in use, sorted.
func (db *DB) LabelNames() []string {
	parts := make([][]string, len(db.shards))
	for i, sh := range db.shards {
		parts[i] = sh.labelNames()
	}
	return mergeLabelLists(parts...)
}

// mergeLabelLists merges sorted lists of distinct names or values into one
// through the stack's one merge, keeping the first of equal strings. The only
// non-empty list is returned itself.
func mergeLabelLists(parts ...[]string) []string {
	return model.MergeSorted(parts, strings.Compare, func(run []string) string { return run[0] })
}

// Stats reports database statistics.
type Stats struct {
	NumSeries     int
	NumSamples    uint64 // total appended (monotonic)
	MinTime       int64
	MaxTime       int64
	NumLabelNames int
	BytesInChunks int
	NumShards     int
	// WAL summarizes the head's journals — replay outcome (segments,
	// records, torn-tail repairs, duration) and writer activity since Open.
	// Nil for memory-only heads.
	WAL *WALStats
}

// Stats returns a snapshot of database statistics, aggregated across shards.
func (db *DB) Stats() Stats {
	st := Stats{NumShards: len(db.shards)}
	for _, sh := range db.shards {
		p := sh.stats()
		st.NumSeries += p.numSeries
		st.BytesInChunks += p.bytesInChunks
		st.NumSamples += sh.appended.Load()
	}
	st.NumLabelNames = len(db.LabelNames())
	st.MinTime, st.MaxTime = db.timeBounds()
	if ws, ok := db.WALStats(); ok {
		st.WAL = &ws
	}
	return st
}
