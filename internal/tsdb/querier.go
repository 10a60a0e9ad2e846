package tsdb

import (
	"errors"
	"sync/atomic"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/workpool"
)

// forEachShard runs f(i, shard) for every shard on a bounded worker pool of
// min(shards, GOMAXPROCS) goroutines. The single-shard case runs inline.
func (db *DB) forEachShard(f func(i int, sh *headShard)) {
	workpool.Do(len(db.shards), 0, func(i int) { f(i, db.shards[i]) })
}

// Select returns all series matching the matchers, restricted to samples in
// [mint, maxt]. Series with no samples in range are omitted. Results are
// sorted by labels: each shard selects and sorts its slice in parallel and
// the slices are combined with a k-way merge, so output is identical for
// any shard count.
func (db *DB) Select(mint, maxt int64, ms ...*labels.Matcher) ([]model.Series, error) {
	return db.SelectWithHints(model.SelectHints{Start: mint, End: maxt}, ms...)
}

// SelectWithHints is Select over [hints.Start, hints.End] that, when
// hints.SampleLimit is set, has the shards charge every copied sample
// against a shared budget and abort the pass with model.ErrSampleLimit the
// moment it is exhausted — the promql range evaluator's prefetch uses this
// so runaway queries fail during the storage pass instead of after
// materializing everything.
func (db *DB) SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	if len(ms) == 0 {
		return nil, errors.New("tsdb: Select requires at least one matcher")
	}
	var budget *sampleBudget
	if hints.SampleLimit > 0 {
		budget = &sampleBudget{limit: hints.SampleLimit}
	}
	mint, maxt := hints.Start, hints.End // the closure below carries these, not all of hints
	parts := make([][]model.Series, len(db.shards))
	db.forEachShard(func(i int, sh *headShard) {
		parts[i] = sh.selectSorted(mint, maxt, ms, budget)
	})
	if budget.blown() {
		return nil, model.ErrSampleLimit
	}
	// A label set hashes to one shard, so no two parts share a series.
	return model.MergeSorted(parts, func(a, b model.Series) int { return labels.Compare(a.Labels, b.Labels) }, nil), nil
}

// sampleBudget is the shared per-query sample allowance charged by all
// shards of one hint-aware Select.
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

// blown reports whether any shard already exhausted the budget.
func (b *sampleBudget) blown() bool { return b != nil && b.exceeded.Load() }

// LabelValues returns the sorted distinct values of a label name across all
// shards.
func (db *DB) LabelValues(name string) []string {
	parts := make([][]string, len(db.shards))
	db.forEachShard(func(i int, sh *headShard) {
		parts[i] = sh.labelValues(name)
	})
	return labels.UnionSorted(parts...)
}

// LabelNames returns all label names in use, sorted.
func (db *DB) LabelNames() []string {
	parts := make([][]string, len(db.shards))
	db.forEachShard(func(i int, sh *headShard) {
		parts[i] = sh.labelNames()
	})
	return labels.UnionSorted(parts...)
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

// Stats returns a snapshot of database statistics, aggregated across shards
// in parallel.
func (db *DB) Stats() Stats {
	parts := make([]shardStats, len(db.shards))
	db.forEachShard(func(i int, sh *headShard) {
		parts[i] = sh.stats()
	})
	names := make(map[string]struct{})
	st := Stats{NumShards: len(db.shards)}
	for _, p := range parts {
		st.NumSeries += p.numSeries
		st.BytesInChunks += p.bytesInChunks
		for _, n := range p.labelNames {
			names[n] = struct{}{}
		}
	}
	st.NumLabelNames = len(names)
	for _, sh := range db.shards {
		st.NumSamples += sh.appended.Load()
	}
	st.MinTime, st.MaxTime = db.timeBounds()
	if ws, ok := db.WALStats(); ok {
		st.WAL = &ws
	}
	return st
}
