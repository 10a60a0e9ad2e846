package tsdb

import (
	"slices"
	"strings"

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
// their own (workpool.DoRange): a read fans out from twice that.
// BenchmarkHeadSelectGrain, 2-vCPU sandbox, -cpu 2, series of 60 samples read
// whole, inline → split in two: 256 series 431 → 454 µs, 512 series 965 →
// 856 µs, 1024 series 1972 → 1505 µs; reading their last 8 samples crosses at
// the same size (docs/ARCHITECTURE.md, "Sized fan-out").
const selectGrain = 256

// SelectWithHints is a read of the head alone (Sources.Select). Its output
// is sorted by labels, so identical for any shard count.
func (db *DB) SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	return Sources{Head: db}.Select(hints, ms...)
}

// LabelValues returns the sorted distinct values of a label name across all
// shards. The list is the head's kept one (labellists.go) and read-only:
// after the first read of a name the head carries, a read merges at most
// the values added since the last one, and none when nothing was added.
func (db *DB) LabelValues(name string) []string {
	kl := db.kept.valuesOf(name)
	if kl == nil {
		// Only a name the head carries is kept, so reads of absent names
		// add nothing.
		if _, ok := slices.BinarySearch(db.LabelNames(), name); !ok {
			return db.mergeValues(name)
		}
		kl = db.kept.watchValues(name)
	}
	return kl.read(func() []string { return db.mergeValues(name) })
}

// mergeValues merges every shard's values of name.
func (db *DB) mergeValues(name string) []string {
	parts := make([][]string, len(db.shards))
	for i, sh := range db.shards {
		parts[i] = sh.labelValues(name)
	}
	return MergeLabelLists(parts...)
}

// LabelNames returns all label names in use, sorted, as a kept list
// (read-only, as LabelValues').
func (db *DB) LabelNames() []string {
	return db.kept.names.read(func() []string {
		parts := make([][]string, len(db.shards))
		for i, sh := range db.shards {
			parts[i] = sh.labelNames()
		}
		return MergeLabelLists(parts...)
	})
}

// MergeLabelLists merges sorted lists of distinct names or values into one
// through the stack's one merge, keeping the first of equal strings. The only
// non-empty list is returned itself.
func MergeLabelLists(parts ...[]string) []string {
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
