// Package thanos implements the long-term-storage substrate of the stack
// (the Thanos role in the paper's Fig. 1): a sidecar ships immutable
// blocks from the hot TSDB into a persistent block store, background
// maintenance compacts and downsamples them, and a fan-in querier merges
// hot and cold data so long-range queries (the API server's aggregate
// pass) transparently span both.
//
// The store half lives in store.go: blocks are ULID-named directories in
// the on-disk format of tsdb/blockdir.go, compaction folds same-resolution
// blocks into higher levels (applying delete tombstones), and
// downsampling adds 5m/1h-style aggregate siblings next to the raw blocks
// — SelectWithHints picks the coarsest resolution a query's step and
// function admit. See docs/ARCHITECTURE.md for the full storage
// lifecycle.
package thanos

import (
	"strings"
	"sync"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb"
)

// Sidecar ships blocks from the hot TSDB to the store on a cadence,
// optionally truncating the head afterwards (the hot/short-term split of
// Fig. 1).
type Sidecar struct {
	DB    *tsdb.DB
	Store *Store
	// HeadRetention bounds what stays in the hot TSDB after a ship;
	// 0 keeps everything.
	HeadRetention time.Duration

	mu       sync.Mutex
	lastShip int64 // ms; exclusive lower bound of the next block
	Shipped  int
}

// Ship cuts everything since the previous ship (up to now) into the store
// as one block.
func (sc *Sidecar) Ship(now time.Time) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	maxt := now.UnixMilli()
	mint := sc.lastShip + 1
	if sc.lastShip == 0 {
		if dbMin, ok := sc.DB.MinTime(); ok {
			mint = dbMin
		}
	}
	if mint > maxt {
		return nil
	}
	cut, err := sc.Store.CutHead(sc.DB, mint, maxt)
	if err != nil {
		return err
	}
	if cut {
		sc.Shipped++
	}
	sc.lastShip = maxt
	if sc.HeadRetention > 0 {
		sc.DB.Truncate(maxt - sc.HeadRetention.Milliseconds())
	}
	return nil
}

// Querier reads the hot TSDB and the cold store as one, merging results; it
// satisfies promql.Queryable so the engine (and therefore the API server and
// Grafana) can query long ranges transparently. A Select reads the cold side
// — a resolution-aware iteration over blocks — then the hot side, which
// splits its own work by series when large, both on the caller's goroutine.
type Querier struct {
	Hot  *tsdb.DB
	Cold *Store
}

// LabelNames merges hot and cold label names, sorted; with LabelValues it
// makes the fan-in Querier satisfy promapi.LabelStore, so Grafana's
// variable dropdowns work against the merged view. The list may be a
// block's own slice and is read-only.
func (q *Querier) LabelNames() []string {
	return mergeLabelLists(q.Hot.LabelNames(), q.Cold.LabelNames())
}

// LabelValues merges hot and cold values of a label name, sorted and
// read-only as LabelNames'.
func (q *Querier) LabelValues(name string) []string {
	return mergeLabelLists(q.Hot.LabelValues(name), q.Cold.LabelValues(name))
}

// mergeLabelLists merges sorted lists of distinct names or values into one
// through the stack's one merge, keeping the first of equal strings. The only
// non-empty list is returned itself.
func mergeLabelLists(parts ...[]string) []string {
	return model.MergeSorted(parts, strings.Compare, func(run []string) string { return run[0] })
}

// SelectWithHints implements promql.Queryable over both backends. Each side
// enforces the full budget independently, so the merged result may reach
// 2× the limit in the worst case — a deliberate trade: a budget belongs to
// one backend's pass, and neither knows the other's accounting; a side that
// alone exceeds the limit still fails the query.
//
// The cold side's hints get RawAfter pinned to the hot head's minimum
// time: inside the hot/cold overlap the store must serve raw samples (or
// nothing), never downsampled points, so a timestamp is represented once
// in the merge no matter how the tiers overlap.
//
// The reads run one after the other, cold first, and a cold error ends the
// Select before the head is read: reading both at once could at best halve
// the wall time, only when both tiers are large — where the head side uses
// every core anyway — and cost a goroutine wake on every read reaching a block.
func (q *Querier) SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	if !q.Cold.overlaps(hints.Start, hints.End) {
		// Nothing cold to read: the hot answer is the answer.
		return q.Hot.SelectWithHints(hints, ms...)
	}
	coldHints := hints
	if hmin, ok := q.Hot.MinTime(); ok && (coldHints.RawAfter == 0 || hmin < coldHints.RawAfter) {
		coldHints.RawAfter = hmin
	}
	cold, err := q.Cold.SelectWithHints(coldHints, ms...)
	if err != nil {
		return nil, err
	}
	hot, err := q.Hot.SelectWithHints(hints, ms...)
	if err != nil {
		return nil, err
	}
	return model.MergeSeries([][]model.Series{cold, hot}), nil
}
