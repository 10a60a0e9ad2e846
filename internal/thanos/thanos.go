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

// Querier fans a Select over the hot TSDB and the cold store, merging
// results; it satisfies promql.Queryable so the engine (and therefore the
// API server and Grafana) can query long ranges transparently. The two
// backends are queried concurrently: the hot side is itself a parallel
// fan-out over head shards, the cold side a resolution-aware iteration
// over blocks.
type Querier struct {
	Hot  *tsdb.DB
	Cold *Store
}

// LabelNames unions hot and cold label names, sorted; with LabelValues it
// makes the fan-in Querier satisfy promapi.LabelStore, so Grafana's
// variable dropdowns work against the merged view.
func (q *Querier) LabelNames() []string {
	return labels.UnionSorted(q.Hot.LabelNames(), q.Cold.LabelNames())
}

// LabelValues unions hot and cold values of a label name, sorted.
func (q *Querier) LabelValues(name string) []string {
	return labels.UnionSorted(q.Hot.LabelValues(name), q.Cold.LabelValues(name))
}

// Select implements promql.Queryable.
func (q *Querier) Select(mint, maxt int64, ms ...*labels.Matcher) ([]model.Series, error) {
	return q.SelectWithHints(model.SelectHints{Start: mint, End: maxt}, ms...)
}

// SelectWithHints fans the hint-aware Select over both backends. Each side
// enforces the full budget independently, so the merged result may reach
// 2× the limit in the worst case — a deliberate trade that keeps the two
// concurrent passes free of shared accounting; a side that alone exceeds
// the limit still fails the query.
//
// The cold side's hints get RawAfter pinned to the hot head's minimum
// time: inside the hot/cold overlap the store must serve raw samples (or
// nothing), never downsampled points, so a timestamp is represented once
// in the merge no matter how the tiers overlap.
//
// The two reads run concurrently when the window reaches a block.
func (q *Querier) SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	if !q.Cold.overlaps(hints.Start, hints.End) {
		// Nothing cold to read: the hot answer is the answer, and a
		// goroutine to learn that would cost more than many hot reads do.
		return q.Hot.SelectWithHints(hints, ms...)
	}
	coldHints := hints
	if hmin, ok := q.Hot.MinTime(); ok && (coldHints.RawAfter == 0 || hmin < coldHints.RawAfter) {
		coldHints.RawAfter = hmin
	}
	var (
		wg              sync.WaitGroup
		cold, hot       []model.Series
		coldErr, hotErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cold, coldErr = q.Cold.SelectWithHints(coldHints, ms...)
	}()
	hot, hotErr = q.Hot.SelectWithHints(hints, ms...)
	wg.Wait()
	if coldErr != nil {
		return nil, coldErr
	}
	if hotErr != nil {
		return nil, hotErr
	}
	return model.MergeSeries([][]model.Series{cold, hot}), nil
}
