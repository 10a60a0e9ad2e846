// Package thanos implements the long-term-storage substrate of the stack
// (the Thanos role in the paper's Fig. 1): a sidecar ships immutable
// blocks from the hot TSDB into a persistent block store, background
// maintenance compacts and downsamples them, and a querier reads hot and
// cold data as one so long-range queries (the API server's aggregate
// pass) transparently span both.
//
// The store half lives in store.go: blocks are ULID-named directories in
// the on-disk format of tsdb/blockdir.go, compaction folds same-resolution
// blocks into higher levels (applying delete tombstones), and
// downsampling adds 5m/1h-style aggregate siblings next to the raw blocks.
// The resolution a read may serve is decided here; the read is tsdb's
// (tsdb.Sources). See docs/ARCHITECTURE.md for the full storage lifecycle.
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
// as one block, then truncates the head to HeadRetention. A failed cut, or a
// failed checkpoint of a WAL-backed head, is its error.
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
		if _, err := sc.DB.Truncate(maxt - sc.HeadRetention.Milliseconds()); err != nil {
			return err
		}
	}
	return nil
}

// Querier reads the hot TSDB and the cold store as one; it satisfies
// promql.Queryable so the engine (and therefore the API server and Grafana)
// can query long ranges transparently. A read of both is one plan, one fill
// and one sample budget (tsdb.Sources).
type Querier struct {
	Hot  *tsdb.DB
	Cold *Store
}

// LabelNames merges hot and cold label names, sorted; with LabelValues it
// makes the fan-in Querier satisfy promapi.LabelStore, so Grafana's
// variable dropdowns work against the merged view. The list may be a
// block's own slice and is read-only.
func (q *Querier) LabelNames() []string {
	return tsdb.MergeLabelLists(q.Hot.LabelNames(), q.Cold.LabelNames())
}

// LabelValues merges hot and cold values of a label name, sorted and
// read-only as LabelNames'.
func (q *Querier) LabelValues(name string) []string {
	return tsdb.MergeLabelLists(q.Hot.LabelValues(name), q.Cold.LabelValues(name))
}

// SelectWithHints implements promql.Queryable over both tiers.
func (q *Querier) SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	return q.Cold.read(q.Hot, hints, ms)
}
