// Package thanos implements the long-term-storage substrate of the stack
// (the Thanos role in the paper's Fig. 1): a sidecar ships immutable
// blocks from the hot TSDB into a persistent block store, background
// maintenance compacts and downsamples them, and a querier reads hot and
// cold data as one so long-range queries (the API server's aggregate
// pass) transparently span both.
//
// The store half lives in store.go: blocks are ULID-named directories in
// the on-disk format of tsdb/blockdir.go, compaction folds same-resolution
// blocks into higher levels and rewrites what delete tombstones touch, and
// downsampling adds 5m/1h-style aggregate siblings next to the raw blocks.
// The resolution a read may serve is decided here; the read is tsdb's
// (tsdb.Sources). See docs/ARCHITECTURE.md for the full storage lifecycle.
package thanos

import (
	"errors"
	"sync"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb"
)

// Sidecar ships blocks from the hot TSDB to the store on a cadence,
// optionally truncating the head afterwards (the hot/short-term split of
// Fig. 1). Maintain is the store's one maintenance pass around it.
type Sidecar struct {
	DB    *tsdb.DB
	Store *Store
	// HeadRetention bounds what stays in the hot TSDB after a Ship;
	// 0 keeps everything.
	HeadRetention time.Duration

	mu       sync.Mutex
	lastShip int64 // ms; exclusive lower bound of the next block
	Shipped  int
}

// Ship cuts everything since the previous ship (up to now) into the store
// as one block, truncates the head to HeadRetention, and retires the head's
// tombstones that neither the head nor a block holds a sample of any more
// (tsdb.DB.RetireTombstones): the head's oldest sample is past them, and
// the last Store.Compact was given them. The first ship of
// a sidecar starts at the head's oldest sample, or after the newest raw
// block the store already holds if that is later, so a restarted head's
// replayed samples are not cut a second time. (A downsampled block ends on
// a bucket boundary, not where its raw source does, so it does not say what
// was shipped.) A failed cut, or a failed checkpoint of a WAL-backed head, is
// its error.
func (sc *Sidecar) Ship(now time.Time) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	maxt := now.UnixMilli()
	mint := sc.lastShip + 1
	if sc.lastShip == 0 {
		if dbMin, ok := sc.DB.MinTime(); ok {
			mint = dbMin
		}
		for _, m := range sc.Store.BlockMetas() {
			if m.Resolution == 0 {
				mint = max(mint, m.MaxTime+1)
			}
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
	sc.DB.RetireTombstones(sc.Store.holds)
	return nil
}

// Maintain is the block store's one maintenance pass, run every cadence: it
// ships the head's cut (the sidecar's owner sets HeadRetention to 2x the
// cadence, so lookback windows never straddle a gap); compacts with the
// head's tombstones, which rewrites every block holding a sample one
// deletes; and derives 5m aggregates of the raw blocks up to 2x
// the cadence ago and 1h aggregates of the 5m blocks up to 10x ago. A failed
// ship ends the pass; later failures are joined. It returns how many blocks
// compaction wrote, merged or rewritten, and how many downsampled blocks
// were written.
func (sc *Sidecar) Maintain(now time.Time, cadence time.Duration) (compacted, downsampled int, err error) {
	if err := sc.Ship(now); err != nil {
		return 0, 0, err
	}
	compacted, cerr := sc.Store.Compact(sc.DB.Tombstones())
	errs := []error{cerr}
	for _, lvl := range []struct{ age, res time.Duration }{
		{2 * cadence, 5 * time.Minute}, {10 * cadence, time.Hour},
	} {
		n, err := sc.Store.Downsample(now.Add(-lvl.age).UnixMilli(), lvl.res)
		downsampled += n
		errs = append(errs, err)
	}
	return compacted, downsampled, errors.Join(errs...)
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
