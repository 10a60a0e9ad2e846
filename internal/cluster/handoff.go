// WAL-backed handoff: the anti-entropy pass that brings a warming member
// up to date. A member that was down, newly joined, or partitioned has two
// recovery layers: its own WAL replay restores everything it ever acked
// (tsdb.Open does that before the member is visible), and this sync pulls
// the tail it missed from its peers. The pull is a plain scatter read —
// every reachable peer streams its copy of the member's owned series, the
// copies merge-dedup, and the member batch-appends the result. The tsdb
// batch appender skips out-of-order samples, so everything the member
// already holds is a silent no-op and only the missing suffix lands — and
// it lands through the member's own WAL, so handoff output is exactly as
// durable as scraped input. Running the sync twice is therefore free. The
// same skip bounds it: with strict ordering a sample older than its
// series' newest is refused, so a sync fills a hole only if the member took
// no write to that series since — one that runs after writes resumed skips
// the hole without error.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb"
	"repro/internal/workpool"
)

// handoffBatchSize bounds one BatchAppend during sync, keeping the
// member's per-commit WAL records near scrape-sized.
const handoffBatchSize = 4096

// HandoffStats describes one anti-entropy pass.
type HandoffStats struct {
	// Peers is how many members served as sources.
	Peers int
	// SeriesScanned is the distinct series seen across sources.
	SeriesScanned int
	// SeriesOwned is how many of those the target owns on the current ring.
	SeriesOwned int
	// SamplesOffered is the sample total shipped to the target.
	SamplesOffered int
	// SamplesApplied is how many actually landed — the rest were already
	// present and skipped as out-of-order duplicates.
	SamplesApplied int
	// TombstonesApplied counts delete tombstones the tombstone union copied
	// onto the target from its peers' durable logs.
	TombstonesApplied int
}

func (h *HandoffStats) add(o HandoffStats) {
	h.Peers += o.Peers
	h.SeriesScanned += o.SeriesScanned
	h.SeriesOwned += o.SeriesOwned
	h.SamplesOffered += o.SamplesOffered
	h.SamplesApplied += o.SamplesApplied
	h.TombstonesApplied += o.TombstonesApplied
}

// matchAll matches every series (every label set matches __name__ =~ ".*",
// including a missing name).
func matchAll() *labels.Matcher {
	return labels.MustMatcher(labels.MatchRegexp, labels.MetricName, ".*")
}

// SyncNode runs the handoff for one member in two passes — the only way a
// member catches up on samples or tombstones it missed. First it
// unions every reachable peer's durable tombstone log onto the target, so
// acked deletes the member slept through can never resurrect from it (the
// logs of tombstone-stale peers are themselves trustworthy — it is their
// series data, not their delete history, that may be behind). Then it
// pulls each usable peer's full series dump, keeps the series the member
// owns under the current ring, and batch-appends them; peers that are
// down, partitioned, warming or tombstone-stale are excluded as data
// sources (a stale peer's dump could carry deleted series back in). On
// success the member's warming and tombstone-stale gates clear and it
// counts toward read coverage again.
//
// The target must be up. When other members exist but none is usable as a
// data source, SyncNode fails instead of silently clearing the gates on an
// unproven member.
func (r *RingDB) SyncNode(name string) (HandoffStats, error) {
	ring, members := r.snapshot()
	target := members[name]
	if target == nil {
		return HandoffStats{}, fmt.Errorf("cluster: sync: no member %q", name)
	}
	if target.db.Load() == nil {
		return HandoffStats{}, fmt.Errorf("cluster: sync: member %q is down", name)
	}

	stats := HandoffStats{}
	// The tombstone union first, from every reachable peer's durable log. It
	// writes through the target's own WAL (tsdb.ApplyTombstone), so a
	// synced delete is as durable as an acked one.
	var tombSources []*tsdb.DB
	var peers []*Member
	candidates := 0
	for _, n := range sortedNames(members) {
		m := members[n]
		if n == name {
			continue
		}
		candidates++
		db, err := m.reachable()
		if err != nil {
			continue
		}
		tombSources = append(tombSources, db)
		if m.warming.Load() || m.tombStale.Load() {
			continue
		}
		peers = append(peers, m)
	}
	applied, err := syncTombstones(target.db.Load(), tombSources...)
	stats.TombstonesApplied = applied
	if err != nil {
		return stats, fmt.Errorf("cluster: sync %s: tombstone union: %w", name, err)
	}

	if candidates > 0 && len(peers) == 0 {
		return stats, fmt.Errorf("cluster: sync %s: no usable sources (%d candidates all down, partitioned, warming or tombstone-stale)", name, candidates)
	}

	stats.Peers = len(peers)
	hints := model.SelectHints{Start: math.MinInt64, End: math.MaxInt64}
	dumps := make([][]model.Series, len(peers))
	workpool.Do(len(peers), 0, func(i int) {
		// A peer dropping out mid-sync just contributes nothing; the merged
		// remainder still converges and the next sync finishes the job.
		db := peers[i].DB()
		if db == nil {
			return
		}
		if series, err := db.SelectWithHints(hints, matchAll()); err == nil {
			dumps[i] = series
		}
	})

	merged := model.MergeSeries(dumps)
	stats.SeriesScanned = len(merged)

	var batch []tsdb.BatchSample
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		n, err := target.BatchAppend(batch)
		if err != nil {
			return fmt.Errorf("cluster: sync %s: %w", name, err)
		}
		stats.SamplesOffered += len(batch)
		stats.SamplesApplied += n
		batch = batch[:0]
		return nil
	}
	for _, s := range merged {
		owned := false
		for _, o := range ring.Owners(s.Labels.Hash(), r.R) {
			if o == name {
				owned = true
				break
			}
		}
		if !owned {
			continue
		}
		stats.SeriesOwned++
		for _, smp := range s.Samples {
			batch = append(batch, tsdb.BatchSample{Lset: s.Labels, T: smp.T, V: smp.V})
			if len(batch) >= handoffBatchSize {
				if err := flush(); err != nil {
					return stats, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return stats, err
	}

	// Clear both read gates. The pull filled every hole only if the member
	// took no write since it fell behind; BatchAppend skipped, without
	// error, any sample older than its series' newest.
	target.tombStale.Store(false)
	target.warming.Store(false)
	r.topoGen.Add(1)
	return stats, nil
}

func sortedNames(members map[string]*Member) []string {
	names := make([]string, 0, len(members))
	for n := range members {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
