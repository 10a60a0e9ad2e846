package thanos

import (
	"cmp"
	"slices"

	"repro/internal/labels"
	"repro/internal/model"
)

// seriesMerger folds the per-source results of one fan-in Select (hot +
// cold, or every block of the store) into one series per label set. The
// 64-bit labels hash only buckets: a hit is confirmed with Labels.Equal and
// colliding label sets chain, so two distinct series are never fused.
type seriesMerger struct {
	hash   func(labels.Labels) uint64
	byHash map[uint64]*mergedSeries
	order  []*mergedSeries
}

type mergedSeries struct {
	model.Series
	next *mergedSeries // next label set with the same hash
	// owned: Samples is the merger's own allocation rather than a source's.
	// unsorted: an added run started at or before the previous run's end.
	owned, unsorted bool
}

func newSeriesMerger() *seriesMerger {
	return &seriesMerger{hash: labels.Labels.Hash, byHash: map[uint64]*mergedSeries{}}
}

// add merges one source's series in. A label set's first run is borrowed;
// it is copied only when a second source contributes to it.
func (m *seriesMerger) add(list []model.Series) {
	for _, sr := range list {
		h := m.hash(sr.Labels)
		e := m.byHash[h]
		for e != nil && !e.Labels.Equal(sr.Labels) {
			e = e.next
		}
		if e == nil {
			e = &mergedSeries{Series: sr, next: m.byHash[h]}
			m.byHash[h] = e
			m.order = append(m.order, e)
			continue
		}
		if len(sr.Samples) == 0 {
			continue
		}
		if !e.owned {
			e.Samples = append(make([]model.Sample, 0, len(e.Samples)+len(sr.Samples)), e.Samples...)
			e.owned = true
		}
		if n := len(e.Samples); n > 0 && sr.Samples[0].T <= e.Samples[n-1].T {
			e.unsorted = true
		}
		e.Samples = append(e.Samples, sr.Samples...)
	}
}

// result returns the merged series sorted by labels, each with samples in
// time order and one sample per timestamp (on a tie the earliest-added
// source wins). Sources hand in sorted, duplicate-free runs, so only series
// whose runs interleaved are re-sorted.
func (m *seriesMerger) result() []model.Series {
	out := make([]model.Series, 0, len(m.order))
	for _, e := range m.order {
		if e.unsorted {
			slices.SortStableFunc(e.Samples, func(a, b model.Sample) int { return cmp.Compare(a.T, b.T) })
			e.Samples = slices.CompactFunc(e.Samples, func(a, b model.Sample) bool { return a.T == b.T })
		}
		out = append(out, e.Series)
	}
	slices.SortFunc(out, func(a, b model.Series) int { return labels.Compare(a.Labels, b.Labels) })
	return out
}
