package lb

import "repro/internal/model"

// MergeReplicaSeries forwards to model.MergeSeries, the stack's one series
// merge; the ring's quorum read (cluster.RingDB) calls that directly.
//
// Deprecated: kept for bench/ until T2 (ROADMAP U).
func MergeReplicaSeries(parts [][]model.Series) []model.Series {
	return model.MergeSeries(parts)
}
