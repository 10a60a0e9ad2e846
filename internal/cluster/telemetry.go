package cluster

import (
	"repro/internal/telemetry"
)

// ringMetrics is the coordinator's hot-path instrumentation; nil disables
// it (the quorum commit pays one branch).
type ringMetrics struct {
	quorumCommitSeconds *telemetry.Histogram
}

// InstrumentTelemetry registers the ring's instruments on reg. The
// read-repair series are gather-time bridges over the same atomics
// RepairStatsSnapshot reads — one source of truth for JSON and
// /metrics — while the quorum commit latency is a histogram observed on
// every RingAppender.Commit. Call once at wiring time.
func (r *RingDB) InstrumentTelemetry(reg *telemetry.Registry) {
	r.metrics = &ringMetrics{
		quorumCommitSeconds: reg.Histogram("telemetry_cluster_quorum_commit_seconds",
			"Quorum write fan-out latency for one batch commit (all owner groups).",
			telemetry.LatencyBuckets),
	}
	reg.CounterFunc("telemetry_cluster_repair_series_total",
		"Series back-filled into stale replicas by read repair.",
		func() float64 { return float64(r.scatter.RepairStatsSnapshot().SeriesRepaired) })
	reg.CounterFunc("telemetry_cluster_repair_samples_total",
		"Samples back-filled by read repair.",
		func() float64 { return float64(r.scatter.RepairStatsSnapshot().SamplesRepaired) })
	reg.CounterFunc("telemetry_cluster_repair_dropped_total",
		"Read repairs discarded by the bounded queue.",
		func() float64 { return float64(r.scatter.RepairStatsSnapshot().Dropped) })
	reg.CounterFunc("telemetry_cluster_repair_errors_total",
		"Read-repair back-fills the target replica rejected.",
		func() float64 { return float64(r.scatter.RepairStatsSnapshot().Errors) })
	reg.GaugeFunc("telemetry_cluster_members",
		"Members in the ring (regardless of health).",
		func() float64 { return float64(len(r.MemberNames())) })
}
