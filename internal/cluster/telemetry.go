package cluster

import (
	"repro/internal/telemetry"
)

// ringMetrics is the coordinator's hot-path instrumentation; nil disables
// it (the quorum commit pays one branch).
type ringMetrics struct {
	quorumCommitSeconds *telemetry.Histogram
}

// InstrumentTelemetry registers the ring's instruments on reg: the quorum
// commit latency, a histogram observed on every RingAppender.Commit, and a
// gather-time gauge of the ring's members. Call once at wiring time.
func (r *RingDB) InstrumentTelemetry(reg *telemetry.Registry) {
	r.metrics = &ringMetrics{
		quorumCommitSeconds: reg.Histogram("telemetry_cluster_quorum_commit_seconds",
			"Quorum write fan-out latency for one batch commit (all owner groups).",
			telemetry.LatencyBuckets),
	}
	reg.GaugeFunc("telemetry_cluster_members",
		"Members in the ring (regardless of health).",
		func() float64 { return float64(len(r.MemberNames())) })
}
