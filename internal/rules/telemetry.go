package rules

import "repro/internal/telemetry"

// ruleMetrics is the engine's instrumentation; nil disables it (an
// evaluation pays one branch per group).
type ruleMetrics struct {
	reg          *telemetry.Registry
	selects      *telemetry.Counter
	viewHits     *telemetry.Counter
	written      *telemetry.Counter
	staleMarkers *telemetry.Counter
}

// InstrumentTelemetry registers the engine's instruments on reg. Call once
// at wiring time, before the first evaluation.
func (e *Engine) InstrumentTelemetry(reg *telemetry.Registry) {
	e.metrics = &ruleMetrics{
		reg: reg,
		selects: reg.Counter("telemetry_rules_storage_selects_total",
			"Storage Selects issued by rule evaluation."),
		viewHits: reg.Counter("telemetry_rules_view_hits_total",
			"Rule selector reads served by the group's evaluation itself: an earlier rule's output, or a storage read already made for the same matchers and window."),
		written: reg.Counter("telemetry_rules_samples_written_total",
			"Result samples handed to the destination by rule evaluation."),
		staleMarkers: reg.Counter("telemetry_rules_stale_markers_total",
			"Staleness markers written for series a rule stopped producing."),
	}
}

// groupSeconds returns the evaluation latency histogram of one group.
func (m *ruleMetrics) groupSeconds(group string) *telemetry.Histogram {
	return m.reg.Histogram("telemetry_rules_group_eval_seconds",
		"Latency of one rule group evaluation: every rule, then the commit.",
		telemetry.LatencyBuckets, "group", group)
}
