package tsdb

import (
	"repro/internal/telemetry"
)

// tsdbMetrics is the head's hot-path instrumentation. The counters with a
// breakdown (out-of-order/duplicate/too-old) are maintained by commitShard,
// so they cover Append, AppendSeries and the batch Appender alike; the
// appended-samples total is a CounterFunc over the same per-shard atomics
// AppendEpoch reads, so it can never disagree with the querycache's
// watermark view of append progress.
type tsdbMetrics struct {
	oooAccepted     *telemetry.Counter
	duplicates      *telemetry.Counter
	tooOld          *telemetry.Counter
	commitSeconds   *telemetry.Histogram
	walFlushBytes   *telemetry.Counter
	walFlushSeconds *telemetry.Histogram
	walFsyncSeconds *telemetry.Histogram
}

// instrument registers the head's instruments on reg and attaches the
// hot-path metrics struct to the DB and its shard WALs. Called by Open when
// Options.Telemetry is set; commitShard, Commit and the WAL writers
// nil-check db.metrics, so an uninstrumented head pays one branch each.
func (db *DB) instrument(reg *telemetry.Registry) {
	m := &tsdbMetrics{
		oooAccepted: reg.Counter("telemetry_tsdb_ooo_accepted_total",
			"Samples accepted into the out-of-order window (all append paths)."),
		duplicates: reg.Counter("telemetry_tsdb_duplicates_total",
			"Exact (series, timestamp) repeats silently skipped (all append paths)."),
		tooOld: reg.Counter("telemetry_tsdb_too_old_total",
			"Samples rejected for falling outside the out-of-order window (all append paths)."),
		commitSeconds: reg.Histogram("telemetry_tsdb_commit_seconds",
			"Batch Appender commit latency (memory apply plus WAL flush across touched shards).",
			telemetry.IOBuckets),
		walFlushBytes: reg.Counter("telemetry_tsdb_wal_flush_bytes_total",
			"Journal bytes written (one buffered write + flush per shard per commit)."),
		walFlushSeconds: reg.Histogram("telemetry_tsdb_wal_flush_seconds",
			"Latency of one commit's journal write + flush on one shard.",
			telemetry.IOBuckets),
		walFsyncSeconds: reg.Histogram("telemetry_tsdb_wal_fsync_seconds",
			"Segment fsync latency (rotation, checkpoint and close).",
			telemetry.IOBuckets),
	}
	reg.CounterFunc("telemetry_tsdb_appended_samples_total",
		"Samples appended to the head (all paths; the counter behind AppendEpoch).",
		func() float64 { return float64(db.AppendEpoch()) })
	reg.GaugeFunc("telemetry_tsdb_head_series",
		"Live series across all head shards.",
		func() float64 { return float64(db.seriesCount()) })
	if db.opts.WALDir != "" {
		reg.CounterFunc("telemetry_tsdb_wal_records_total",
			"WAL records written since open, summed over shards.",
			func() float64 {
				ws, _ := db.WALStats()
				return float64(ws.Records)
			})
		reg.CounterFunc("telemetry_tsdb_wal_checkpoints_total",
			"Shard checkpoints completed since open.",
			func() float64 {
				ws, _ := db.WALStats()
				return float64(ws.Checkpoints)
			})
	}
	db.metrics = m
	for _, sh := range db.shards {
		if sh.wal != nil {
			sh.wal.metrics = m
		}
	}
}

// seriesCount sums live series over shards — a cheap map-length read per
// shard, unlike Stats() which walks every chunk.
func (db *DB) seriesCount() int {
	n := 0
	for _, sh := range db.shards {
		sh.mu.RLock()
		n += len(sh.byRef)
		sh.mu.RUnlock()
	}
	return n
}
