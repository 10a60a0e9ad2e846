package tsdb

import (
	"repro/internal/labels"
	"repro/internal/model"
)

// BatchSample is one routed sample of a replicated batch append: the shape
// the cluster ingest layer hands a ring member in a single call.
type BatchSample struct {
	Lset labels.Labels
	T    int64
	V    float64
}

// BatchAppend commits the whole batch through the batch Appender — one
// shard-lock round-trip and one WAL flush per shard touched, not per sample
// — and returns how many samples landed. A nil error acknowledges that the
// batch is durable to this node's own WAL policy. Out-of-order duplicates
// (a replica re-sending what this node already holds) are skipped, not
// errors: the replication fan-out relies on that to make re-sends and
// anti-entropy repair idempotent.
func (db *DB) BatchAppend(batch []BatchSample) (int, error) {
	a := db.Appender()
	for _, s := range batch {
		a.Add(s.Lset, s.T, s.V)
	}
	return a.Commit()
}

// AppendBatch commits samples[i] to the series lsets[i] as one batch: the
// batch Appender under the neutral signature rule evaluation discovers on
// its destination (rules.BatchAppender). refused counts the samples that
// did not land because the head turned them away as out of order or too
// old, or because an error cut the commit short; exact duplicates under
// the out-of-order window are skipped, not refused, as in Append.
func (db *DB) AppendBatch(lsets []labels.Labels, samples []model.Sample) (refused int, err error) {
	return db.AppendEntries(nil, lsets, samples)
}

// AppendEntries is AppendBatch by ref (rules.EntryAppender): a sample whose
// entries[i] is non-nil is staged with Appender.AddEntry, under
// entries[i].Labels, and the others under lsets[i]. entries is nil or as
// long as samples.
func (db *DB) AppendEntries(entries []*labels.CacheEntry, lsets []labels.Labels, samples []model.Sample) (refused int, err error) {
	a := db.Appender()
	for i, s := range samples {
		if entries != nil && entries[i] != nil {
			a.AddEntry(entries[i], s.T, s.V)
		} else {
			a.Add(lsets[i], s.T, s.V)
		}
	}
	n, err := a.Commit()
	return len(samples) - n - a.LastCommitStats().Duplicates, err
}
