package tsdb

import (
	"repro/internal/labels"
	"repro/internal/model"
)

// BatchSample is one routed sample of a replicated batch append: the shape
// a cluster ingest layer ships to a remote tsdb node in a single call.
type BatchSample struct {
	Lset labels.Labels
	T    int64
	V    float64
}

// Node is the remote-appendable, remote-queryable surface of one tsdb
// instance — what the cluster distribution layer drives on every member.
// The methods are deliberately one-shot (whole batch in, result out) so an
// implementation can sit behind an RPC boundary without chattiness; *DB
// implements it in-process. Errors are transport-shaped: a nil error is an
// acknowledgement that the batch is durable to the node's own WAL policy.
type Node interface {
	// BatchAppend applies a whole batch atomically with respect to locking
	// cost (one shard-lock round-trip per shard touched, one WAL flush per
	// shard) and returns how many samples landed. Out-of-order samples are
	// skipped, not errors — the replication fan-out relies on that to make
	// re-sends and anti-entropy repair idempotent.
	BatchAppend(batch []BatchSample) (int, error)
	// SelectWithHints is the hint-aware read path (see DB.SelectWithHints).
	SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error)
	// LabelValues / LabelNames serve the metadata endpoints.
	LabelValues(name string) []string
	LabelNames() []string
}

// BatchAppend implements Node: the whole batch commits through the batch
// Appender, so the durability cost is O(shards touched), not O(samples),
// and out-of-order duplicates (a replica re-sending what this node already
// holds) are skipped silently.
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
	a := db.Appender()
	for i, s := range samples {
		a.Add(lsets[i], s.T, s.V)
	}
	n, err := a.Commit()
	return len(samples) - n - a.LastCommitStats().Duplicates, err
}
