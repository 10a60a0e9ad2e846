package cluster

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb"
)

// newMemRing assembles a ring of in-memory members (no WALs).
func newMemRing(t *testing.T, rf, w int, nodes ...string) *RingDB {
	t.Helper()
	ring, err := NewRingDB(rf, w, 0, func(string) (*tsdb.DB, error) {
		return tsdb.Open(tsdb.DefaultOptions())
	}, nodes...)
	if err != nil {
		t.Fatalf("NewRingDB: %v", err)
	}
	t.Cleanup(func() { ring.Close() })
	return ring
}

// put writes samples of one series straight into a member's tsdb, past the
// quorum path, so members can hold copies that differ.
func put(t *testing.T, db *tsdb.DB, name string, samples ...model.Sample) {
	t.Helper()
	batch := make([]tsdb.BatchSample, len(samples))
	for i, s := range samples {
		batch[i] = tsdb.BatchSample{Lset: labels.FromStrings(labels.MetricName, name), T: s.T, V: s.V}
	}
	if _, err := db.BatchAppend(batch); err != nil {
		t.Fatalf("append %s: %v", name, err)
	}
}

func series(name string, samples ...model.Sample) model.Series {
	return model.Series{
		Labels:  labels.FromStrings(labels.MetricName, name),
		Samples: samples,
	}
}

func sample(t int64, v float64) model.Sample { return model.Sample{T: t, V: v} }

// TestScatterMergeDedup: members holding overlapping copies of the same
// series merge into exactly one series with the timestamp-deduplicated
// sample union, and disjoint series interleave in label order.
func TestScatterMergeDedup(t *testing.T) {
	ring := newMemRing(t, 2, 2, "a", "b")
	a, b := ring.Member("a").DB(), ring.Member("b").DB()
	put(t, a, "cpu", sample(1, 10), sample(2, 20))
	put(t, a, "mem", sample(1, 1))
	put(t, b, "cpu", sample(2, 20), sample(3, 30))
	put(t, b, "net", sample(5, 5))

	got, err := ring.SelectWithHints(model.SelectHints{End: 100}, matchAll())
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	want := []model.Series{
		series("cpu", sample(1, 10), sample(2, 20), sample(3, 30)),
		series("mem", sample(1, 1)),
		series("net", sample(5, 5)),
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merged result:\n got %v\nwant %v", got, want)
	}
	vals, err := ring.LabelValues(labels.MetricName)
	if err != nil || fmt.Sprint(vals) != "[cpu mem net]" {
		t.Fatalf("LabelValues = %v %v, want [cpu mem net]", vals, err)
	}
}

// TestScatterQuorumCoverage: the ring answers while every owner group keeps
// R−W+1 responders and refuses the moment one group drops below it.
func TestScatterQuorumCoverage(t *testing.T) {
	ring := newMemRing(t, 3, 2, "a", "b", "c")
	if err := ring.Append(labels.FromStrings(labels.MetricName, "cpu"), 1, 1); err != nil {
		t.Fatalf("append: %v", err)
	}

	ring.Partition("c")
	if _, err := ring.SelectWithHints(model.SelectHints{End: 10}, matchAll()); err != nil {
		t.Fatalf("one failure under R=3 W=2 should answer, got %v", err)
	}

	ring.Partition("b")
	_, err := ring.SelectWithHints(model.SelectHints{End: 10}, matchAll())
	var qerr *model.ErrQuorumUnavailable
	if !errors.As(err, &qerr) {
		t.Fatalf("two failures should fail coverage, got %v", err)
	}
	if qerr.Got != 1 || qerr.Need != 2 {
		t.Fatalf("coverage error reported got=%d need=%d, want 1/2", qerr.Got, qerr.Need)
	}

	// The label reads obey the same rule.
	if _, err := ring.LabelValues(labels.MetricName); !errors.As(err, &qerr) {
		t.Fatalf("LabelValues under lost coverage: got %v", err)
	}
	if _, err := ring.LabelNames(); !errors.As(err, &qerr) {
		t.Fatalf("LabelNames under lost coverage: got %v", err)
	}
	ring.Heal()
	vals, err := ring.LabelValues(labels.MetricName)
	if err != nil || len(vals) == 0 {
		t.Fatalf("LabelValues after recovery: %v %v", vals, err)
	}
}

// TestScatterSampleLimit: a member blowing the sample budget is a query
// error, not node unavailability — it surfaces even with quorum intact.
func TestScatterSampleLimit(t *testing.T) {
	ring := newMemRing(t, 2, 2, "a", "b")
	put(t, ring.Member("a").DB(), "cpu", sample(1, 1))
	put(t, ring.Member("b").DB(), "cpu", sample(1, 1), sample(2, 2), sample(3, 3))
	_, err := ring.SelectWithHints(model.SelectHints{End: 10, SampleLimit: 2}, matchAll())
	if !errors.Is(err, model.ErrSampleLimit) {
		t.Fatalf("sample-limit blowout should surface, got %v", err)
	}
}
