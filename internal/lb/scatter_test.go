package lb

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
)

// fakeBackend serves a fixed series dump or a fixed error.
type fakeBackend struct {
	series []model.Series
	err    error
}

func (f *fakeBackend) SelectWithHints(model.SelectHints, ...*labels.Matcher) ([]model.Series, error) {
	return f.series, f.err
}
func (f *fakeBackend) LabelValues(string) ([]string, error) {
	if f.err != nil {
		return nil, f.err
	}
	var out []string
	for _, s := range f.series {
		out = append(out, s.Labels.Name())
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}
func (f *fakeBackend) LabelNames() ([]string, error) {
	if f.err != nil {
		return nil, f.err
	}
	return []string{labels.MetricName}, nil
}

// staticPlacement pins the owner groups.
type staticPlacement struct{ groups [][]string }

func (p *staticPlacement) Groups() [][]string { return p.groups }

func series(name string, samples ...model.Sample) model.Series {
	return model.Series{
		Labels:  labels.FromStrings(labels.MetricName, name),
		Samples: samples,
	}
}

func sample(t int64, v float64) model.Sample { return model.Sample{T: t, V: v} }

// TestScatterMergeDedup: replicas holding overlapping copies of the same
// series merge into exactly one series with the timestamp-deduplicated
// sample union, and disjoint series interleave in label order.
func TestScatterMergeDedup(t *testing.T) {
	sg := NewScatterGather(&staticPlacement{groups: [][]string{{"a", "b"}}}, 1)
	sg.SetReplica("a", &fakeBackend{series: []model.Series{
		series("cpu", sample(1, 10), sample(2, 20)),
		series("mem", sample(1, 1)),
	}})
	sg.SetReplica("b", &fakeBackend{series: []model.Series{
		series("cpu", sample(2, 20), sample(3, 30)),
		series("net", sample(5, 5)),
	}})

	got, err := sg.SelectWithHints(model.SelectHints{End: 100})
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
}

// TestScatterQuorumCoverage: the gatherer answers while every owner group
// keeps ReadQuorum responders and refuses the moment one group drops
// below it.
func TestScatterQuorumCoverage(t *testing.T) {
	place := &staticPlacement{groups: [][]string{{"a", "b", "c"}}}
	sg := NewScatterGather(place, 2)
	healthy := func() {
		for _, n := range []string{"a", "b", "c"} {
			sg.SetReplica(n, &fakeBackend{series: []model.Series{series("cpu", sample(1, 1))}})
		}
	}

	healthy()
	sg.SetReplica("c", &fakeBackend{err: errors.New("down")})
	if _, err := sg.SelectWithHints(model.SelectHints{End: 10}); err != nil {
		t.Fatalf("one failure under R=3 read-quorum=2 should answer, got %v", err)
	}

	sg.SetReplica("b", &fakeBackend{err: errors.New("down")})
	_, err := sg.SelectWithHints(model.SelectHints{End: 10})
	var qerr *ErrQuorumUnavailable
	if !errors.As(err, &qerr) {
		t.Fatalf("two failures should fail coverage, got %v", err)
	}
	if qerr.Got != 1 || qerr.Need != 2 {
		t.Fatalf("coverage error reported got=%d need=%d, want 1/2", qerr.Got, qerr.Need)
	}

	// LabelValues obeys the same rule.
	if _, err := sg.LabelValues(labels.MetricName); !errors.As(err, &qerr) {
		t.Fatalf("LabelValues under lost coverage: got %v", err)
	}
	healthy()
	vals, err := sg.LabelValues(labels.MetricName)
	if err != nil || len(vals) == 0 {
		t.Fatalf("LabelValues after recovery: %v %v", vals, err)
	}
}

// TestScatterSampleLimit: a replica blowing the sample budget is a query
// error, not node unavailability — it surfaces even with quorum intact.
func TestScatterSampleLimit(t *testing.T) {
	sg := NewScatterGather(&staticPlacement{groups: [][]string{{"a", "b"}}}, 1)
	sg.SetReplica("a", &fakeBackend{series: []model.Series{series("cpu", sample(1, 1))}})
	sg.SetReplica("b", &fakeBackend{err: fmt.Errorf("select: %w", model.ErrSampleLimit)})
	if _, err := sg.SelectWithHints(model.SelectHints{End: 10}); !errors.Is(err, model.ErrSampleLimit) {
		t.Fatalf("sample-limit blowout should surface, got %v", err)
	}
}

// TestScatterNoReplicas: an empty gatherer refuses rather than returning
// an empty result that looks like real data.
func TestScatterNoReplicas(t *testing.T) {
	sg := NewScatterGather(nil, 1)
	var qerr *ErrQuorumUnavailable
	if _, err := sg.SelectWithHints(model.SelectHints{End: 10}); !errors.As(err, &qerr) {
		t.Fatalf("empty replica set should fail coverage, got %v", err)
	}
}
