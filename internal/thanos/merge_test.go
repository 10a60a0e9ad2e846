package thanos

import (
	"reflect"
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
)

// With every label set forced onto one hash bucket, distinct series must
// stay distinct and equal ones must still merge — the 64-bit hash alone
// used to decide identity, fusing colliding series silently.
func TestSeriesMergerKeepsCollidingLabelSetsApart(t *testing.T) {
	a := labels.FromStrings(labels.MetricName, "m", "uuid", "a")
	b := labels.FromStrings(labels.MetricName, "m", "uuid", "b")
	c := labels.FromStrings(labels.MetricName, "m", "uuid", "c")
	cold := []model.Series{
		{Labels: b, Samples: []model.Sample{{T: 1, V: 20}, {T: 2, V: 21}}},
		{Labels: a, Samples: []model.Sample{{T: 1, V: 10}, {T: 2, V: 11}}},
	}
	hot := []model.Series{
		{Labels: a, Samples: []model.Sample{{T: 2, V: 99}, {T: 3, V: 12}}}, // T=2 overlaps: first source wins
		{Labels: c, Samples: []model.Sample{{T: 3, V: 30}}},
		{Labels: b, Samples: []model.Sample{{T: 3, V: 22}}},
	}
	coldCopy := append([]model.Sample(nil), cold[1].Samples...)

	m := newSeriesMerger()
	m.hash = func(labels.Labels) uint64 { return 42 }
	m.add(cold)
	m.add(hot)
	got := m.result()

	want := []model.Series{
		{Labels: a, Samples: []model.Sample{{T: 1, V: 10}, {T: 2, V: 11}, {T: 3, V: 12}}},
		{Labels: b, Samples: []model.Sample{{T: 1, V: 20}, {T: 2, V: 21}, {T: 3, V: 22}}},
		{Labels: c, Samples: []model.Sample{{T: 3, V: 30}}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged under a constant hash:\n got %v\nwant %v", got, want)
	}
	if !reflect.DeepEqual(cold[1].Samples, coldCopy) {
		t.Errorf("merger wrote into a source's samples: %v", cold[1].Samples)
	}

	// The real hash must give the same answer.
	m = newSeriesMerger()
	m.add(cold)
	m.add(hot)
	if got := m.result(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged under labels.Hash:\n got %v\nwant %v", got, want)
	}
}
