package thanos

import (
	"reflect"
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
)

// Distinct series must stay distinct and equal ones must still merge. The
// fan-in once keyed series by their 64-bit label hash alone, fusing
// colliding series silently, then by hash bucket plus Labels.Equal; it now
// goes through model.MergeSeries, which compares full label sets and never
// hashes, so no collision can be staged — what is left to pin is the merge
// itself on the hot/cold shape: earliest source wins a shared timestamp and
// no source is written to.
func TestSeriesMergerKeepsCollidingLabelSetsApart(t *testing.T) {
	a := labels.FromStrings(labels.MetricName, "m", "uuid", "a")
	b := labels.FromStrings(labels.MetricName, "m", "uuid", "b")
	c := labels.FromStrings(labels.MetricName, "m", "uuid", "c")
	cold := []model.Series{
		{Labels: a, Samples: []model.Sample{{T: 1, V: 10}, {T: 2, V: 11}}},
		{Labels: b, Samples: []model.Sample{{T: 1, V: 20}, {T: 2, V: 21}}},
	}
	hot := []model.Series{
		{Labels: a, Samples: []model.Sample{{T: 2, V: 99}, {T: 3, V: 12}}}, // T=2 overlaps: first source wins
		{Labels: b, Samples: []model.Sample{{T: 3, V: 22}}},
		{Labels: c, Samples: []model.Sample{{T: 3, V: 30}}},
	}
	coldCopy := append([]model.Sample(nil), cold[0].Samples...)
	hotCopy := append([]model.Sample(nil), hot[0].Samples...)

	got := model.MergeSeries([][]model.Series{cold, hot})

	want := []model.Series{
		{Labels: a, Samples: []model.Sample{{T: 1, V: 10}, {T: 2, V: 11}, {T: 3, V: 12}}},
		{Labels: b, Samples: []model.Sample{{T: 1, V: 20}, {T: 2, V: 21}, {T: 3, V: 22}}},
		{Labels: c, Samples: []model.Sample{{T: 3, V: 30}}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged:\n got %v\nwant %v", got, want)
	}
	if !reflect.DeepEqual(cold[0].Samples, coldCopy) || !reflect.DeepEqual(hot[0].Samples, hotCopy) {
		t.Errorf("merge wrote into a source's samples: %v %v", cold[0].Samples, hot[0].Samples)
	}
}
