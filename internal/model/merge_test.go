package model

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/labels"
)

// oracleMergeSeries is the brute-force statement of the contract: bucket by
// label string, order each bucket's samples by (timestamp, part), keep the
// first of every timestamp, order the buckets by labels.
func oracleMergeSeries(parts [][]Series) []Series {
	type stamped struct {
		Sample
		part int
	}
	lsets := map[string]labels.Labels{}
	buckets := map[string][]stamped{}
	for p, part := range parts {
		for _, s := range part {
			key := s.Labels.String()
			lsets[key] = s.Labels
			for _, smp := range s.Samples {
				buckets[key] = append(buckets[key], stamped{smp, p})
			}
			if _, ok := buckets[key]; !ok {
				buckets[key] = nil
			}
		}
	}
	out := []Series{}
	for key, b := range buckets {
		sort.SliceStable(b, func(i, j int) bool {
			return b[i].T < b[j].T || b[i].T == b[j].T && b[i].part < b[j].part
		})
		var samples []Sample
		for i, s := range b {
			if i == 0 || s.T != b[i-1].T {
				samples = append(samples, s.Sample)
			}
		}
		out = append(out, Series{Labels: lsets[key], Samples: samples})
	}
	slices.SortFunc(out, func(a, b Series) int { return labels.Compare(a.Labels, b.Labels) })
	return out
}

// randomParts builds k label-sorted parts over a small universe of label
// sets. Every series draws one of four run shapes: the same timestamps in
// every part (replicas; the value names the part, so a wrong tie-break
// shows), a window per part (consecutive blocks), timestamps interleaved
// across parts, or a window that overlaps its neighbour's.
func randomParts(rng *rand.Rand, k int) [][]Series {
	universe := make([]labels.Labels, 1+rng.Intn(24))
	for i := range universe {
		ls := labels.FromStrings(labels.MetricName, "m", "k", fmt.Sprintf("v%02d", i))
		if i%5 == 0 { // a different label count, so Compare runs off the end
			ls = labels.FromStrings(labels.MetricName, "m", "k", fmt.Sprintf("v%02d", i), "z", "1")
		}
		universe[i] = ls
	}
	slices.SortFunc(universe, labels.Compare)
	shape := make([]int, len(universe))
	for i := range shape {
		shape[i] = rng.Intn(4)
	}
	parts := make([][]Series, k)
	for p := range parts {
		if rng.Intn(6) == 0 {
			continue // an empty part
		}
		for i, ls := range universe {
			if rng.Intn(3) == 0 {
				continue
			}
			n := rng.Intn(12) // 0: a series with no samples
			samples := make([]Sample, 0, n)
			for j := 0; j < n; j++ {
				var t int64
				switch shape[i] {
				case 0:
					t = int64(j) * 10
				case 1:
					t = int64(p*1000 + j*10)
				case 2:
					t = int64(j*k + p)
				default:
					t = int64(p*50 + j*10)
				}
				samples = append(samples, Sample{T: t, V: float64(p)})
			}
			parts[p] = append(parts[p], Series{Labels: ls, Samples: samples})
		}
	}
	return parts
}

func cloneParts(parts [][]Series) [][]Series {
	out := make([][]Series, len(parts))
	for i, p := range parts {
		for _, s := range p {
			out[i] = append(out[i], Series{Labels: s.Labels.Copy(), Samples: slices.Clone(s.Samples)})
		}
	}
	return out
}

func TestMergeSeriesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 400; round++ {
		k := 1 + round%17
		parts := randomParts(rng, k)
		before := cloneParts(parts)
		got := MergeSeries(parts)
		want := oracleMergeSeries(before)
		if len(got) != len(want) {
			t.Fatalf("round %d (k=%d): %d series, want %d", round, k, len(got), len(want))
		}
		for i := range want {
			if !got[i].Labels.Equal(want[i].Labels) || !slices.Equal(got[i].Samples, want[i].Samples) {
				t.Fatalf("round %d (k=%d) series %d:\n got %v %v\nwant %v %v",
					round, k, i, got[i].Labels, got[i].Samples, want[i].Labels, want[i].Samples)
			}
		}
		if !reflect.DeepEqual(cloneParts(parts), before) {
			t.Fatalf("round %d (k=%d): MergeSeries wrote to its input", round, k)
		}
	}
}

// A series that only one part holds must come back sharing that part's
// samples: the head select hands out thousands of them per query.
func TestMergeSeriesBorrowsUniqueSeries(t *testing.T) {
	a := labels.FromStrings(labels.MetricName, "a")
	b := labels.FromStrings(labels.MetricName, "b")
	parts := [][]Series{
		{{Labels: a, Samples: []Sample{{T: 1, V: 1}}}, {Labels: b, Samples: []Sample{{T: 1, V: 1}}}},
		nil,
		{{Labels: b, Samples: []Sample{{T: 2, V: 2}}}},
	}
	got := MergeSeries(parts)
	if len(got) != 2 || &got[0].Samples[0] != &parts[0][0].Samples[0] {
		t.Fatalf("unique series was copied: %v", got)
	}
	if want := []Sample{{T: 1, V: 1}, {T: 2, V: 2}}; !slices.Equal(got[1].Samples, want) {
		t.Fatalf("shared series: got %v, want %v", got[1].Samples, want)
	}
	if one := MergeSeries(parts[:2]); &one[0] != &parts[0][0] {
		t.Fatal("a single non-empty part must be returned as is")
	}
	if none := MergeSeries(nil); none == nil || len(none) != 0 {
		t.Fatalf("no parts: got %#v, want an empty non-nil slice", none)
	}
}

func TestMergeSortedUniqueKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for k := 0; k <= 17; k++ {
		var parts [][]int
		var want []int
		for p := 0; p < k; p++ {
			part := []int{}
			for v := p; v < 200; v += k + rng.Intn(3)*k {
				part = append(part, v) // v ≡ p (mod k): unique across parts
			}
			parts = append(parts, part)
			want = append(want, part...)
		}
		slices.Sort(want)
		got := MergeSorted(parts, cmp.Compare[int], nil)
		if !slices.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("k=%d: got %v, want %v", k, got, want)
		}
	}
}

func TestMergeSamples(t *testing.T) {
	s := func(v float64, ts ...int64) []Sample {
		out := make([]Sample, len(ts))
		for i, t := range ts {
			out[i] = Sample{T: t, V: v}
		}
		return out
	}
	for _, tc := range []struct {
		name string
		runs [][]Sample
		want []Sample
	}{
		{"none", nil, nil},
		{"disjoint", [][]Sample{s(0, 1, 2), nil, s(1, 3, 4), s(2, 5)}, append(append(s(0, 1, 2), s(1, 3, 4)...), s(2, 5)...)},
		{"identical", [][]Sample{s(0, 1, 2, 3), s(1, 1, 2, 3), s(2, 1, 2, 3)}, s(0, 1, 2, 3)},
		{"reaches back", [][]Sample{s(0, 10, 20), s(1, 5, 20, 30)}, []Sample{{T: 5, V: 1}, {T: 10, V: 0}, {T: 20, V: 0}, {T: 30, V: 1}}},
		{"touching", [][]Sample{s(0, 10, 20), s(1, 20, 30)}, []Sample{{T: 10, V: 0}, {T: 20, V: 0}, {T: 30, V: 1}}},
	} {
		before := make([][]Sample, len(tc.runs))
		for i, r := range tc.runs {
			before[i] = slices.Clone(r)
		}
		if got := MergeSamples(tc.runs); !slices.Equal(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
		for i, r := range tc.runs {
			if !slices.Equal(r, before[i]) {
				t.Errorf("%s: MergeSamples wrote to run %d", tc.name, i)
			}
		}
	}
	one := s(0, 1, 2)
	if got := MergeSamples([][]Sample{nil, one, nil}); &got[0] != &one[0] {
		t.Error("a single non-empty run must be returned as is")
	}
}

// benchParts builds the fan-in shapes of the stack: nSeries label sets of
// the width the exporter produces, split or replicated over k parts.
func benchParts(shape string) [][]Series {
	lset := func(i int) labels.Labels {
		return labels.FromStrings(labels.MetricName, "ceems_compute_unit_cpu_user_seconds_total",
			"hostname", fmt.Sprintf("node%04d", i%64), "instance", fmt.Sprintf("node%04d:9100", i%64),
			"job", "ceems", "manager", "slurm", "uuid", fmt.Sprintf("%07d", i))
	}
	run := func(t0 int64, n int, stride int64) []Sample {
		out := make([]Sample, n)
		for i := range out {
			out[i] = Sample{T: t0 + int64(i)*stride, V: float64(i)}
		}
		return out
	}
	var parts [][]Series
	switch shape {
	case "shards16_unique": // head select: every series in exactly one of 16 shards
		parts = make([][]Series, 16)
		for i := 0; i < 4096; i++ {
			p := int(lset(i).Hash() % 16)
			parts[p] = append(parts[p], Series{Labels: lset(i), Samples: run(0, 40, 15000)})
		}
	case "replicas3_identical": // ring scatter at R=3
		parts = make([][]Series, 3)
		for p := range parts {
			for i := 0; i < 1024; i++ {
				parts[p] = append(parts[p], Series{Labels: lset(i), Samples: run(0, 120, 15000)})
			}
		}
	case "blocks12_disjoint_runs": // a long-range read over 12 consecutive blocks
		parts = make([][]Series, 12)
		for p := range parts {
			for i := 0; i < 256; i++ {
				parts[p] = append(parts[p], Series{Labels: lset(i), Samples: run(int64(p)*480*15000, 480, 15000)})
			}
		}
	case "interleaved": // four sources whose timestamps alternate
		parts = make([][]Series, 4)
		for p := range parts {
			for i := 0; i < 256; i++ {
				parts[p] = append(parts[p], Series{Labels: lset(i), Samples: run(int64(p)*15000, 240, 4*15000)})
			}
		}
	}
	for _, p := range parts {
		slices.SortFunc(p, func(a, b Series) int { return labels.Compare(a.Labels, b.Labels) })
	}
	return parts
}

var mergeSink []Series

func BenchmarkMergeSeries(b *testing.B) {
	for _, shape := range []string{"shards16_unique", "replicas3_identical", "blocks12_disjoint_runs", "interleaved"} {
		b.Run(shape, func(b *testing.B) {
			parts := benchParts(shape)
			b.ReportAllocs()
			for b.Loop() {
				mergeSink = MergeSeries(parts)
			}
		})
	}
}
