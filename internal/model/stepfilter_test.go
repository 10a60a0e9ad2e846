package model

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// stepOracle is the rule StepFilter implements, by brute force: a matrix
// selector keeps every sample some step's window (t − Range, t] holds; a bare
// one keeps, per step t, the newest sample at or before t, if it is no older
// than t − Lookback (with Step 0: the newest sample of the read).
func stepOracle(h SelectHints, in []Sample) []Sample {
	var steps []int64
	for t := h.End; t >= h.Start; t -= h.Step {
		steps = append(steps, t)
		if h.Step == 0 {
			break
		}
	}
	keep := map[int64]bool{}
	for _, t := range steps {
		if h.Range > 0 {
			for _, s := range in {
				if s.T > t-h.Range && s.T <= t {
					keep[s.T] = true
				}
			}
			continue
		}
		i := slices.IndexFunc(in, func(s Sample) bool { return s.T > t }) - 1
		if i == -2 {
			i = len(in) - 1
		}
		if i >= 0 && (h.Step == 0 || t-in[i].T <= h.Lookback) {
			keep[in[i].T] = true
		}
	}
	var out []Sample
	for _, s := range in {
		if keep[s.T] {
			out = append(out, s)
		}
	}
	return out
}

// TestStepFilterMatchesOracle: over random streams, step grids and cuts of
// the stream into runs, checkStepFilter holds.
func TestStepFilterMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20000; trial++ {
		var in []Sample
		for ts := rng.Int63n(50); ts < 2000; ts += 1 + rng.Int63n([]int64{3, 20, 200}[trial%3]) {
			in = append(in, Sample{T: ts, V: float64(ts)})
		}
		h := SelectHints{Start: rng.Int63n(400), End: 1000 + rng.Int63n(1000), Lookback: 1 + rng.Int63n(100)}
		if rng.Intn(5) > 0 {
			h.Step = 1 + rng.Int63n(300)
		}
		if rng.Intn(2) == 0 {
			h.Range = 1 + rng.Int63n(200)
			if h.Step == 0 {
				h.Start = h.End - h.Range + 1 // one window, the read
			}
		}
		runs := make([]int, len(in))
		for i := range runs {
			runs[i] = 1 + rng.Intn(12)
		}
		checkStepFilter(t, h, inRead(h, in), runs)
	}
}

// FuzzStepFilter: checkStepFilter holds for any stream, step grid and cut
// of the stream into runs. Times stay small enough for stepOracle's brute
// force: a read spans under 4096 ms and a stream holds at most 512 samples.
func FuzzStepFilter(f *testing.F) {
	f.Add(uint16(0), uint16(1000), uint16(60), uint16(0), uint16(30), []byte{9, 9, 200, 3, 0, 45}, []byte{2, 1, 5})
	f.Add(uint16(17), uint16(3000), uint16(0), uint16(0), uint16(300), []byte{0, 0, 0, 250, 1}, []byte{0})
	f.Add(uint16(5), uint16(2000), uint16(120), uint16(50), uint16(100), []byte{30, 30, 30, 30}, []byte{})
	f.Add(uint16(40), uint16(900), uint16(0), uint16(200), uint16(10), []byte{7, 70, 7}, []byte{3})
	f.Fuzz(func(t *testing.T, start, span, step, width, lookback uint16, gaps, cuts []byte) {
		h := SelectHints{Start: int64(start), Step: int64(step), Range: int64(width), Lookback: 1 + int64(lookback)}
		h.End = h.Start + int64(span%4096)
		if h.Step == 0 && h.Range > 0 {
			h.Start = h.End - h.Range + 1 // one window, the read
		}
		var in []Sample
		ts := int64(start) - 64
		for _, g := range gaps[:min(len(gaps), 512)] {
			ts += 1 + int64(g)
			in = append(in, Sample{T: ts, V: float64(ts)})
		}
		runs := make([]int, len(cuts))
		for i, c := range cuts {
			runs[i] = 1 + int(c%16)
		}
		checkStepFilter(t, h, inRead(h, in), runs)
	})
}

// inRead returns the samples of in within [h.Start, h.End].
func inRead(h SelectHints, in []Sample) []Sample {
	lo := slices.IndexFunc(in, func(s Sample) bool { return s.T >= h.Start })
	if lo < 0 {
		return nil
	}
	hi := slices.IndexFunc(in, func(s Sample) bool { return s.T > h.End })
	if hi < 0 {
		hi = len(in)
	}
	return in[lo:hi]
}

// checkStepFilter checks the filter of h against stepOracle on in, a stream
// in increasing time order within [h.Start, h.End]. Append keeps exactly what
// the oracle keeps, and a bare read's Bound is never below that. So does a
// read that cuts in into runs of the given lengths (the last run takes what
// they leave) and decodes each only up to its Until, as a read decodes its
// chunks: a run's samples after Until are dropped, all of them when Until is
// before its first sample. Until is never before a sample the oracle keeps.
func checkStepFilter(t testing.TB, h SelectHints, in []Sample, runs []int) {
	t.Helper()
	if len(in) == 0 {
		return
	}
	want := stepOracle(h, in)
	f := h.StepFilter()
	if f == nil {
		if h.Range == 0 || (h.Step > 0 && h.Range < h.Step) {
			t.Fatalf("%+v: no filter for a read that trims", h)
		}
		if !slices.Equal(want, in) {
			t.Fatalf("%+v: no filter, but the oracle drops samples", h)
		}
		return
	}
	if f.One() != (h.Range == 0 && h.Step == 0) {
		t.Fatalf("%+v: One() = %v", h, f.One())
	}
	all := *f
	var got []Sample
	for _, s := range in {
		got = all.Append(got, s.T, s.V)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%+v:\n in   %v\n got  %v\n want %v", h, in, got, want)
	}
	if b := f.Bound(len(in), in[0].T, in[len(in)-1].T); b > len(in) || (f.newest && b < len(want)) {
		t.Fatalf("%+v: Bound %d for %d kept of %d", h, b, len(want), len(in))
	}
	kept := map[int64]bool{}
	for _, s := range want {
		kept[s.T] = true
	}
	pos := *f
	got = got[:0]
	for i, r := 0, 0; i < len(in); r++ {
		j := len(in)
		if r < len(runs) {
			j = min(j, i+runs[r])
		}
		next := int64(math.MaxInt64)
		if j < len(in) {
			next = in[j].T
		}
		until := pos.Until(in[j-1].T, next)
		for _, s := range in[i:j] {
			if s.T > until {
				if kept[s.T] {
					t.Fatalf("%+v: Until %d of run %v (next %d) is before kept sample %d", h, until, in[i:j], next, s.T)
				}
				continue
			}
			got = pos.Append(got, s.T, s.V)
		}
		i = j
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%+v with runs read through Until:\n in   %v\n runs %v\n got  %v\n want %v", h, in, runs, got, want)
	}
}

// TestStepFilterOff: reads that opt out, or whose windows cover the read,
// trim nothing.
func TestStepFilterOff(t *testing.T) {
	for _, h := range []SelectHints{
		{Start: 0, End: 1000, Step: 15},
		{Start: 0, End: 1000, Step: 15, Range: 15, Lookback: 300},
		{Start: 0, End: 1000, Step: 0, Range: 60, Lookback: 300},
		{Start: 10, End: 0, Lookback: 300},
		{Start: math.MinInt64, End: math.MaxInt64, Lookback: 300},
	} {
		if h.StepFilter() != nil {
			t.Errorf("%+v: filter returned", h)
		}
	}
}
