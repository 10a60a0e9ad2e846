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

// TestStepFilterMatchesOracle: over random streams and step grids, Append
// keeps exactly what the brute-force rule keeps, and so does Append with the
// runs Skips names left out, whatever the runs; a bare read's Bound is never
// below what it keeps.
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
		lo := slices.IndexFunc(in, func(s Sample) bool { return s.T >= h.Start })
		hi := slices.IndexFunc(in, func(s Sample) bool { return s.T > h.End })
		if lo < 0 {
			continue
		}
		if hi < 0 {
			hi = len(in)
		}
		in = in[lo:hi]
		want := stepOracle(h, in)
		f := h.StepFilter()
		if f == nil {
			if h.Range == 0 || (h.Step > 0 && h.Range < h.Step) {
				t.Fatalf("%+v: no filter for a read that trims", h)
			}
			if !slices.Equal(want, in) {
				t.Fatalf("%+v: no filter, but the oracle drops samples", h)
			}
			continue
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
		// Cut the stream into random runs and leave out those Skips names.
		runs := *f
		got = got[:0]
		for i := 0; i < len(in); {
			j := min(len(in), i+1+rng.Intn(12))
			next := int64(math.MaxInt64)
			if j < len(in) {
				next = in[j].T
			}
			if !runs.Skips(in[i].T, in[j-1].T, next) {
				for _, s := range in[i:j] {
					got = runs.Append(got, s.T, s.V)
				}
			}
			i = j
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%+v with skipped runs:\n in   %v\n got  %v\n want %v", h, in, got, want)
		}
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
