package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
)

// trimStream is what the step filter keeps of one whole stream.
func trimStream(f *model.StepFilter, in []model.Sample) []model.Sample {
	pos := *f
	var out []model.Sample
	for _, s := range in {
		out = pos.Append(out, s.T, s.V)
	}
	return out
}

// sameSample reports whether a and b are one sample, value bits included.
func sameSample(a, b model.Sample) bool {
	return a.T == b.T && math.Float64bits(a.V) == math.Float64bits(b.V)
}

// checkTrimmed holds a trimmed read to its rule: per series, every sample the
// filter keeps of the untrimmed read, and nothing the untrimmed read does not
// hold; exactly what the filter keeps where exact is set. A series the filter
// keeps nothing of may be left out.
func checkTrimmed(t *testing.T, what string, f *model.StepFilter, got, full []model.Series, exact bool) {
	t.Helper()
	j := 0
	for _, fs := range full {
		want := trimStream(f, fs.Samples)
		var have []model.Sample
		if j < len(got) && labels.Compare(got[j].Labels, fs.Labels) == 0 {
			have = got[j].Samples
			j++
		}
		if exact && len(have) != len(want) {
			t.Fatalf("%s %s: kept %d samples, the filter %d:\n got  %v\n want %v", what, fs.Labels, len(have), len(want), have, want)
		}
		k := 0
		for _, s := range have {
			for k < len(fs.Samples) && fs.Samples[k].T < s.T {
				k++
			}
			if k == len(fs.Samples) || !sameSample(fs.Samples[k], s) {
				t.Fatalf("%s %s: kept %v, which the untrimmed read does not hold", what, fs.Labels, s)
			}
		}
		k = 0
		for _, w := range want {
			for k < len(have) && have[k].T < w.T {
				k++
			}
			if k == len(have) || !sameSample(have[k], w) {
				t.Fatalf("%s %s: dropped %v, which a step sees:\n got  %v\n want %v", what, fs.Labels, w, have, want)
			}
		}
	}
	if j != len(got) {
		t.Fatalf("%s: %d series the untrimmed read does not return", what, len(got)-j)
	}
}

// randTrimHints draws a read of [0, maxT] with a random step grid opted in to
// trimming: bare or ranged, instant or stepped, sparse or dense.
func randTrimHints(rng *rand.Rand, maxT int64) model.SelectHints {
	h := model.SelectHints{
		End:      int64(rng.Intn(int(maxT))),
		Step:     []int64{0, 1000, 15000, 47000, 120000, 600000}[rng.Intn(6)],
		Lookback: []int64{1, 20000, 300000}[rng.Intn(3)],
	}
	if rng.Intn(2) == 0 {
		h.Range = []int64{1000, 30000, 120000}[rng.Intn(3)]
	}
	h.Start = h.End - int64(rng.Intn(int(maxT)))
	return h
}

// TestHeadSelectTrimmed: reads of random heads under random step grids keep
// exactly what the step filter keeps of each series' whole stream when the
// series is one in-order stream, and a superset of it holding nothing else
// when out-of-order samples are merged in; so do reads of blocks cut from
// the head, raw and downsampled, whose series are trimmed per block.
func TestHeadSelectTrimmed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const maxT = 300 * 15000
	for round := 0; round < 4; round++ {
		ooo := round%2 == 1
		opts := Options{Shards: 4, MaxSamplesPerChunk: 1 + rng.Intn(40)}
		if ooo {
			opts.OutOfOrderWindow = 1 << 40
		}
		db := MustOpen(opts)
		for i := 0; i < 60; i++ {
			ls := labels.FromStrings(labels.MetricName, "m", "i", fmt.Sprint(i))
			var samples []model.Sample
			gap := []int64{1000, 15000, 90000}[rng.Intn(3)]
			for ts := int64(rng.Intn(maxT / 2)); ts < maxT; ts += gap + int64(rng.Intn(5000)) {
				v := rng.NormFloat64()
				switch rng.Intn(30) {
				case 0:
					v = math.NaN()
				case 1:
					v = model.StaleNaN()
				}
				samples = append(samples, model.Sample{T: ts, V: v})
			}
			if ooo && i%3 == 0 {
				rng.Shuffle(len(samples), func(a, b int) { samples[a], samples[b] = samples[b], samples[a] })
			}
			for _, s := range samples {
				if err := db.Append(ls, s.T, s.V); err != nil && !ooo {
					t.Fatal(err)
				}
			}
		}
		raw, err := db.CutPersistentBlock("", 0, maxT)
		if err != nil {
			t.Fatal(err)
		}
		down, err := downsampleWhole("", raw, 60000)
		if err != nil {
			t.Fatal(err)
		}
		m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m")
		for trial := 0; trial < 150; trial++ {
			h := randTrimHints(rng, maxT)
			f := h.StepFilter()
			if f == nil {
				continue
			}
			what := fmt.Sprintf("round %d %+v", round, h)
			full, err := db.SelectWithHints(model.SelectHints{Start: h.Start, End: h.End}, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := db.SelectWithHints(h, m)
			if err != nil {
				t.Fatal(err)
			}
			checkTrimmed(t, "head "+what, f, got, full, !ooo)
			// Blocks are read alone, and a raw block together with its
			// downsampled sibling: that one serves the whole buckets of the
			// window, the raw one the edges, so each part is read over part
			// of the window. A step whose window spans a seam may keep the
			// newest sample of each side.
			for _, b := range []struct {
				name   string
				blocks []*PersistentBlock
				aggr   AggrType
			}{{"raw", []*PersistentBlock{raw}, AggrRaw}, {"avg", []*PersistentBlock{down}, AggrAvg},
				{"max", []*PersistentBlock{down}, AggrMax}, {"max over raw", []*PersistentBlock{raw, down}, AggrMax}} {
				src := Sources{Blocks: b.blocks, Aggr: b.aggr}
				full, err := src.Select(model.SelectHints{Start: h.Start, End: h.End}, m)
				if err != nil {
					t.Fatal(err)
				}
				got, err := src.Select(h, m)
				if err != nil {
					t.Fatal(err)
				}
				checkTrimmed(t, fmt.Sprintf("%s blocks %s", b.name, what), f, got, full, len(b.blocks) == 1)
			}
		}
	}
}

// TestHeadInstantReadWithoutLastChunk: a bare instant read answers from the
// series' newest sample only while the chunk holding it is kept; without it
// the read decodes what is left, out-of-order buffer included.
func TestHeadInstantReadWithoutLastChunk(t *testing.T) {
	db := MustOpen(Options{Shards: 1, MaxSamplesPerChunk: 4, OutOfOrderWindow: 1 << 40})
	ls := labels.FromStrings(labels.MetricName, "m")
	for _, ts := range []int64{1000, 2000, 3000, 4000, 2500} { // one closed chunk, then an out-of-order sample
		if err := db.Append(ls, ts, float64(ts)); err != nil {
			t.Fatal(err)
		}
	}
	m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m")
	instant := model.SelectHints{Start: 0, End: 5000, Lookback: 5000}
	read := func() []model.Sample {
		got, err := db.SelectWithHints(instant, m)
		if err != nil || len(got) != 1 {
			t.Fatalf("read: %v, err %v", got, err)
		}
		return got[0].Samples
	}
	if got := read(); len(got) != 1 || got[0] != (model.Sample{T: 4000, V: 4000}) {
		t.Fatalf("with its chunk kept: %v", got)
	}
	// Retention drops the closed chunk; the series lives on in its
	// out-of-order buffer.
	s := db.shards[0].byRef[1]
	s.mu.Lock()
	s.chunks = nil
	s.mu.Unlock()
	if got := read(); len(got) != 1 || got[0] != (model.Sample{T: 2500, V: 2500}) {
		t.Fatalf("with its chunk gone: %v, want the out-of-order sample", got)
	}
}
