package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb/chunkenc"
)

// inOrderLocked decodes every in-order chunk of s from its first sample,
// marks unused; the caller holds s.mu.
func inOrderLocked(t *testing.T, s *memSeries) []model.Sample {
	t.Helper()
	var out []model.Sample
	decode := func(c *chunkenc.Chunk) {
		it := c.Iterator()
		for it.Next() {
			ts, v := it.At()
			out = append(out, model.Sample{T: ts, V: v})
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
	}
	for _, cr := range s.chunks {
		decode(cr.chunk)
	}
	if s.head != nil {
		decode(s.head.chunk)
	}
	return out
}

// fullDecodeSelect is the head read before seek marks, written out: per
// series every chunk decoded from sample 0, cut to the window, trimmed by the
// step filter as one stream, and the out-of-order buffer trimmed as another
// and merged in behind it (the in-order sample wins a tie); a bare read at
// one step answers from the newest sample while its chunk is kept.
func fullDecodeSelect(t *testing.T, db *DB, h model.SelectHints, m *labels.Matcher) []model.Series {
	t.Helper()
	f := h.StepFilter()
	trim := func(in []model.Sample) []model.Sample {
		var out []model.Sample
		for _, s := range in {
			if s.T >= h.Start && s.T <= h.End {
				out = append(out, s)
			}
		}
		if f != nil {
			out = trimStream(f, out)
		}
		return out
	}
	var res []model.Series
	for _, sh := range db.shards {
		sh.mu.RLock()
		heads := sh.selectLocked(nil, []*labels.Matcher{m})
		sh.mu.RUnlock()
		for _, s := range heads {
			s.mu.Lock()
			var got []model.Sample
			if f != nil && f.One() && s.lastT >= h.Start && s.lastT <= h.End && s.holdsLastLocked() {
				got = []model.Sample{{T: s.lastT, V: s.lastV}}
			} else {
				in, ooo := trim(inOrderLocked(t, s)), trim(s.ooo)
				for len(in) > 0 || len(ooo) > 0 {
					if len(ooo) == 0 || len(in) > 0 && in[0].T <= ooo[0].T {
						if len(ooo) > 0 && in[0].T == ooo[0].T {
							ooo = ooo[1:]
						}
						got, in = append(got, in[0]), in[1:]
					} else {
						got, ooo = append(got, ooo[0]), ooo[1:]
					}
				}
			}
			s.mu.Unlock()
			if len(got) > 0 {
				res = append(res, model.Series{Labels: s.lset, Samples: got})
			}
		}
	}
	slices.SortFunc(res, byLabels)
	return res
}

// checkMarks holds every series' seek marks to the append rule: one after
// every markEvery-th sample of a chunk but its last, at that sample's
// timestamp. An out-of-order buffer holds nothing the chunks hold: the retry
// check found every resent sample. It returns the marks' timestamps.
func checkMarks(t *testing.T, what string, db *DB, maxPerChunk int) []int64 {
	t.Helper()
	var at []int64
	for _, sh := range db.shards {
		sh.mu.RLock()
		for _, s := range sh.byRef {
			s.mu.Lock()
			check := func(cr *chunkRange) {
				var ts []int64
				it := cr.chunk.Iterator()
				for it.Next() {
					st, _ := it.At()
					ts = append(ts, st)
				}
				want := min(len(ts), maxPerChunk-1) / markEvery
				if len(cr.marks) != want {
					t.Fatalf("%s %s: %d marks on a chunk of %d samples, want %d", what, s.lset, len(cr.marks), len(ts), want)
				}
				if want > 0 && cap(cr.marks) != (maxPerChunk-1)/markEvery {
					t.Fatalf("%s %s: marks sized %d, want %d", what, s.lset, cap(cr.marks), (maxPerChunk-1)/markEvery)
				}
				if cr.min != ts[0] || cr.max != ts[len(ts)-1] {
					t.Fatalf("%s %s: chunk bounds [%d, %d], samples [%d, %d]", what, s.lset, cr.min, cr.max, ts[0], ts[len(ts)-1])
				}
				for j, mk := range cr.marks {
					if want := ts[(j+1)*markEvery-1]; mk.T() != want {
						t.Fatalf("%s %s: mark %d at t=%d, want %d", what, s.lset, j, mk.T(), want)
					}
					at = append(at, mk.T())
				}
			}
			for _, cr := range s.chunks {
				check(cr)
			}
			if s.head != nil {
				check(s.head)
			}
			held := map[int64]bool{}
			for _, smp := range inOrderLocked(t, s) {
				held[smp.T] = true
			}
			for _, smp := range s.ooo {
				if held[smp.T] {
					t.Fatalf("%s %s: out-of-order buffer holds %d, which a chunk holds", what, s.lset, smp.T)
				}
			}
			s.mu.Unlock()
		}
		sh.mu.RUnlock()
	}
	return at
}

// seekHints draws a read for TestHeadSelectSeekMatchesFullDecode: a window
// ending at the newest sample or anywhere, often starting or ending exactly
// on a sample or starting on a mark, under each step filter mode or none.
func seekHints(rng *rand.Rand, times, marks []int64, newest int64) model.SelectHints {
	at := func() int64 { return times[rng.Intn(len(times))] + int64(rng.Intn(3)-1)*int64(rng.Intn(2)) }
	var h model.SelectHints
	switch rng.Intn(3) {
	case 0: // a refresh: the rule and panel windows ending at the newest sample
		h.End = newest
		h.Start = h.End - []int64{120000, 900000, 1, 0}[rng.Intn(4)]
	case 1:
		h.Start, h.End = at(), at()
		if h.End < h.Start {
			h.Start, h.End = h.End, h.Start
		}
		if len(marks) > 0 && rng.Intn(2) == 0 {
			h.Start = marks[rng.Intn(len(marks))]
			h.End = max(h.End, h.Start)
		}
	default:
		h.End = at()
		h.Start = h.End - rng.Int63n(newest-times[0]+1)
	}
	switch rng.Intn(5) {
	case 0: // no filter
	case 1: // bare selector at one step
		h.Lookback = 300000
	case 2: // bare selector on a step grid
		h.Lookback = []int64{1, 20000, 300000}[rng.Intn(3)]
		h.Step = []int64{1000, 15000, 47000, 60000}[rng.Intn(4)]
	case 3: // range function, window shorter than the step
		h.Lookback = 300000
		h.Step = []int64{30000, 60000, 600000}[rng.Intn(3)]
		h.Range = h.Step - 1 - rng.Int63n(h.Step/2)
	default: // range function covering the read: no filter either
		h.Lookback, h.Step, h.Range = 300000, 15000, 120000
	}
	return h
}

// TestHeadSelectSeekMatchesFullDecode: head reads that start decoding at a
// chunk's last seek mark before their window return, bit for bit, what
// decoding every chunk from sample 0 returns — at chunk sizes around the mark
// spacing, with and without out-of-order samples, after retention and after
// the WAL rebuilt the head (and its marks) on reopen.
func TestHeadSelectSeekMatchesFullDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m")
	for _, maxPerChunk := range []int{4, 31, 32, 33, 120, 1000} {
		for _, ooo := range []bool{false, true} {
			what := fmt.Sprintf("chunk %d ooo %v", maxPerChunk, ooo)
			opts := Options{Shards: 2, MaxSamplesPerChunk: maxPerChunk, WALDir: t.TempDir()}
			if ooo {
				opts.OutOfOrderWindow = 1 << 40
			}
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			var times []int64
			newest := int64(0)
			for i := 0; i < 16; i++ {
				ls := labels.FromStrings(labels.MetricName, "m", "i", fmt.Sprint(i))
				n := 1 + rng.Intn([]int{40, 300, 3 * maxPerChunk}[rng.Intn(3)])
				var in []model.Sample
				ts := int64(rng.Intn(40)-20) * 15000 // some series start before the epoch
				for k := 0; k < n; k++ {
					v := float64(rng.Intn(1000))
					switch rng.Intn(25) {
					case 0:
						v = math.NaN()
					case 1:
						v = model.StaleNaN()
					case 2:
						v = rng.NormFloat64()
					}
					in = append(in, model.Sample{T: ts, V: v})
					times = append(times, ts)
					newest = max(newest, ts)
					switch rng.Intn(10) {
					case 0:
						ts += 1 + rng.Int63n(15000)
					case 1:
						ts += 15000 + rng.Int63n(1<<22)
					default:
						ts += 15000
					}
				}
				if ooo && i%3 == 0 {
					rng.Shuffle(len(in), func(a, b int) { in[a], in[b] = in[b], in[a] })
				}
				for _, s := range in {
					if err := db.Append(ls, s.T, s.V); err != nil && !ooo {
						t.Fatal(err)
					}
				}
				if ooo {
					// Resend a third of the samples, as a retrying agent
					// does: the retry check must find each in the chunks
					// (or the buffer) and keep the buffer free of it.
					for _, s := range in {
						if rng.Intn(3) == 0 {
							if err := db.Append(ls, s.T, -1); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
			compare := func(phase string) {
				t.Helper()
				marks := checkMarks(t, what+" "+phase, db, maxPerChunk)
				for trial := 0; trial < 80; trial++ {
					h := seekHints(rng, times, marks, newest)
					want := fullDecodeSelect(t, db, h, m)
					got, err := Sources{Head: db}.Select(h, m)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s %s %+v: %d series, want %d", what, phase, h, len(got), len(want))
					}
					for k := range got {
						g, w := got[k].Samples, want[k].Samples
						ok := labels.Compare(got[k].Labels, want[k].Labels) == 0 && len(g) == len(w)
						for j := 0; ok && j < len(g); j++ {
							ok = sameSample(g[j], w[j])
						}
						if !ok {
							t.Fatalf("%s %s %+v: series %s:\n got  %v\n want %s %v", what, phase, h, got[k].Labels, g, want[k].Labels, w)
						}
					}
				}
			}
			compare("fresh")
			db.Truncate(newest / 3)
			compare("after retention")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = Open(opts); err != nil {
				t.Fatal(err)
			}
			compare("after reopen")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
