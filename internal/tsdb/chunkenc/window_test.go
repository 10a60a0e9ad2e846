package chunkenc

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
)

// appendWindowOracle is the per-sample read loop AppendWindow fuses: Next
// and At, the window [mint, maxt] and f.Append, one sample at a time.
func appendWindowOracle(it *Iterator, dst []model.Sample, mint, maxt int64, f *model.StepFilter) ([]model.Sample, error) {
	for it.Next() {
		t, v := it.At()
		switch {
		case t < mint:
		case t > maxt:
			return dst, it.Err()
		case f == nil:
			dst = append(dst, model.Sample{T: t, V: v})
		default:
			dst = f.Append(dst, t, v)
		}
	}
	return dst, it.Err()
}

// sameErr reports whether two decode errors are the same failure.
func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// windowRead is one read of a chunk: a window, the hints its step filter
// comes from, and whether and where to resume first.
type windowRead struct {
	mint, maxt             int64
	step, rangeW, lookback int64
	resume                 bool
	mark                   Mark
}

// filter returns the read's step filter, a fresh one per call (a filter
// holds one stream's position).
func (r windowRead) filter() *model.StepFilter {
	return model.SelectHints{Start: r.mint, End: r.maxt, Step: r.step, Range: r.rangeW, Lookback: r.lookback}.StepFilter()
}

// checkWindow holds AppendWindow to the oracle loop on c for read r: the
// same samples bit for bit after the same dst prefix, the same error, and an
// iterator left where the oracle's is, so what Next decodes after both
// agrees too.
func checkWindow(t *testing.T, what string, c *Chunk, r windowRead) {
	t.Helper()
	want, got := c.Iterator(), c.Iterator()
	if r.resume {
		want.Resume(r.mark)
		got.Resume(r.mark)
	}
	prefix := []model.Sample{{T: math.MinInt64, V: -1}}
	ws, werr := appendWindowOracle(want, append([]model.Sample(nil), prefix...), r.mint, r.maxt, r.filter())
	gs, gerr := got.AppendWindow(append([]model.Sample(nil), prefix...), r.mint, r.maxt, r.filter())
	if !sameErr(werr, gerr) || len(ws) != len(gs) {
		t.Fatalf("%s %+v: %d samples, err %v; oracle %d, err %v", what, r, len(gs), gerr, len(ws), werr)
	}
	for i := range ws {
		if ws[i].T != gs[i].T || math.Float64bits(ws[i].V) != math.Float64bits(gs[i].V) {
			t.Fatalf("%s %+v: sample %d = (%d, %x), oracle (%d, %x)", what, r, i,
				gs[i].T, math.Float64bits(gs[i].V), ws[i].T, math.Float64bits(ws[i].V))
		}
	}
	wt, wv := want.At()
	gt, gv := got.At()
	if wt != gt || math.Float64bits(wv) != math.Float64bits(gv) {
		t.Fatalf("%s %+v: At() after the read = (%d, %x), oracle (%d, %x)", what, r, gt, math.Float64bits(gv), wt, math.Float64bits(wv))
	}
	wrest, wrerr := decodeAll(want)
	grest, grerr := decodeAll(got)
	if !sameErr(wrerr, grerr) || len(wrest) != len(grest) {
		t.Fatalf("%s %+v: Next after the read gave %d samples, err %v; oracle %d, err %v", what, r, len(grest), grerr, len(wrest), wrerr)
	}
	for i := range wrest {
		if wrest[i].t != grest[i].t || math.Float64bits(wrest[i].v) != math.Float64bits(grest[i].v) {
			t.Fatalf("%s %+v: Next after the read: sample %d = (%d, %x), oracle (%d, %x)", what, r, i,
				grest[i].t, math.Float64bits(grest[i].v), wrest[i].t, math.Float64bits(wrest[i].v))
		}
	}
}

// markedChunk appends in to a chunk, taking a mark after every sample.
func markedChunk(t *testing.T, in []sample) (*Chunk, []Mark) {
	t.Helper()
	c := NewChunk()
	marks := make([]Mark, 0, len(in))
	for _, s := range in {
		if err := c.Append(s.t, s.v); err != nil {
			t.Fatalf("Append(%d, %v): %v", s.t, s.v, err)
		}
		marks = append(marks, c.Mark())
	}
	return c, marks
}

// checkWindowInput reads data two ways — as a chunk's bytes, and as the
// samples resumeSamples decodes from it, appended to a chunk with a mark
// after each — through the window and hints given, from the start and
// resumed from mark number markAt of the second chunk (a foreign mark for
// the first). Each read is held to the oracle by checkWindow.
func checkWindowInput(t *testing.T, data []byte, r windowRead, markAt uint16) {
	t.Helper()
	built, marks := markedChunk(t, resumeSamples(data))
	chunks := map[string]*Chunk{"built": built}
	for name, open := range chunkOpeners {
		if c, err := open(data); err == nil {
			chunks[name] = c
		}
	}
	for name, c := range chunks {
		r.resume = false
		checkWindow(t, name, c, r)
		if len(marks) > 0 {
			r.resume, r.mark = true, marks[int(markAt)%len(marks)]
			checkWindow(t, name+" resumed", c, r)
		}
	}
}

// seedReads are the windows and step filters the fuzz seeds read a chunk of
// samples in through: everything, a window cut inside the samples (both ends
// on a sample or between two), and each step filter mode over it.
func seedReads(in []sample) []windowRead {
	reads := []windowRead{{mint: math.MinInt64, maxt: math.MaxInt64}}
	if len(in) == 0 {
		return reads
	}
	lo, hi := in[len(in)/4].t, in[len(in)*3/4].t
	span := max(in[len(in)-1].t-in[0].t, 1)
	return append(reads,
		windowRead{mint: lo, maxt: hi},
		windowRead{mint: lo + 1, maxt: hi - 1},
		windowRead{mint: in[0].t, maxt: in[0].t},
		windowRead{mint: lo, maxt: hi, lookback: 300000},                                     // bare selector, one step
		windowRead{mint: lo, maxt: hi, lookback: span/7 + 1, step: span/5 + 1},               // bare selector on a grid
		windowRead{mint: lo, maxt: hi, lookback: 300000, step: span/3 + 2, rangeW: span / 5}, // range function
	)
}

// FuzzChunkWindow holds AppendWindow to the Next/At loop it replaced on
// arbitrary chunk bytes and on arbitrary sample sequences, for any window,
// any step filter hints and a resume from any mark: the same samples bit for
// bit, the same error, the iterator left in the same place.
func FuzzChunkWindow(f *testing.F) {
	add := func(data []byte, r windowRead, markAt uint16) {
		f.Add(data, r.mint, r.maxt, r.step, r.rangeW, r.lookback, markAt)
	}
	for _, in := range seedVectors() {
		data := buildChunk(f, in).Bytes()
		for k, r := range seedReads(in) {
			add(data, r, uint16(k))
			add(data[:len(data)/2], r, uint16(k))
			add(append([]byte{0xff, 0xff}, data[2:]...), r, uint16(k))
			add(resumeInput(in), r, uint16(len(in)/2+k))
		}
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 4; i++ {
		in := hostileSamples(rng, 1+rng.Intn(150))
		for k, r := range seedReads(in) {
			add(resumeInput(in), r, uint16(rng.Intn(len(in))+k))
		}
	}
	f.Add([]byte{0x00, 0x03, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, int64(math.MinInt64), int64(math.MaxInt64), int64(0), int64(0), int64(0), uint16(0)) // endless varint
	f.Fuzz(func(t *testing.T, data []byte, mint, maxt, step, rangeW, lookback int64, markAt uint16) {
		checkWindowInput(t, data, windowRead{mint: mint, maxt: maxt, step: step, rangeW: rangeW, lookback: lookback}, markAt)
	})
}

// Property: over hostile sequences and their truncated and corrupted bytes,
// AppendWindow agrees with the oracle loop for random windows, step filters
// and resume marks.
func TestAppendWindowMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for round := 0; round < 300; round++ {
		in := hostileSamples(rng, 1+rng.Intn(240))
		data := buildChunk(t, in).Bytes()
		switch rng.Intn(4) {
		case 0:
			data = data[:2+rng.Intn(len(data)-1)]
		case 1:
			data[2+rng.Intn(len(data)-2)] ^= byte(1 << rng.Intn(8))
		}
		at := func() int64 { return in[rng.Intn(len(in))].t + int64(rng.Intn(3)-1) }
		r := windowRead{mint: at(), maxt: at()}
		if r.maxt < r.mint {
			r.mint, r.maxt = r.maxt, r.mint
		}
		if rng.Intn(4) == 0 {
			r.mint, r.maxt = math.MinInt64, math.MaxInt64
		}
		span := max(in[len(in)-1].t-in[0].t, 1)
		switch rng.Intn(4) {
		case 1:
			r.lookback = 1 + rng.Int63n(span)
		case 2:
			r.lookback, r.step = 1+rng.Int63n(span), 1+rng.Int63n(span)
		case 3:
			r.lookback, r.step = 300000, 2+rng.Int63n(span)
			r.rangeW = 1 + rng.Int63n(r.step-1)
		}
		built, marks := markedChunk(t, in)
		chunks := map[string]*Chunk{"built": built}
		for name, open := range chunkOpeners {
			c, err := open(data)
			if err != nil {
				t.Fatal(err)
			}
			chunks[name] = c
		}
		for name, c := range chunks {
			checkWindow(t, name, c, r)
			r.resume, r.mark = true, marks[rng.Intn(len(marks))]
			checkWindow(t, name+" resumed", c, r)
			r.resume = false
		}
	}
}

// decodeBenchChunks are the two shapes BenchmarkChunkDecode reads, 64
// chunks of 120 samples each: RAPL, the end-to-end benchmark's chunk probe
// shape (a joule counter growing by 250 W with 7 % noise at a one-minute
// cadence, so nearly every value opens a new XOR window), and a power gauge
// at 15 s that holds its value for three scrapes in four.
func decodeBenchChunks(shape string) []*Chunk {
	const chunks, per = 64, 120
	rng := rand.New(rand.NewSource(1))
	out := make([]*Chunk, chunks)
	v := 0.0
	for c := range out {
		ch := NewChunk()
		for i := 0; i < per; i++ {
			n := int64(c*per + i)
			switch shape {
			case "rapl_1m":
				v += 250 * (1 + 0.07*rng.NormFloat64()) * 60
				_ = ch.Append(n*60000, v)
			default:
				if rng.Intn(4) == 0 {
					v = math.Round(250 + 40*rng.NormFloat64())
				}
				_ = ch.Append(n*15000, v)
			}
		}
		out[c] = ch
	}
	return out
}

// BenchmarkChunkDecode decodes whole chunks onto a reused slice, through
// AppendWindow (window) and through the Next/At loop it replaced (oracle).
func BenchmarkChunkDecode(b *testing.B) {
	for _, shape := range []string{"rapl_1m", "gauge_15s"} {
		chunks := decodeBenchChunks(shape)
		samples := 0
		for _, c := range chunks {
			samples += c.NumSamples()
		}
		for _, oracle := range []bool{false, true} {
			name := shape + "/window"
			if oracle {
				name = shape + "/oracle"
			}
			b.Run(name, func(b *testing.B) {
				dst := make([]model.Sample, 0, 120)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, c := range chunks {
						var err error
						if it := c.Iterator(); oracle {
							dst, err = appendWindowOracle(it, dst[:0], math.MinInt64, math.MaxInt64, nil)
						} else {
							dst, err = it.AppendWindow(dst[:0], math.MinInt64, math.MaxInt64, nil)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
			})
		}
	}
}
