package chunkenc

import (
	"math"
	"math/rand"
	"testing"
)

// seedVectors are the sample shapes the unit tests above exercise (constant,
// counter, irregular and negative timestamps, special floats), reused as the
// fuzz corpus so mutation starts from every field shape the format has.
func seedVectors() [][]sample {
	var constant, counter []sample
	v := 0.0
	for i := int64(0); i < 100; i++ {
		constant = append(constant, sample{1000 + i*15000, 3.14})
		v += 123.456
		counter = append(counter, sample{i * 15000, v})
	}
	return [][]sample{
		nil,
		{{1700000000000, 42.5}},
		{{1000, 1}, {2000, 2}},
		constant,
		counter,
		{{-5000, 1}, {-200, 2}, {0, 3}, {1, 4}, {1000000, 5}, {1000001, math.Inf(1)}},
		{{1, math.NaN()}, {2, 0.0}, {3, math.Copysign(0, -1)}, {4, math.Inf(-1)}, {5, math.MaxFloat64}, {6, math.SmallestNonzeroFloat64}},
		{{0, 1}, {1, 2}, {1 << 40, 3}, {1<<40 + 1, 4}}, // 64-bit dod escapes, both signs
	}
}

// chunkOpeners are the two constructors of a read-only chunk, the by-value
// one behind a pointer so both iterate alike.
var chunkOpeners = map[string]func([]byte) (*Chunk, error){
	"FromBytes": FromBytes,
	"FromBytesNoCopy": func(data []byte) (*Chunk, error) {
		c, err := FromBytesNoCopy(data)
		return &c, err
	},
}

func buildChunk(tb testing.TB, in []sample) *Chunk {
	tb.Helper()
	c := NewChunk()
	for _, s := range in {
		if err := c.Append(s.t, s.v); err != nil {
			tb.Fatalf("Append(%d, %v): %v", s.t, s.v, err)
		}
	}
	return c
}

// FuzzChunkIterator feeds arbitrary bytes through both chunk constructors
// and iterates to the end: the iterator must stop within the declared sample
// count, with an error whenever it stops short, and never panic or spin.
func FuzzChunkIterator(f *testing.F) {
	for _, in := range seedVectors() {
		data := buildChunk(f, in).Bytes()
		f.Add(data)
		f.Add(data[:len(data)/2])
		// Claim more samples than the stream holds.
		f.Add(append([]byte{0xff, 0xff}, data[2:]...))
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x03, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}) // endless varint
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, open := range chunkOpeners {
			c, err := open(data)
			if err != nil {
				if len(data) >= 2 {
					t.Fatalf("%s rejected a %d-byte input: %v", name, len(data), err)
				}
				continue
			}
			it := c.Iterator()
			n := 0
			for it.Next() {
				if n++; n > c.NumSamples() {
					t.Fatalf("%s: iterated %d samples of a chunk declaring %d", name, n, c.NumSamples())
				}
			}
			if it.Err() == nil && n != c.NumSamples() {
				t.Fatalf("%s: stopped at %d of %d samples without an error", name, n, c.NumSamples())
			}
			if it.Next() {
				t.Fatalf("%s: Next advanced after returning false", name)
			}
		}
	})
}

// hostileSamples draws a strictly increasing series mixing everything the
// bit-level format special-cases: steady cadence (dod 0), jitter in each
// dod bucket, gaps wide enough for the 64-bit escape, counter resets,
// repeats, NaN payloads including the stale marker, and the infinities.
func hostileSamples(rng *rand.Rand, n int) []sample {
	staleNaN := math.Float64frombits(0x7ff0000000000002)
	out := make([]sample, 0, n)
	t, delta, v := rng.Int63n(1<<41)-(1<<40), int64(15000), 1e9
	for i := 0; i < n; i++ {
		switch rng.Intn(8) {
		case 0:
			delta = 1 + rng.Int63n(1<<13)
		case 1:
			delta = 1 + rng.Int63n(1<<19)
		case 2:
			delta = 1 + rng.Int63n(1<<40)
		}
		t += delta
		switch rng.Intn(10) {
		case 0:
			v = 0 // counter reset
		case 1:
			v = staleNaN
		case 2:
			v = math.Float64frombits(rng.Uint64()) // any bit pattern, NaNs included
		case 3:
			v = math.Inf(1 - 2*rng.Intn(2))
		case 4, 5:
			// unchanged
		default:
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			v += float64(rng.Intn(1 << 20))
		}
		out = append(out, sample{t, v})
	}
	return out
}

// Property: hostile sequences round-trip bit-exactly (NaN payloads
// included) through Append, Bytes and both constructors.
func TestHostileSequencesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 300; round++ {
		in := hostileSamples(rng, 1+rng.Intn(240))
		data := buildChunk(t, in).Bytes()
		for name, open := range chunkOpeners {
			c, err := open(data)
			if err != nil {
				t.Fatal(err)
			}
			it := c.Iterator()
			for i, want := range in {
				if !it.Next() {
					t.Fatalf("round %d %s: Next false at %d of %d: %v", round, name, i, len(in), it.Err())
				}
				if gt, gv := it.At(); gt != want.t || math.Float64bits(gv) != math.Float64bits(want.v) {
					t.Fatalf("round %d %s: sample %d = (%d, %x), want (%d, %x)", round, name, i, gt, math.Float64bits(gv), want.t, math.Float64bits(want.v))
				}
			}
			if it.Next() || it.Err() != nil {
				t.Fatalf("round %d %s: iterator ran past the end (err %v)", round, name, it.Err())
			}
		}
	}
}

// Property: BitReader agrees with reading the stream one bit at a time, for
// any mix of field widths, at any alignment, up to and past the end.
func TestBitReaderMatchesBitAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 2000; round++ {
		stream := make([]byte, rng.Intn(40))
		rng.Read(stream)
		r := NewBitReader(stream)
		pos := 0 // absolute bit position of the reference reader
		for {
			width := rng.Intn(65)
			if rng.Intn(3) == 0 {
				width = 1
			}
			var want uint64
			for i := 0; i < width && pos+i < len(stream)*8; i++ {
				p := pos + i
				want = want<<1 | uint64(stream[p/8]>>(7-p%8)&1)
			}
			var got uint64
			var err error
			if width == 1 && rng.Intn(2) == 0 {
				var bit bool
				if bit, err = r.ReadBit(); bit {
					got = 1
				}
			} else {
				got, err = r.ReadBits(width)
			}
			if pos+width > len(stream)*8 {
				if err == nil {
					t.Fatalf("round %d: read %d bits at %d of a %d-bit stream without an error", round, width, pos, len(stream)*8)
				}
				break
			}
			if err != nil || got != want {
				t.Fatalf("round %d: %d bits at %d = %x, %v; want %x", round, width, pos, got, err, want)
			}
			pos += width
		}
	}
}
