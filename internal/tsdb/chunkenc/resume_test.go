package chunkenc

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// decodeAll iterates it to the end.
func decodeAll(it *Iterator) ([]sample, error) {
	var out []sample
	for it.Next() {
		t, v := it.At()
		out = append(out, sample{t, v})
	}
	return out, it.Err()
}

// checkResume appends in to a chunk, taking a mark after every sample, and
// holds every mark to its rule: an iterator resumed from it, over the open
// chunk and over both constructors of its bytes, yields exactly the samples
// after the marked one that a full decode yields, bit for bit, and ends with
// the same error.
func checkResume(t *testing.T, in []sample) {
	t.Helper()
	c, marks := markedChunk(t, in)
	data := c.Bytes()
	chunks := map[string]*Chunk{"open": c}
	for name, open := range chunkOpeners {
		var err error
		if chunks[name], err = open(data); err != nil {
			t.Fatal(err)
		}
	}
	for name, c := range chunks {
		full, ferr := decodeAll(c.Iterator())
		if len(full) != len(in) || ferr != nil {
			t.Fatalf("%s: full decode gave %d of %d samples, err %v", name, len(full), len(in), ferr)
		}
		for i, m := range marks {
			if m.T() != in[i].t {
				t.Fatalf("%s: mark %d at t=%d, its sample is at %d", name, i, m.T(), in[i].t)
			}
			it := c.Iterator()
			it.Resume(m)
			got, err := decodeAll(it)
			want := full[i+1:]
			if err != ferr || len(got) != len(want) {
				t.Fatalf("%s: resumed after sample %d of %d: %d samples, err %v; want %d, err %v", name, i, len(in), len(got), err, len(want), ferr)
			}
			for k := range got {
				if got[k].t != want[k].t || math.Float64bits(got[k].v) != math.Float64bits(want[k].v) {
					t.Fatalf("%s: resumed after sample %d: sample %d = (%d, %x), want (%d, %x)", name, i, k,
						got[k].t, math.Float64bits(got[k].v), want[k].t, math.Float64bits(want[k].v))
				}
			}
		}
	}
}

// Property: an iterator resumed from the mark taken after any sample
// continues exactly where a full decode does, for the seed shapes (regular
// and irregular cadence, 64-bit dod escapes, repeats, NaN, ±Inf, -0, full
// XOR windows) and for hostile random sequences.
func TestResumeFromEveryMark(t *testing.T) {
	for _, in := range seedVectors() {
		checkResume(t, in)
	}
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 200; round++ {
		checkResume(t, hostileSamples(rng, 1+rng.Intn(300)))
	}
}

// TestResumeFromForeignMark: a mark past the end of the chunk an iterator
// reads (taken of a longer chunk) stops the iterator with an error.
func TestResumeFromForeignMark(t *testing.T) {
	c := NewChunk()
	for i := int64(0); i < 10; i++ {
		c.Append(i*1000, float64(i))
	}
	m := c.Mark()
	short, err := FromBytes(c.Bytes()[:4])
	if err != nil {
		t.Fatal(err)
	}
	it := short.Iterator()
	it.Resume(m)
	if it.Next() || it.Err() == nil {
		t.Fatalf("resumed past the end: Next advanced or no error (%v)", it.Err())
	}
}

// resumeInput encodes samples the way FuzzChunkResume reads them: the first
// timestamp as 8 big-endian bytes, then per sample the step from the
// previous one (the first sample's is ignored) and the value's bits, 8
// big-endian bytes each.
func resumeInput(in []sample) []byte {
	var out []byte
	if len(in) == 0 {
		return out
	}
	out = binary.BigEndian.AppendUint64(out, uint64(in[0].t))
	prev := in[0].t
	for _, s := range in {
		out = binary.BigEndian.AppendUint64(out, uint64(s.t-prev))
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(s.v))
		prev = s.t
	}
	return out
}

// resumeSamples decodes resumeInput's layout, stopping at a partial record,
// a zero step, a timestamp past math.MaxInt64 or the 2000th sample.
func resumeSamples(data []byte) []sample {
	if len(data) < 8 {
		return nil
	}
	t := int64(binary.BigEndian.Uint64(data))
	data = data[8:]
	var out []sample
	for len(data) >= 16 && len(out) < 2000 {
		step := binary.BigEndian.Uint64(data)
		v := math.Float64frombits(binary.BigEndian.Uint64(data[8:]))
		data = data[16:]
		if len(out) > 0 {
			if step == 0 || step > math.MaxInt64 || t > math.MaxInt64-int64(step) {
				break
			}
			t += int64(step)
		}
		out = append(out, sample{t, v})
	}
	return out
}

// FuzzChunkResume holds TestResumeFromEveryMark's rule on arbitrary strictly
// increasing sequences.
func FuzzChunkResume(f *testing.F) {
	for _, in := range seedVectors() {
		f.Add(resumeInput(in))
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 4; i++ {
		f.Add(resumeInput(hostileSamples(rng, 1+rng.Intn(150))))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkResume(t, resumeSamples(data))
	})
}
