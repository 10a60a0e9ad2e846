package chunkenc

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

type sample struct {
	t int64
	v float64
}

func roundTrip(t *testing.T, in []sample) {
	t.Helper()
	c := NewChunk()
	for _, s := range in {
		if err := c.Append(s.t, s.v); err != nil {
			t.Fatalf("Append(%d, %v): %v", s.t, s.v, err)
		}
	}
	if c.NumSamples() != len(in) {
		t.Fatalf("NumSamples = %d, want %d", c.NumSamples(), len(in))
	}
	it := c.Iterator()
	for i, want := range in {
		if !it.Next() {
			t.Fatalf("Next() false at %d: %v", i, it.Err())
		}
		gt, gv := it.At()
		if gt != want.t {
			t.Fatalf("sample %d: t = %d, want %d", i, gt, want.t)
		}
		if gv != want.v && !(math.IsNaN(gv) && math.IsNaN(want.v)) {
			t.Fatalf("sample %d: v = %v, want %v", i, gv, want.v)
		}
	}
	if it.Next() {
		t.Fatal("iterator did not stop")
	}
	if it.Err() != nil {
		t.Fatalf("iterator error: %v", it.Err())
	}
}

func TestEmptyChunk(t *testing.T) {
	c := NewChunk()
	if c.NumSamples() != 0 {
		t.Error("empty chunk has samples")
	}
	if c.Iterator().Next() {
		t.Error("empty iterator advanced")
	}
}

func TestSingleSample(t *testing.T) {
	roundTrip(t, []sample{{1700000000000, 42.5}})
}

func TestTwoSamples(t *testing.T) {
	roundTrip(t, []sample{{1000, 1}, {2000, 2}})
}

func TestConstantValues(t *testing.T) {
	var in []sample
	for i := int64(0); i < 100; i++ {
		in = append(in, sample{1000 + i*15000, 3.14})
	}
	roundTrip(t, in)
	// Constant values with regular spacing should compress extremely well:
	// roughly 2 bits per sample after the header.
	c := NewChunk()
	for _, s := range in {
		c.Append(s.t, s.v)
	}
	if n := len(c.Bytes()); n > 64 {
		t.Errorf("constant chunk too large: %d bytes for 100 samples", n)
	}
}

func TestCounterLikeSeries(t *testing.T) {
	var in []sample
	v := 0.0
	for i := int64(0); i < 500; i++ {
		v += 123.456
		in = append(in, sample{i * 15000, v})
	}
	roundTrip(t, in)
}

func TestIrregularTimestamps(t *testing.T) {
	in := []sample{
		{-5000, 1}, {-200, 2}, {0, 3}, {1, 4}, {1000000, 5}, {1000001, math.Inf(1)},
	}
	roundTrip(t, in)
}

func TestSpecialValues(t *testing.T) {
	roundTrip(t, []sample{
		{1, math.NaN()}, {2, 0.0}, {3, math.Copysign(0, -1)},
		{4, math.Inf(-1)}, {5, math.MaxFloat64}, {6, math.SmallestNonzeroFloat64},
	})
}

func TestOutOfOrderRejected(t *testing.T) {
	c := NewChunk()
	if err := c.Append(1000, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(1000, 2); err == nil {
		t.Error("equal timestamp accepted")
	}
	if err := c.Append(999, 2); err == nil {
		t.Error("earlier timestamp accepted")
	}
	// Third sample path (dod) also rejects.
	c.Append(2000, 2)
	if err := c.Append(1500, 3); err == nil {
		t.Error("out-of-order dod accepted")
	}
}

func TestSerializeDeserialize(t *testing.T) {
	c := NewChunk()
	for i := int64(0); i < 50; i++ {
		c.Append(i*1000, float64(i)*1.5)
	}
	data := c.Bytes()
	c2, err := FromBytes(data)
	if err != nil {
		t.Fatalf("FromBytes: %v", err)
	}
	if c2.NumSamples() != 50 {
		t.Fatalf("NumSamples after decode = %d", c2.NumSamples())
	}
	it := c2.Iterator()
	for i := int64(0); i < 50; i++ {
		if !it.Next() {
			t.Fatalf("Next false at %d: %v", i, it.Err())
		}
		gt, gv := it.At()
		if gt != i*1000 || gv != float64(i)*1.5 {
			t.Fatalf("decoded sample %d = (%d, %v)", i, gt, gv)
		}
	}
}

func TestFromBytesTruncated(t *testing.T) {
	if _, err := FromBytes([]byte{0}); err == nil {
		t.Error("expected error for truncated header")
	}
}

func TestCompressionRatio(t *testing.T) {
	// RAPL-like counter scraped every 15s for 4h: 960 samples.
	c := NewChunk()
	rng := rand.New(rand.NewSource(1))
	v := 1e9
	for i := int64(0); i < 960; i++ {
		v += 50_000_000 * (0.9 + 0.2*rng.Float64()) // ~50 J/s at µJ resolution
		c.Append(i*15000, v)
	}
	raw := 960 * 16 // 8 bytes t + 8 bytes v
	got := len(c.Bytes())
	if got >= raw {
		t.Errorf("no compression achieved: %d >= %d", got, raw)
	}
	t.Logf("compression: %d -> %d bytes (%.1fx)", raw, got, float64(raw)/float64(got))
}

// Property: any strictly-increasing timestamp sequence with arbitrary values
// round-trips exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(deltas []uint16, vals []float64, start int64) bool {
		n := len(deltas)
		if len(vals) < n {
			n = len(vals)
		}
		if n > 200 {
			n = 200
		}
		start %= 1 << 40
		in := make([]sample, 0, n)
		tcur := start
		for i := 0; i < n; i++ {
			tcur += int64(deltas[i]) + 1 // strictly increasing
			in = append(in, sample{tcur, vals[i]})
		}
		c := NewChunk()
		for _, s := range in {
			if err := c.Append(s.t, s.v); err != nil {
				return false
			}
		}
		it := c.Iterator()
		for _, want := range in {
			if !it.Next() {
				return false
			}
			gt, gv := it.At()
			if gt != want.t {
				return false
			}
			if gv != want.v && !(math.IsNaN(gv) && math.IsNaN(want.v)) {
				return false
			}
		}
		return !it.Next() && it.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: serialization round-trips through FromBytes.
func TestBytesRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewChunk()
		var ts []int64
		tcur := int64(0)
		for i := 0; i < int(n); i++ {
			tcur += rng.Int63n(60000) + 1
			ts = append(ts, tcur)
			c.Append(tcur, rng.NormFloat64()*1e6)
		}
		c2, err := FromBytes(c.Bytes())
		if err != nil {
			return false
		}
		it1, it2 := c.Iterator(), c2.Iterator()
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		for range ts {
			if !it1.Next() || !it2.Next() {
				return false
			}
			t1, v1 := it1.At()
			t2, v2 := it2.At()
			if t1 != t2 || v1 != v2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	b.ReportAllocs()
	c := NewChunk()
	for i := 0; i < b.N; i++ {
		if c.NumSamples() >= 120 {
			c = NewChunk()
		}
		c.Append(int64(i)*15000, float64(i)*1.5)
	}
}

// BenchmarkAppendRAPL appends the end-to-end benchmark's probe shape: a
// joule counter growing by 250 W with 7 % noise at a one-minute cadence,
// in 120-sample chunks. Unlike BenchmarkAppend's linear values, almost
// every sample writes a full XOR window.
func BenchmarkAppendRAPL(b *testing.B) {
	const per = 120
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 64*per)
	joules := 0.0
	for i := range vals {
		joules += 250 * (1 + 0.07*rng.NormFloat64()) * 60
		vals[i] = joules
	}
	b.ReportAllocs()
	b.ResetTimer()
	c := NewChunk()
	for i := 0; i < b.N; i++ {
		if c.NumSamples() >= per {
			c = NewChunk()
		}
		c.Append(int64(i)*60000, vals[i%len(vals)])
	}
}

func BenchmarkIterate(b *testing.B) {
	c := NewChunk()
	for i := int64(0); i < 120; i++ {
		c.Append(i*15000, float64(i)*1.5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := c.Iterator()
		for it.Next() {
		}
	}
}
