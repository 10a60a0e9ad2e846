package model

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkFloat fails t unless AppendFloat renders v, and -v, after one byte
// already in dst, as strconv does. want is strconv's output buffer, reused.
func checkFloat(t testing.TB, want []byte, v float64) []byte {
	var buf [32]byte
	for _, x := range [2]float64{v, -v} {
		want = strconv.AppendFloat(want[:0], x, 'g', -1, 64)
		if got := AppendFloat(buf[:1], x); !bytes.Equal(got[1:], want) {
			t.Fatalf("AppendFloat(%#016x) = %q, strconv %q", math.Float64bits(x), got[1:], want)
		}
	}
	return want
}

func TestAppendFloatRandomBits(t *testing.T) {
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	rng := rand.New(rand.NewSource(49))
	var want []byte
	for i := 0; i < n; i += 2 {
		want = checkFloat(t, want, math.Float64frombits(rng.Uint64()))
	}
}

func TestAppendFloatEdges(t *testing.T) {
	var want []byte
	check := func(v float64) { want = checkFloat(t, want, v) }
	neighbours := func(v float64) {
		check(v)
		check(math.Nextafter(v, 0))
		check(math.Nextafter(v, math.Inf(1)))
	}

	for _, v := range []float64{0, math.Inf(1), math.NaN(), StaleNaN(), math.Float64frombits(0x7fffffffffffffff)} {
		check(v)
	}
	// Powers of two, from the smallest subnormal to the largest normal.
	for e := -1074; e <= 1023; e++ {
		neighbours(math.Ldexp(1, e))
	}
	// Powers of ten across the whole range, parsed so each is the float
	// nearest to it.
	for e := -323; e <= 308; e++ {
		v, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		neighbours(v)
	}
	// The ends of the subnormal and normal ranges.
	for _, v := range []float64{
		math.SmallestNonzeroFloat64, math.Float64frombits(1<<52 - 1),
		math.Float64frombits(1 << 52), math.MaxFloat64,
	} {
		neighbours(v)
	}
	// Around the %f/%e switch points, 1e-4 and 1e6, a few ulps each way
	// and the decimals just short of them.
	for _, p := range []float64{1e-4, 1e6} {
		v := p
		for i := 0; i < 64; i++ {
			v = math.Nextafter(v, 0)
		}
		for i := 0; i < 128; i++ {
			check(v)
			v = math.Nextafter(v, math.Inf(1))
		}
	}
	for _, v := range []float64{9.9999e-5, 9.99999999999999e-5, 999999.9, 999999.999999999, 999999, 1000001} {
		neighbours(v)
	}
	// Integers up to 2^53: every one below 2^16, then samples of each bit
	// length, with the round ones (trailing decimal zeros) among them.
	for i := 0; i < 1<<16; i++ {
		check(float64(i))
	}
	rng := rand.New(rand.NewSource(53))
	for bitsLen := 17; bitsLen <= 53; bitsLen++ {
		for i := 0; i < 2000; i++ {
			n := uint64(1)<<(bitsLen-1) | rng.Uint64()&(1<<(bitsLen-1)-1)
			check(float64(n))
			check(float64(n - n%uint64(math.Pow10(rng.Intn(bitsLen*3/10+1)))))
		}
	}
	check(1 << 53)
}

// FuzzAppendFloat: any float64 bit pattern renders as strconv renders it.
func FuzzAppendFloat(f *testing.F) {
	for _, u := range []uint64{0, 1, 0x7ff0000000000000, 0x7ff0000000000002, 0x000fffffffffffff,
		0x0010000000000000, 0x7fefffffffffffff, 0x3f1a36e2eb1c432d, 0x412e848000000000, 0x4340000000000000} {
		f.Add(u)
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		checkFloat(t, nil, math.Float64frombits(u))
	})
}

// dashboardValues are the values a CEEMS dashboard reads: node and job
// power in watts around 1e2, energy and CPU-time counters from 1e5 to 1e9
// (whole joules, or seconds with a fraction), and rates of those counters.
func dashboardValues() []float64 {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 0, 3000)
	for i := 0; i < 1000; i++ {
		vals = append(vals, 50+rng.Float64()*400)
	}
	for i := 0; i < 1000; i++ {
		c := math.Pow(10, 5+4*rng.Float64())
		if i%2 == 0 {
			c = math.Floor(c)
		}
		vals = append(vals, c)
	}
	for i := 0; i < 1000; i++ {
		vals = append(vals, rng.ExpFloat64()*math.Pow(10, float64(rng.Intn(4)-2)))
	}
	return vals
}

var floatSink int

// BenchmarkAppendFloat: one op renders every value of dashboardValues.
func BenchmarkAppendFloat(b *testing.B) {
	vals := dashboardValues()
	buf := make([]byte, 0, 32)
	b.Run("renderer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, v := range vals {
				floatSink += len(AppendFloat(buf, v))
			}
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, v := range vals {
				floatSink += len(strconv.AppendFloat(buf, v, 'g', -1, 64))
			}
		}
	})
}
