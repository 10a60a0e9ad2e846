package model

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// AppendFloat appends v as strconv.AppendFloat(dst, v, 'g', -1, 64) does,
// byte for byte: the shortest decimal that reads back as v, in %e layout
// when its exponent is below -4 or at least 6 and in %f layout otherwise,
// with NaN, +Inf and -Inf spelled out. It is the one renderer of sample
// values: the query API's pairs, exposition text and relstore keys all write
// values through it.
//
// The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
// doubles", 2020): three 128-bit multiplications by one table entry bound
// the interval of decimals that round to v, and the shortest is chosen among
// the multiples of 10^(k+1) and 10^k next to v, so no loop trims a digit at
// a time. strconv is the test oracle; every value class is handled here, so
// nothing falls back to it.
func AppendFloat(dst []byte, v float64) []byte {
	u := math.Float64bits(v)
	mant := u & (1<<52 - 1)
	exp := int(u>>52) & 0x7ff
	neg := u>>63 != 0
	if exp == 0x7ff {
		switch {
		case mant != 0:
			return append(dst, "NaN"...)
		case neg:
			return append(dst, "-Inf"...)
		}
		return append(dst, "+Inf"...)
	}
	if neg {
		dst = append(dst, '-')
	}
	if exp == 0 && mant == 0 {
		return append(dst, '0')
	}
	d, e := shortest(mant, exp)

	// The n digits of d (at most 17), right-aligned in buf[:24] and
	// followed by slack, so that the layout below moves them in fixed-size
	// words.
	var buf [48]byte
	hi := d / 1e8
	binary.LittleEndian.PutUint64(buf[16:], digits8(uint32(d-hi*1e8)))
	top := hi / 1e8
	binary.LittleEndian.PutUint64(buf[8:], digits8(uint32(hi-top*1e8)))
	buf[7] = byte('0' + top)
	n := bits.Len64(d) * 1233 >> 12
	if d >= uint64pow10[n] {
		n++
	}
	digs := buf[24-n:]
	// dp is strconv's decimal point position: v = 0.digits × 10^dp. The
	// trailing zeros go, as strconv never prints them.
	dp := n + e
	nd := n
	for digs[nd-1] == '0' {
		nd--
	}

	// The layout is stored in fixed-size words into a stack buffer that is
	// then appended, so dst grows no further than append would grow it.
	var tmp [32]byte
	return append(dst, tmp[:layout(tmp[:], digs, nd, dp)]...)
}

// layout writes the nd digits of digs (followed by at least 16 bytes of
// slack), whose decimal point is at dp, into out in strconv's %e or %f
// layout, and returns the length written. After the sign the longest
// rendering, 17 digits as d.d…de-308, is 23 bytes, and every fixed-size
// store lands in out[:23].
func layout(out, digs []byte, nd, dp int) int {
	if x := dp - 1; x < -4 || x >= 6 {
		out[0] = digs[0]
		m := 1
		if nd > 1 {
			out[1] = '.'
			copy16(out[2:], digs[1:])
			m = nd + 1
		}
		out[m], out[m+1] = 'e', '+'
		if x < 0 {
			out[m+1], x = '-', -x
		}
		if x >= 100 {
			out[m+2] = byte('0' + x/100)
			x %= 100
			m++
		}
		out[m+2], out[m+3] = byte('0'+x/10), byte('0'+x%10)
		return m + 4
	}
	switch {
	case dp <= 0:
		copy(out, "0.000")
		copy16(out[2-dp:], digs)
		out[18-dp] = digs[16]
		return 2 - dp + nd
	case nd <= dp:
		copy16(out, digs)
		copy(out[nd:], "000000")
		return dp
	}
	copy16(out, digs)
	out[dp] = '.'
	copy16(out[dp+1:], digs[dp:])
	return nd + 1
}

// copy16 copies the first 16 bytes of src to dst.
func copy16(dst, src []byte) { *(*[16]byte)(dst) = *(*[16]byte)(src) }

const (
	pow10Min = -292
	pow10Max = 324
)

// pow10 holds, for each e in [pow10Min, pow10Max], 10^e scaled into
// [2^127, 2^128) and rounded up: floor(10^e · 2^(127 − floor(log2 10^e))) + 1,
// as {high 64 bits, low 64 bits}. It is computed exactly, once, at package
// initialisation.
var pow10 = func() (t [pow10Max - pow10Min + 1][2]uint64) {
	one, ten := big.NewInt(1), big.NewInt(10)
	p, g := big.NewInt(1), new(big.Int) // p = 10^e
	put := func(e int, x *big.Int) {
		var b [16]byte
		x.Add(x, one).FillBytes(b[:])
		t[e-pow10Min] = [2]uint64{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
	}
	for e := 0; e <= max(pow10Max, -pow10Min); e++ {
		// 10^e lies in [2^(n−1), 2^n) for n = p.BitLen(), and, being no
		// power of two for e > 0, 10^−e in (2^−n, 2^(1−n)).
		n := p.BitLen()
		if e <= pow10Max {
			put(e, g.Rsh(g.Lsh(p, 128), uint(n)))
		}
		if e > 0 && -e >= pow10Min {
			put(-e, g.Quo(g.Lsh(one, uint(127+n)), p))
		}
		p.Mul(p, ten)
	}
	return t
}()

// uint64pow10[n] is 10^n.
var uint64pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// digits8 returns x < 10^8 as eight ASCII digits, leading zeros and all,
// the first in the lowest byte. Each step splits every lane in two with one
// multiply (x/100 = x·10486>>20 below 10^4, x/10 = x·103>>10 below 10^2).
func digits8(x uint32) uint64 {
	v := uint64(x/10000) | uint64(x%10000)<<32
	q := v * 10486 >> 20 & 0x0000007f0000007f
	v = q | (v-q*100)<<16
	q = v * 103 >> 10 & 0x000f000f000f000f
	v = q | (v-q*10)<<8
	return v + 0x3030303030303030
}

// shortest returns d and e with d × 10^e the shortest decimal that rounds
// to the positive float64 of the given mantissa and biased exponent bits,
// the one nearest to it when several are as short (ties to even d). d may
// carry trailing zeros.
func shortest(mant uint64, exp int) (uint64, int) {
	// v = c × 2^q.
	c, q := mant, -1074
	if exp != 0 {
		c, q = mant|1<<52, exp-1075
		// An integer below 2^53 is its own shortest form: its neighbours
		// are at most 1 away, so no decimal with fewer digits rounds to it.
		if q <= 0 && q > -53 && c&(1<<-q-1) == 0 {
			return c >> -q, 0
		}
	}
	// The interval of reals that round to v is [cbl, cbr] × 2^(q−2),
	// closed when c is even (ties round to even). Its lower half is half as
	// wide at a power of two, the next float down being nearer.
	closer := mant == 0 && exp > 1
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	// k = floor(log10(2^q)), or of (3/4)·2^q when the lower half is the
	// narrow one, so that 10^k is at most the interval's width.
	k := (q * 1262611) >> 22
	if closer {
		cbl++
		k = (q*1262611 - 524031) >> 22
	}
	// h in [1, 4] aligns cb·2^h·g/2^128 to cb·2^(q−2)·10^−k·4.
	h := q + ((-k)*1741647)>>19 + 1
	g := &pow10[-k-pow10Min]
	vbl := mulRoundToOdd(g, cbl<<h)
	vb := mulRoundToOdd(g, cb<<h)
	vbr := mulRoundToOdd(g, cbr<<h)
	lower, upper := vbl, vbr
	if c&1 != 0 {
		lower++
		upper--
	}

	// A multiple of 10^(k+1) in the interval is the shortest; at most one
	// of the two around v can lie in it.
	s := vb >> 2
	if s >= 10 {
		sp := s / 10
		upIn := lower <= 40*sp
		wpIn := 40*sp+40 <= upper
		if upIn != wpIn {
			if wpIn {
				sp++
			}
			return sp, k + 1
		}
	}
	// Otherwise one of the two multiples of 10^k around v: the one inside
	// the interval, or the nearer when both are.
	uIn := lower <= 4*s
	wIn := 4*s+4 <= upper
	if uIn != wIn {
		if wIn {
			s++
		}
		return s, k
	}
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k
}

// mulRoundToOdd returns the integer part of g × cp / 2^128 with its lowest
// bit set when the product has a fraction. g exceeds the exact scaled power
// by less than one unit, so the truncated product has a zero fraction
// exactly when the exact one does.
func mulRoundToOdd(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z, carry := bits.Add64(y0, x1, 0)
	z1 := y1 + carry
	if z != 0 {
		z1 |= 1
	}
	return z1
}
