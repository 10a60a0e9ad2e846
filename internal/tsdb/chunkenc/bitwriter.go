package chunkenc

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// BitWriter appends an MSB-first bit stream onto a byte slice: the write
// side of BitReader, shared by Chunk.Append and the WAL v2 samples encoder.
// It grows the slice it was handed, so a caller framing a record in place
// (header already in the buffer, payload appended behind it) keeps its one
// buffer. Like the reader it knows the Gorilla field shapes both formats
// share — varints on bit boundaries, delta-of-delta buckets, XOR windows.
//
// Any field of 0..64 bits is written in O(1): the partial last byte and the
// field go out as one 8-byte big-endian store (two when together they
// overflow 64 bits; one short append when the slice has less than 8 bytes of
// spare capacity). Two invariants hold:
//
//   - Write-through. b holds every bit written so far; there is no pending
//     bits register. The head reads an open chunk's bytes directly (under
//     the series lock) and Bytes needs no flush.
//   - Trailing empty byte. A write whose last field is a whole number of
//     bytes and ends on a byte boundary leaves one zero byte behind it
//     (free == 8); a write ending on a boundary after a field of any other
//     width leaves free == 0. Chunks have always been serialized with that
//     byte when their stream happens to end there, and block files must stay
//     byte-stable, so the chunk keeps it; Bytes drops it.
//
// The 8-byte store may write up to 7 bytes past len(b) inside the slice's
// spare capacity — bytes a later append would overwrite anyway. Callers
// keep nothing in the spare capacity of a slice they hand to a writer.
type BitWriter struct {
	b    []byte
	free uint8 // bits still unset in the final byte of b
}

// NewBitWriter returns a writer whose first bit lands in a new byte
// appended to dst.
func NewBitWriter(dst []byte) BitWriter { return BitWriter{b: dst} }

// Bytes returns the slice handed to NewBitWriter extended by the written
// bits, the last byte zero-padded.
func (w *BitWriter) Bytes() []byte {
	if w.free == 8 {
		return w.b[:len(w.b)-1]
	}
	return w.b
}

// WriteBit writes one bit.
func (w *BitWriter) WriteBit(bit bool) {
	if w.free == 0 {
		w.b = append(w.b, 0)
		w.free = 8
	}
	if bit {
		w.b[len(w.b)-1] |= 1 << (w.free - 1)
	}
	w.free--
}

// WriteBits writes the low nbits (0..64) bits of u.
func (w *BitWriter) WriteBits(u uint64, nbits int) {
	w.write(u, nbits, nbits&7 == 0)
}

// write writes the low nbits (0..64) bits of u. byteTail says whether the
// last field packed into u is a whole number of bytes: only then does a
// write that ends on a byte boundary leave the trailing empty byte.
func (w *BitWriter) write(u uint64, nbits int, byteTail bool) {
	if nbits == 0 {
		return
	}
	// The field starts k bits into byte p: the partial last byte, or a new
	// byte at len when the last one is full.
	n := len(w.b)
	p, k := n, uint(0)
	if w.free != 0 {
		p, k = n-1, 8-uint(w.free)
	}
	end := k + uint(nbits)
	if end >= 64 {
		// The partial byte and the field overflow one word: split.
		w.write(u>>32, nbits-32, false)
		w.write(u, 32, byteTail)
		return
	}
	// word is byte p onwards: the bits already in it, the field, then
	// zeros — among them the trailing empty byte when the rule asks for it.
	word := u << (64 - uint(nbits)) >> k
	if k != 0 {
		word |= uint64(w.b[p]) << 56
	}
	ext := (end + 7) >> 3
	free := ext<<3 - end
	if free == 0 && byteTail {
		ext++
		free = 8
	}
	w.free = uint8(free)
	if cap(w.b)-p >= 8 {
		binary.BigEndian.PutUint64(w.b[p:p+8], word)
		w.b = w.b[:p+int(ext)]
		return
	}
	// Less than a word of capacity left: rewrite the partial byte and
	// append the rest, so the slice grows just as byte appends grow it.
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], word)
	if p < n {
		w.b[p] = buf[0]
	}
	w.b = append(w.b, buf[n-p:ext]...)
}

// WriteUvarint writes a base-128 uvarint; its bytes need not be aligned.
func (w *BitWriter) WriteUvarint(v uint64) {
	var buf [16]byte
	w.writeVarintBytes(&buf, binary.PutUvarint(buf[:], v))
}

// WriteVarint writes a zigzag varint.
func (w *BitWriter) WriteVarint(v int64) {
	var buf [16]byte
	w.writeVarintBytes(&buf, binary.PutVarint(buf[:], v))
}

// writeVarintBytes writes the first n (1..10) bytes of buf as at most two
// fields.
func (w *BitWriter) writeVarintBytes(buf *[16]byte, n int) {
	if n > 8 {
		w.write(binary.BigEndian.Uint64(buf[:8]), 64, true)
		w.write(binary.BigEndian.Uint64(buf[8:])>>(64-8*uint(n-8)), 8*(n-8), true)
		return
	}
	w.write(binary.BigEndian.Uint64(buf[:8])>>(64-8*uint(n)), 8*n, true)
}

// writeFields writes field a (na bits) then field b (nb bits, b < 1<<nb),
// as one write when together they fit in 64 bits. Callers pass an empty b
// only after a single control bit, so a never ends in a whole byte.
func (w *BitWriter) writeFields(a uint64, na int, b uint64, nb int) {
	if na+nb <= 64 {
		w.write(a<<nb|b, na+nb, nb != 0 && nb&7 == 0)
		return
	}
	w.write(a, na, false)
	w.write(b, nb, nb&7 == 0)
}

// WriteDOD writes one timestamp delta-of-delta in the buckets of the
// Gorilla paper (see BitReader.ReadDOD).
func (w *BitWriter) WriteDOD(dod int64) {
	w.writeFields(dodFields(dod))
}

// dodFields returns dod's bucket prefix and payload.
func dodFields(dod int64) (prefix uint64, prefixBits int, payload uint64, payloadBits int) {
	switch {
	case dod == 0:
		return 0, 1, 0, 0
	case bitRange(dod, 14):
		return 0b10, 2, uint64(dod) & (1<<14 - 1), 14
	case bitRange(dod, 17):
		return 0b110, 3, uint64(dod) & (1<<17 - 1), 17
	case bitRange(dod, 20):
		return 0b1110, 4, uint64(dod) & (1<<20 - 1), 20
	default:
		return 0b1111, 4, uint64(dod), 64
	}
}

// WriteXOR writes v XOR-compressed against prev (see BitReader.ReadXOR),
// reusing the caller's leading/trailing-zero window when the changed bits
// still fit it and replacing it otherwise. A stream that has written no
// window yet starts with *leading == 0xff, which never fits.
func (w *BitWriter) WriteXOR(prev, v float64, leading, trailing *uint8) {
	w.writeFields(xorFields(prev, v, leading, trailing))
}

// xorFields returns v's XOR control bits (with the new window, when it
// replaces the caller's) and significant bits, updating the window.
func xorFields(prev, v float64, leading, trailing *uint8) (control uint64, controlBits int, payload uint64, payloadBits int) {
	delta := math.Float64bits(v) ^ math.Float64bits(prev)
	if delta == 0 {
		return 0, 1, 0, 0
	}
	l := uint8(bits.LeadingZeros64(delta))
	t := uint8(bits.TrailingZeros64(delta))
	if l >= 32 {
		l = 31 // clamp into the 5-bit field
	}
	if *leading != 0xff && l >= *leading && t >= *trailing {
		return 0b10, 2, delta >> *trailing, 64 - int(*leading) - int(*trailing)
	}
	*leading, *trailing = l, t
	sigbits := 64 - int(l) - int(t)
	// '11', 5 bits of leading zeros, 6 of significant bits (64 wraps to 0).
	return 0b11<<11 | uint64(l)<<6 | uint64(sigbits)&63, 13, delta >> t, sigbits
}

func bitRange(x int64, nbits uint8) bool {
	return -((1<<(nbits-1))-1) <= x && x <= 1<<(nbits-1)-1
}
