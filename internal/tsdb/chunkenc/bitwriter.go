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
// A whole byte written on a byte boundary leaves one untouched byte behind
// it (free == 8). Chunks have always been serialized with that byte when
// their stream happens to end there, and block files must stay byte-stable,
// so the chunk keeps it; Bytes drops it.
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

func (w *BitWriter) writeByte(byt byte) {
	if w.free == 0 {
		w.b = append(w.b, byt, 0)
		w.free = 8
		return
	}
	// Fill what is left of the current byte, spill into the next.
	w.b[len(w.b)-1] |= byt >> (8 - w.free)
	w.b = append(w.b, byt<<w.free)
}

// WriteBits writes the low nbits (0..64) bits of u.
func (w *BitWriter) WriteBits(u uint64, nbits int) {
	u <<= 64 - uint(nbits)
	for nbits >= 8 {
		w.writeByte(byte(u >> 56))
		u <<= 8
		nbits -= 8
	}
	for nbits > 0 {
		w.WriteBit((u >> 63) == 1)
		u <<= 1
		nbits--
	}
}

// WriteUvarint writes a base-128 uvarint; its bytes need not be aligned.
func (w *BitWriter) WriteUvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	for _, b := range buf[:binary.PutUvarint(buf[:], v)] {
		w.writeByte(b)
	}
}

// WriteVarint writes a zigzag varint.
func (w *BitWriter) WriteVarint(v int64) {
	var buf [binary.MaxVarintLen64]byte
	for _, b := range buf[:binary.PutVarint(buf[:], v)] {
		w.writeByte(b)
	}
}

// WriteDOD writes one timestamp delta-of-delta in the buckets of the
// Gorilla paper (see BitReader.ReadDOD).
func (w *BitWriter) WriteDOD(dod int64) {
	switch {
	case dod == 0:
		w.WriteBit(false)
	case bitRange(dod, 14):
		w.WriteBits(0b10, 2)
		w.WriteBits(uint64(dod), 14)
	case bitRange(dod, 17):
		w.WriteBits(0b110, 3)
		w.WriteBits(uint64(dod), 17)
	case bitRange(dod, 20):
		w.WriteBits(0b1110, 4)
		w.WriteBits(uint64(dod), 20)
	default:
		w.WriteBits(0b1111, 4)
		w.WriteBits(uint64(dod), 64)
	}
}

// WriteXOR writes v XOR-compressed against prev (see BitReader.ReadXOR),
// reusing the caller's leading/trailing-zero window when the changed bits
// still fit it and replacing it otherwise. A stream that has written no
// window yet starts with *leading == 0xff, which never fits.
func (w *BitWriter) WriteXOR(prev, v float64, leading, trailing *uint8) {
	delta := math.Float64bits(v) ^ math.Float64bits(prev)
	if delta == 0 {
		w.WriteBit(false)
		return
	}
	w.WriteBit(true)
	l := uint8(bits.LeadingZeros64(delta))
	t := uint8(bits.TrailingZeros64(delta))
	if l >= 32 {
		l = 31 // clamp into the 5-bit field
	}
	if *leading != 0xff && l >= *leading && t >= *trailing {
		w.WriteBit(false)
		w.WriteBits(delta>>*trailing, 64-int(*leading)-int(*trailing))
		return
	}
	*leading, *trailing = l, t
	w.WriteBit(true)
	w.WriteBits(uint64(l), 5)
	sigbits := 64 - int(l) - int(t)
	w.WriteBits(uint64(sigbits), 6)
	w.WriteBits(delta>>t, sigbits)
}

func bitRange(x int64, nbits uint8) bool {
	return -((1<<(nbits-1))-1) <= x && x <= 1<<(nbits-1)-1
}
