package chunkenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// BitReader reads an MSB-first bit stream: the chunk iterator's and the
// WAL v2 samples decoder's only way at their bytes. It keeps the pending
// bits left-aligned in buf so a whole field is read with two shifts, and it
// knows the three Gorilla field shapes both formats share (varints on bit
// boundaries, delta-of-delta buckets, XOR windows) so the fast paths live in
// one place.
//
// Invariant: the top nbits bits of buf are the next unread stream bits and
// off is the first byte not counted in nbits. Bits below nbits are either
// zero or a prefix of stream[off] — fill ORs the same bits over them again,
// so they never need clearing.
type BitReader struct {
	stream []byte
	off    int
	buf    uint64
	nbits  uint
}

// NewBitReader returns a reader positioned at the first bit of stream.
func NewBitReader(stream []byte) BitReader { return BitReader{stream: stream} }

// seek positions the reader at bit offset bit of its stream, no further
// than the stream's end: the rest of that bit's byte becomes the buffer.
func (r *BitReader) seek(bit int) {
	r.off, r.buf, r.nbits = bit>>3, 0, 0
	if k := uint(bit & 7); k != 0 {
		r.buf = uint64(r.stream[r.off]) << (56 + k)
		r.nbits = 8 - k
		r.off++
	}
}

// fill tops buf up to at least 56 bits, or to whatever the stream has left.
func (r *BitReader) fill() {
	if r.off+8 <= len(r.stream) {
		// nbits <= 63 here: only the byte loop below can reach 64, and it
		// runs only once fewer than eight bytes remain.
		r.buf |= binary.BigEndian.Uint64(r.stream[r.off:]) >> r.nbits
		r.off += int(63-r.nbits) >> 3
		r.nbits |= 56
		return
	}
	for r.nbits <= 56 && r.off < len(r.stream) {
		r.buf |= uint64(r.stream[r.off]) << (56 - r.nbits)
		r.off++
		r.nbits += 8
	}
}

// ReadBit reads one bit.
func (r *BitReader) ReadBit() (bool, error) {
	if r.nbits == 0 {
		r.fill()
		if r.nbits == 0 {
			return false, io.ErrUnexpectedEOF
		}
	}
	bit := r.buf>>63 == 1
	r.buf <<= 1
	r.nbits--
	return bit, nil
}

// ReadBits reads nbits (0..64) bits as the low bits of the result.
func (r *BitReader) ReadBits(nbits int) (uint64, error) {
	if nbits > 56 {
		// fill guarantees 56 bits; split wider reads.
		hi, err := r.ReadBits(nbits - 32)
		if err != nil {
			return 0, err
		}
		lo, err := r.ReadBits(32)
		if err != nil {
			return 0, err
		}
		return hi<<32 | lo, nil
	}
	if r.nbits < uint(nbits) {
		r.fill()
		if r.nbits < uint(nbits) {
			return 0, io.ErrUnexpectedEOF
		}
	}
	u := r.buf >> (64 - uint(nbits))
	r.buf <<= uint(nbits)
	r.nbits -= uint(nbits)
	return u, nil
}

// ReadUvarint reads a base-128 uvarint whose bytes need not be byte-aligned.
func (r *BitReader) ReadUvarint() (uint64, error) {
	var x uint64
	for s := uint(0); s < 70; s += 7 {
		b, err := r.ReadBits(8)
		if err != nil {
			return 0, err
		}
		if b < 0x80 {
			if s == 63 && b > 1 {
				break
			}
			return x | b<<s, nil
		}
		x |= (b & 0x7f) << s
	}
	return 0, errors.New("chunkenc: uvarint overflow")
}

// ReadVarint reads a zigzag varint.
func (r *BitReader) ReadVarint() (int64, error) {
	ux, err := r.ReadUvarint()
	if err != nil {
		return 0, err
	}
	return unzigzag(ux), nil
}

// unzigzag maps a zigzag-encoded uvarint back to its signed value.
func unzigzag(ux uint64) int64 {
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// alignedUvarint reads a uvarint straight off the bytes when the reader
// holds no buffered bits, so it sits on a byte boundary, and the stream
// holds the whole varint. Otherwise ok is false and nothing is read.
func (r *BitReader) alignedUvarint() (x uint64, ok bool) {
	if r.nbits != 0 {
		return 0, false
	}
	x, k := binary.Uvarint(r.stream[r.off:])
	if k <= 0 {
		return 0, false
	}
	r.off, r.buf = r.off+k, 0
	return x, true
}

// alignedUint64 is alignedUvarint for a raw 64-bit field.
func (r *BitReader) alignedUint64() (uint64, bool) {
	if r.nbits != 0 || r.off+8 > len(r.stream) {
		return 0, false
	}
	x := binary.BigEndian.Uint64(r.stream[r.off:])
	r.off, r.buf = r.off+8, 0
	return x, true
}

// ReadDOD reads one timestamp delta-of-delta bucket: '0' is zero, '10',
// '110' and '1110' carry a 14-, 17- or 20-bit two's-complement value, and
// '1111' a full 64 bits.
func (r *BitReader) ReadDOD() (int64, error) {
	// A steady scrape cadence makes the single '0' bit the common case;
	// take it straight off the buffer.
	if r.nbits == 0 {
		r.fill()
	}
	if r.nbits >= 1 && r.buf>>63 == 0 {
		r.buf <<= 1
		r.nbits--
		return 0, nil
	}
	var sz uint
	for sz = 0; sz < 4; sz++ {
		bit, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if !bit {
			break
		}
	}
	switch sz {
	case 0:
		return 0, nil
	case 1:
		sz = 14
	case 2:
		sz = 17
	case 3:
		sz = 20
	default:
		b, err := r.ReadBits(64)
		return int64(b), err
	}
	b, err := r.ReadBits(int(sz))
	if err != nil {
		return 0, err
	}
	if b > 1<<(sz-1) {
		b -= 1 << sz // sign-extend
	}
	return int64(b), nil
}

// ReadXOR reads one XOR-compressed value against prev: '0' repeats prev,
// '10' reuses the caller's leading/trailing-zero window, '11' reads a new
// window (5 bits leading, 6 bits width) into it first. A zero window is a
// valid start: encoders always write a full window before reusing one.
func (r *BitReader) ReadXOR(prev float64, leading, trailing *uint8) (float64, error) {
	// Fast paths for '0' and for '10' + payload when the whole field is
	// already buffered. Neither consumes anything on fall-through.
	if r.nbits < 56 {
		r.fill()
	}
	if r.nbits >= 2 {
		if r.buf>>63 == 0 {
			r.buf <<= 1
			r.nbits--
			return prev, nil
		}
		if r.buf>>62 == 0b10 {
			sigbits := 64 - uint(*leading) - uint(*trailing)
			if need := sigbits + 2; need <= r.nbits {
				u := (r.buf << 2) >> (64 - sigbits)
				r.buf <<= need
				r.nbits -= need
				return math.Float64frombits(math.Float64bits(prev) ^ u<<*trailing), nil
			}
		}
	}
	bit, err := r.ReadBit()
	if err != nil {
		return 0, err
	}
	if !bit {
		return prev, nil
	}
	if bit, err = r.ReadBit(); err != nil {
		return 0, err
	}
	if bit {
		l, err := r.ReadBits(5)
		if err != nil {
			return 0, err
		}
		sig, err := r.ReadBits(6)
		if err != nil {
			return 0, err
		}
		if sig == 0 {
			sig = 64 // 64 significant bits encode as 0 in the 6-bit field
		}
		if l+sig > 64 {
			// No encoder writes this; the bytes are corrupt.
			return 0, fmt.Errorf("chunkenc: xor window overflows (leading=%d sig=%d)", l, sig)
		}
		*leading, *trailing = uint8(l), uint8(64-l-sig)
	}
	b, err := r.ReadBits(64 - int(*leading) - int(*trailing))
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(math.Float64bits(prev) ^ b<<*trailing), nil
}
