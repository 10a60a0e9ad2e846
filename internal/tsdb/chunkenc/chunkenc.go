// Package chunkenc implements Gorilla-style time-series chunk compression:
// delta-of-delta encoded timestamps and XOR-encoded float64 values, the same
// scheme Prometheus uses for its TSDB chunks. A chunk holds samples of one
// series in timestamp order.
package chunkenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Chunk is a compressed sequence of (timestamp, value) samples.
type Chunk struct {
	b   bstream
	num uint16
	// appender state
	t        int64
	v        float64
	tDelta   uint64
	leading  uint8
	trailing uint8
}

// NewChunk returns an empty chunk.
func NewChunk() *Chunk {
	return &Chunk{leading: 0xff}
}

// FromBytes reconstructs a chunk from Bytes() output. The chunk is
// read-only; appending to it is not supported.
func FromBytes(data []byte) (*Chunk, error) {
	if len(data) < 2 {
		return nil, errors.New("chunkenc: truncated chunk header")
	}
	c := &Chunk{leading: 0xff}
	c.num = binary.BigEndian.Uint16(data[:2])
	c.b.stream = append([]byte(nil), data[2:]...)
	c.b.count = 0 // full bytes, no partial bit state for reading
	return c, nil
}

// FromBytesNoCopy is FromBytes without the defensive copy: the returned
// chunk aliases data, so the caller must guarantee data stays immutable and
// mapped for the chunk's lifetime. The block store uses it to iterate
// chunks straight out of an mmap'd segment with zero per-chunk heap cost.
func FromBytesNoCopy(data []byte) (*Chunk, error) {
	if len(data) < 2 {
		return nil, errors.New("chunkenc: truncated chunk header")
	}
	c := &Chunk{leading: 0xff}
	c.num = binary.BigEndian.Uint16(data[:2])
	c.b.stream = data[2:]
	return c, nil
}

// NumSamples returns the number of samples in the chunk.
func (c *Chunk) NumSamples() int { return int(c.num) }

// Bytes serializes the chunk: 2-byte big-endian count, then the bit stream.
func (c *Chunk) Bytes() []byte {
	out := make([]byte, 2+len(c.b.stream))
	binary.BigEndian.PutUint16(out[:2], c.num)
	copy(out[2:], c.b.stream)
	return out
}

// Append adds a sample. Timestamps must be strictly increasing.
func (c *Chunk) Append(t int64, v float64) error {
	switch c.num {
	case 0:
		// First sample: varint timestamp + raw value.
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutVarint(buf[:], t)
		for _, b := range buf[:n] {
			c.b.writeByte(b)
		}
		c.b.writeBits(math.Float64bits(v), 64)
	case 1:
		if t <= c.t {
			return fmt.Errorf("chunkenc: out-of-order timestamp %d <= %d", t, c.t)
		}
		tDelta := uint64(t - c.t)
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], tDelta)
		for _, b := range buf[:n] {
			c.b.writeByte(b)
		}
		c.tDelta = tDelta
		c.writeVDelta(v)
	default:
		if t <= c.t {
			return fmt.Errorf("chunkenc: out-of-order timestamp %d <= %d", t, c.t)
		}
		tDelta := uint64(t - c.t)
		dod := int64(tDelta - c.tDelta)
		// Delta-of-delta buckets as in the Gorilla paper.
		switch {
		case dod == 0:
			c.b.writeBit(false)
		case bitRange(dod, 14):
			c.b.writeBits(0b10, 2)
			c.b.writeBits(uint64(dod), 14)
		case bitRange(dod, 17):
			c.b.writeBits(0b110, 3)
			c.b.writeBits(uint64(dod), 17)
		case bitRange(dod, 20):
			c.b.writeBits(0b1110, 4)
			c.b.writeBits(uint64(dod), 20)
		default:
			c.b.writeBits(0b1111, 4)
			c.b.writeBits(uint64(dod), 64)
		}
		c.tDelta = tDelta
		c.writeVDelta(v)
	}
	c.t = t
	c.v = v
	c.num++
	return nil
}

func (c *Chunk) writeVDelta(v float64) {
	vDelta := math.Float64bits(v) ^ math.Float64bits(c.v)
	if vDelta == 0 {
		c.b.writeBit(false)
		return
	}
	c.b.writeBit(true)
	leading := uint8(bits.LeadingZeros64(vDelta))
	trailing := uint8(bits.TrailingZeros64(vDelta))
	// Clamp to 31 so it fits the 5-bit field.
	if leading >= 32 {
		leading = 31
	}
	if c.leading != 0xff && leading >= c.leading && trailing >= c.trailing {
		// Fits the previous window: reuse it.
		c.b.writeBit(false)
		c.b.writeBits(vDelta>>c.trailing, 64-int(c.leading)-int(c.trailing))
		return
	}
	c.leading, c.trailing = leading, trailing
	c.b.writeBit(true)
	c.b.writeBits(uint64(leading), 5)
	sigbits := 64 - int(leading) - int(trailing)
	c.b.writeBits(uint64(sigbits), 6)
	c.b.writeBits(vDelta>>trailing, sigbits)
}

func bitRange(x int64, nbits uint8) bool {
	return -((1<<(nbits-1))-1) <= x && x <= 1<<(nbits-1)-1
}

// Iterator iterates the samples of a chunk.
type Iterator struct {
	br       BitReader
	numTotal uint16
	numRead  uint16
	t        int64
	v        float64
	tDelta   uint64
	leading  uint8
	trailing uint8
	err      error
}

// Iterator returns a fresh iterator positioned before the first sample. It
// inlines, so an iterator that does not outlive its caller stays on the
// stack.
func (c *Chunk) Iterator() *Iterator {
	return &Iterator{br: BitReader{stream: c.b.stream}, numTotal: c.num}
}

// Next advances to the next sample, returning false at the end or on error.
func (it *Iterator) Next() bool {
	if it.err != nil || it.numRead == it.numTotal {
		return false
	}
	switch it.numRead {
	case 0:
		// First sample: varint timestamp + raw value.
		if it.t, it.err = it.br.ReadVarint(); it.err != nil {
			return false
		}
		var vb uint64
		if vb, it.err = it.br.ReadBits(64); it.err != nil {
			return false
		}
		it.v = math.Float64frombits(vb)
		it.numRead++
		return true
	case 1:
		if it.tDelta, it.err = it.br.ReadUvarint(); it.err != nil {
			return false
		}
	default:
		var dod int64
		if dod, it.err = it.br.ReadDOD(); it.err != nil {
			return false
		}
		it.tDelta = uint64(int64(it.tDelta) + dod)
	}
	it.t += int64(it.tDelta)
	if it.v, it.err = it.br.ReadXOR(it.v, &it.leading, &it.trailing); it.err != nil {
		return false
	}
	it.numRead++
	return true
}

// At returns the current sample.
func (it *Iterator) At() (int64, float64) { return it.t, it.v }

// Err returns the first error encountered.
func (it *Iterator) Err() error { return it.err }

// bstream is an append-only bit stream.
type bstream struct {
	stream []byte
	count  uint8 // bits free in the last byte
}

func (b *bstream) writeBit(bit bool) {
	if b.count == 0 {
		b.stream = append(b.stream, 0)
		b.count = 8
	}
	i := len(b.stream) - 1
	if bit {
		b.stream[i] |= 1 << (b.count - 1)
	}
	b.count--
}

func (b *bstream) writeByte(byt byte) {
	if b.count == 0 {
		b.stream = append(b.stream, 0)
		b.count = 8
	}
	i := len(b.stream) - 1
	// Fill what's left of the current byte, spill into the next.
	b.stream[i] |= byt >> (8 - b.count)
	b.stream = append(b.stream, 0)
	i++
	b.stream[i] = byt << b.count
}

func (b *bstream) writeBits(u uint64, nbits int) {
	u <<= 64 - uint(nbits)
	for nbits >= 8 {
		b.writeByte(byte(u >> 56))
		u <<= 8
		nbits -= 8
	}
	for nbits > 0 {
		b.writeBit((u >> 63) == 1)
		u <<= 1
		nbits--
	}
}
