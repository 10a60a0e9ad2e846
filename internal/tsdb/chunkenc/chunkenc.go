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

	"repro/internal/model"
)

// Chunk is a compressed sequence of (timestamp, value) samples.
type Chunk struct {
	b   BitWriter
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
	c.b.b = append([]byte(nil), data[2:]...)
	return c, nil
}

// FromBytesNoCopy is FromBytes without the defensive copy: the returned
// chunk aliases data, so the caller must guarantee data stays immutable and
// mapped for the chunk's lifetime. The block store uses it to iterate
// chunks straight out of an mmap'd segment: by value, at no heap cost.
func FromBytesNoCopy(data []byte) (Chunk, error) {
	if len(data) < 2 {
		return Chunk{}, errors.New("chunkenc: truncated chunk header")
	}
	return Chunk{b: BitWriter{b: data[2:]}, num: binary.BigEndian.Uint16(data[:2]), leading: 0xff}, nil
}

// NumSamples returns the number of samples in the chunk.
func (c *Chunk) NumSamples() int { return int(c.num) }

// Bytes serializes the chunk: 2-byte big-endian count, then the bit stream.
func (c *Chunk) Bytes() []byte {
	out := make([]byte, 2+len(c.b.b))
	binary.BigEndian.PutUint16(out[:2], c.num)
	copy(out[2:], c.b.b)
	return out
}

// errChunkFull is returned by Append on a chunk whose 16-bit header count
// has no room for another sample.
var errChunkFull = errors.New("chunkenc: chunk full")

// Append adds a sample. Timestamps must be strictly increasing, and a chunk
// holds at most math.MaxUint16 samples.
func (c *Chunk) Append(t int64, v float64) error {
	switch c.num {
	case math.MaxUint16:
		return errChunkFull
	case 0:
		// First sample: varint timestamp + raw value.
		c.b.WriteVarint(t)
		c.b.WriteBits(math.Float64bits(v), 64)
	case 1:
		if t <= c.t {
			return fmt.Errorf("chunkenc: out-of-order timestamp %d <= %d", t, c.t)
		}
		c.tDelta = uint64(t - c.t)
		c.b.WriteUvarint(c.tDelta)
		c.b.WriteXOR(c.v, v, &c.leading, &c.trailing)
	default:
		if t <= c.t {
			return fmt.Errorf("chunkenc: out-of-order timestamp %d <= %d", t, c.t)
		}
		tDelta := uint64(t - c.t)
		dp, dpBits, dv, dvBits := dodFields(int64(tDelta - c.tDelta))
		xc, xcBits, xv, xvBits := xorFields(c.v, v, &c.leading, &c.trailing)
		if dpBits+dvBits+xcBits <= 64 {
			// Timestamp and value control bits travel as one field.
			c.b.writeFields((dp<<dvBits|dv)<<xcBits|xc, dpBits+dvBits+xcBits, xv, xvBits)
		} else {
			c.b.writeFields(dp, dpBits, dv, dvBits)
			c.b.writeFields(xc, xcBits, xv, xvBits)
		}
		c.tDelta = tDelta
	}
	c.t = t
	c.v = v
	c.num++
	return nil
}

// Mark is the decoder's state right after one sample of a chunk: where the
// next sample's bits start and what decoding them needs. An iterator resumed
// from a mark (Iterator.Resume) goes on from there without reading what
// came before. Marks are not part of a chunk's bytes; a mark is 32 bytes.
type Mark struct {
	t        int64
	v        float64
	tDelta   uint64
	off      uint32 // bit offset of the next sample in the stream
	num      uint16 // samples up to and including the marked one
	leading  uint8
	trailing uint8
}

// T returns the timestamp of the marked sample.
func (m Mark) T() int64 { return m.t }

// Mark returns the decoder's state after the newest appended sample.
func (c *Chunk) Mark() Mark {
	m := Mark{t: c.t, v: c.v, tDelta: c.tDelta, off: uint32(len(c.b.b)*8 - int(c.b.free)), num: c.num, leading: c.leading, trailing: c.trailing}
	if m.leading == 0xff {
		// No window written yet: the writer's "none" is the reader's zero
		// window (see ReadXOR).
		m.leading = 0
	}
	return m
}

// errBadMark is an iterator's error after Resume from a mark its chunk
// cannot hold.
var errBadMark = errors.New("chunkenc: mark past the end of the chunk")

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
	return &Iterator{br: BitReader{stream: c.b.b}, numTotal: c.num}
}

// Next advances to the next sample, returning false at the end or on error.
// Every storage read decodes through AppendWindow; Next is the per-sample
// reference it is held to.
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

// Resume positions the iterator right after the sample m marks, as if Next
// had just returned it: the next call decodes the sample after it. m must be
// a mark of the chunk the iterator reads (or of a prefix of it).
func (it *Iterator) Resume(m Mark) {
	if m.num > it.numTotal || int(m.off) > len(it.br.stream)*8 {
		it.err = errBadMark
		return
	}
	it.br.seek(int(m.off))
	it.t, it.v, it.tDelta, it.numRead, it.leading, it.trailing = m.t, m.v, m.tDelta, m.num, m.leading, m.trailing
}

// At returns the current sample.
func (it *Iterator) At() (int64, float64) { return it.t, it.v }

// Err returns the first error encountered.
func (it *Iterator) Err() error { return it.err }

// AppendWindow decodes the rest of the chunk onto dst: the samples in
// [mint, maxt] that f keeps (all of them when f is nil), stopping at the
// first sample past maxt. It returns what a Next/At loop applying the same
// window and f.Append returns, and the same error, and leaves the iterator
// after the last sample it decoded, as that loop would.
//
// It is that loop fused: the bit buffer and the decoder state live in
// locals, the fields the encoder writes most — a '0' delta-of-delta, a '0',
// '10' or '11' XOR — are read straight off the buffer, and the chunk's
// byte-aligned header straight off the bytes. Every other field, and any
// field the buffer does not hold whole, goes through the BitReader methods,
// so a corrupt chunk fails with the same error after the same samples.
func (it *Iterator) AppendWindow(dst []model.Sample, mint, maxt int64, f *model.StepFilter) ([]model.Sample, error) {
	if it.err != nil {
		return dst, it.err
	}
	stream, off, buf, nbits := it.br.stream, it.br.off, it.br.buf, it.br.nbits
	t, v, tDelta, leading, trailing := it.t, it.v, it.tDelta, it.leading, it.trailing
	n, total := it.numRead, it.numTotal
	var err error
decode:
	for n < total {
		if n < 2 {
			// The locals still equal the iterator's state here.
			err = it.readHeaderSample(n)
			off, buf, nbits = it.br.off, it.br.buf, it.br.nbits
			t, v, tDelta, leading, trailing = it.t, it.v, it.tDelta, it.leading, it.trailing
			if err != nil {
				break
			}
		} else {
			// Timestamp: '0' repeats the delta.
			if nbits == 0 && off+8 <= len(stream) {
				buf |= binary.BigEndian.Uint64(stream[off:])
				off += 7
				nbits = 56
			}
			if nbits != 0 && buf>>63 == 0 {
				buf <<= 1
				nbits--
			} else {
				it.br.off, it.br.buf, it.br.nbits = off, buf, nbits
				dod, derr := it.br.ReadDOD()
				off, buf, nbits = it.br.off, it.br.buf, it.br.nbits
				if err = derr; err != nil {
					break
				}
				tDelta = uint64(int64(tDelta) + dod)
			}
			t += int64(tDelta)
			// Value: '0' repeats it, '10' reuses the window, '11' opens one.
			if nbits < 56 && off+8 <= len(stream) {
				buf |= binary.BigEndian.Uint64(stream[off:]) >> nbits
				off += int(63-nbits) >> 3
				nbits |= 56
			}
			sigbits := 64 - uint(leading) - uint(trailing)
			switch {
			case nbits != 0 && buf>>63 == 0:
				buf <<= 1
				nbits--
			case nbits >= 2 && buf>>62 == 0b10 && sigbits+2 <= nbits:
				u := (buf << 2) >> (64 - sigbits)
				buf <<= sigbits + 2
				nbits -= sigbits + 2
				v = math.Float64frombits(math.Float64bits(v) ^ u<<trailing)
			default:
				// '11', 5 bits of leading zeros, 6 of width (0 is 64, which
				// no buffer holds), then the significant bits.
				if l, sig := uint(buf>>57&31), uint(buf>>51&63); nbits >= 13 && buf>>62 == 0b11 && sig != 0 && l+sig <= 64 && 13+sig <= nbits {
					leading, trailing = uint8(l), uint8(64-l-sig)
					u := (buf << 13) >> (64 - sig)
					buf <<= 13 + sig
					nbits -= 13 + sig
					v = math.Float64frombits(math.Float64bits(v) ^ u<<trailing)
					break
				}
				it.br.off, it.br.buf, it.br.nbits = off, buf, nbits
				v, err = it.br.ReadXOR(v, &leading, &trailing)
				off, buf, nbits = it.br.off, it.br.buf, it.br.nbits
				if err != nil {
					break decode
				}
			}
		}
		n++
		if t < mint {
			continue
		}
		if t > maxt {
			break
		}
		if f == nil {
			dst = append(dst, model.Sample{T: t, V: v})
		} else {
			dst = f.Append(dst, t, v)
		}
	}
	it.br.off, it.br.buf, it.br.nbits = off, buf, nbits
	it.t, it.v, it.tDelta, it.leading, it.trailing = t, v, tDelta, leading, trailing
	it.numRead, it.err = n, err
	return dst, err
}

// readHeaderSample decodes sample n (0 or 1) of the chunk into the iterator
// as Next does. The stream opens with the first timestamp, the first value
// and the second sample's delta, whole bytes each, so they are read straight
// off the bytes; a field the bytes do not hold whole goes through the
// BitReader methods.
func (it *Iterator) readHeaderSample(n uint16) error {
	r := &it.br
	var err error
	if n == 0 {
		if ux, ok := r.alignedUvarint(); ok {
			it.t = unzigzag(ux)
		} else if it.t, err = r.ReadVarint(); err != nil {
			return err
		}
		vb, ok := r.alignedUint64()
		if !ok {
			if vb, err = r.ReadBits(64); err != nil {
				return err
			}
		}
		it.v = math.Float64frombits(vb)
		return nil
	}
	if ux, ok := r.alignedUvarint(); ok {
		it.tDelta = ux
	} else if it.tDelta, err = r.ReadUvarint(); err != nil {
		return err
	}
	it.t += int64(it.tDelta)
	it.v, err = r.ReadXOR(it.v, &it.leading, &it.trailing)
	return err
}
