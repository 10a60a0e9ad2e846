package chunkenc

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// oracleBitWriter is the bit-at-a-time writer BitWriter replaced, kept as
// the reference its output must match byte for byte: every bit below a
// byte boundary goes through WriteBit, every whole byte through writeByte.
type oracleBitWriter struct {
	b    []byte
	free uint8
}

func (w *oracleBitWriter) Bytes() []byte {
	if w.free == 8 {
		return w.b[:len(w.b)-1]
	}
	return w.b
}

func (w *oracleBitWriter) WriteBit(bit bool) {
	if w.free == 0 {
		w.b = append(w.b, 0)
		w.free = 8
	}
	if bit {
		w.b[len(w.b)-1] |= 1 << (w.free - 1)
	}
	w.free--
}

func (w *oracleBitWriter) writeByte(byt byte) {
	if w.free == 0 {
		w.b = append(w.b, byt, 0)
		w.free = 8
		return
	}
	w.b[len(w.b)-1] |= byt >> (8 - w.free)
	w.b = append(w.b, byt<<w.free)
}

func (w *oracleBitWriter) WriteBits(u uint64, nbits int) {
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

func (w *oracleBitWriter) WriteUvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	for _, b := range buf[:binary.PutUvarint(buf[:], v)] {
		w.writeByte(b)
	}
}

func (w *oracleBitWriter) WriteVarint(v int64) {
	var buf [binary.MaxVarintLen64]byte
	for _, b := range buf[:binary.PutVarint(buf[:], v)] {
		w.writeByte(b)
	}
}

func (w *oracleBitWriter) WriteDOD(dod int64) {
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

func (w *oracleBitWriter) WriteXOR(prev, v float64, leading, trailing *uint8) {
	delta := math.Float64bits(v) ^ math.Float64bits(prev)
	if delta == 0 {
		w.WriteBit(false)
		return
	}
	w.WriteBit(true)
	l := uint8(bits.LeadingZeros64(delta))
	t := uint8(bits.TrailingZeros64(delta))
	if l >= 32 {
		l = 31
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

// opStream hands out the bytes driving a differential run, zeros once
// they are used up.
type opStream []byte

func (s *opStream) byte() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

func (s *opStream) u64() uint64 {
	var buf [8]byte
	n := copy(buf[:], *s)
	*s = (*s)[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

// checkBitWriterAgainstOracle interprets data as a destination slice and a
// sequence of writer calls, runs them on a BitWriter and on the oracle, and
// fails at the first call after which b, free, Bytes or an XOR window
// differ. The destination has a random prefix (plain bytes, or a WAL-style
// record header and uvarint count) and random spare capacity whose stale
// contents must never show up in the output. Starting from an empty slice,
// capacities must match too: the head's chunks grow exactly as before.
func checkBitWriterAgainstOracle(t *testing.T, data []byte) {
	s := opStream(data)
	var dst []byte
	switch s.byte() % 3 {
	case 0: // empty, as a chunk starts
	case 1: // plain prefix
		dst = make([]byte, int(s.byte()%16), int(s.byte()%16)+16)
		for i := range dst {
			dst[i] = s.byte()
		}
	default: // framed like a WAL samples record: type, 8 header bytes, count
		dst = append(make([]byte, 0, int(s.byte()%32)), 2, 0, 0, 0, 0, 0, 0, 0, 0)
		dst = binary.AppendUvarint(dst, s.u64()>>(s.byte()%64))
	}
	// Stale spare capacity: whatever is there must be overwritten, never
	// ORed into.
	spare := dst[len(dst):cap(dst)]
	for i := range spare {
		spare[i] = 0xa5
	}
	oracle := oracleBitWriter{b: append([]byte(nil), dst...)}
	w := NewBitWriter(dst)
	wLead, wTrail := uint8(0xff), uint8(0)
	oLead, oTrail := uint8(0xff), uint8(0)
	prev := math.Float64frombits(s.u64())
	for call := 0; len(s) > 0; call++ {
		var desc string
		switch op := s.byte() % 7; op {
		case 0:
			bit := s.byte()&1 == 1
			w.WriteBit(bit)
			oracle.WriteBit(bit)
			desc = "WriteBit"
		case 1:
			u, n := s.u64(), int(s.byte()%65)
			w.WriteBits(u, n)
			oracle.WriteBits(u, n)
			desc = "WriteBits"
		case 2:
			v := s.u64() >> (s.byte() % 64)
			w.WriteUvarint(v)
			oracle.WriteUvarint(v)
			desc = "WriteUvarint"
		case 3:
			v := int64(s.u64()) >> (s.byte() % 64)
			w.WriteVarint(v)
			oracle.WriteVarint(v)
			desc = "WriteVarint"
		case 4, 5:
			dod := int64(s.u64()) >> (s.byte() % 64)
			if s.byte()%4 == 0 {
				dod = 0
			}
			w.WriteDOD(dod)
			oracle.WriteDOD(dod)
			desc = "WriteDOD"
		default:
			// A delta of k bits at shift sh exercises every window shape:
			// unchanged, reused, replaced, the full 64 bits.
			x, k, sh := s.u64(), uint(s.byte()%65), uint(s.byte()%64)
			delta := x
			if k < 64 {
				delta = (x & (1<<k - 1)) << sh
			}
			v := math.Float64frombits(math.Float64bits(prev) ^ delta)
			w.WriteXOR(prev, v, &wLead, &wTrail)
			oracle.WriteXOR(prev, v, &oLead, &oTrail)
			prev = v
			desc = "WriteXOR"
		}
		if !bytes.Equal(w.b, oracle.b) || w.free != oracle.free || !bytes.Equal(w.Bytes(), oracle.Bytes()) {
			t.Fatalf("call %d (%s): b=%x free=%d, oracle b=%x free=%d", call, desc, w.b, w.free, oracle.b, oracle.free)
		}
		if wLead != oLead || wTrail != oTrail {
			t.Fatalf("call %d (%s): window %d/%d, oracle %d/%d", call, desc, wLead, wTrail, oLead, oTrail)
		}
		if dst == nil && cap(w.b) != cap(oracle.b) {
			t.Fatalf("call %d (%s): cap %d, oracle cap %d", call, desc, cap(w.b), cap(oracle.b))
		}
	}
}

// Property: BitWriter writes exactly the bytes of the bit-at-a-time
// oracle, trailing empty byte included, for any mix of calls at any
// alignment into any destination.
func TestBitWriterMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 3000; round++ {
		data := make([]byte, rng.Intn(400))
		rng.Read(data)
		checkBitWriterAgainstOracle(t, data)
	}
}

// FuzzBitWriter is TestBitWriterMatchesOracle's coverage-guided twin.
func FuzzBitWriter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 64, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 8})
	f.Add([]byte{2, 40, 0xc8, 1, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0x10, 0, 0, 0, 0, 0, 0, 0, 5, 1, 6, 0xff, 0, 0, 0, 0, 0, 0, 0, 12, 3})
	f.Fuzz(checkBitWriterAgainstOracle)
}

// oracleChunk is Chunk.Append as it was written against the oracle: the
// delta-of-delta and the XOR value as separate calls.
type oracleChunk struct {
	w                 oracleBitWriter
	n                 int
	t                 int64
	v                 float64
	tDelta            uint64
	leading, trailing uint8
}

func (c *oracleChunk) append(t int64, v float64) {
	switch c.n {
	case 0:
		c.leading = 0xff
		c.w.WriteVarint(t)
		c.w.WriteBits(math.Float64bits(v), 64)
	case 1:
		c.tDelta = uint64(t - c.t)
		c.w.WriteUvarint(c.tDelta)
		c.w.WriteXOR(c.v, v, &c.leading, &c.trailing)
	default:
		tDelta := uint64(t - c.t)
		c.w.WriteDOD(int64(tDelta - c.tDelta))
		c.tDelta = tDelta
		c.w.WriteXOR(c.v, v, &c.leading, &c.trailing)
	}
	c.t, c.v = t, v
	c.n++
}

// The head reads an open chunk's bytes directly, with no flush in
// between: after every Append the chunk holds exactly the oracle's bytes,
// and a fresh iterator over it returns every sample appended so far.
func TestOpenChunkReadableAfterEveryAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for round := 0; round < 20; round++ {
		in := hostileSamples(rng, 1+rng.Intn(150))
		c := NewChunk()
		var oracle oracleChunk
		for n, s := range in {
			if err := c.Append(s.t, s.v); err != nil {
				t.Fatal(err)
			}
			oracle.append(s.t, s.v)
			if !bytes.Equal(c.b.b, oracle.w.b) || c.b.free != oracle.w.free || cap(c.b.b) != cap(oracle.w.b) {
				t.Fatalf("round %d: after %d appends b=%x free=%d cap=%d, oracle b=%x free=%d cap=%d", round, n+1, c.b.b, c.b.free, cap(c.b.b), oracle.w.b, oracle.w.free, cap(oracle.w.b))
			}
			it := c.Iterator()
			for i, want := range in[:n+1] {
				if !it.Next() {
					t.Fatalf("round %d: after %d appends, Next false at %d: %v", round, n+1, i, it.Err())
				}
				if gt, gv := it.At(); gt != want.t || math.Float64bits(gv) != math.Float64bits(want.v) {
					t.Fatalf("round %d: after %d appends, sample %d = (%d, %x), want (%d, %x)", round, n+1, i, gt, math.Float64bits(gv), want.t, math.Float64bits(want.v))
				}
			}
			if it.Next() || it.Err() != nil {
				t.Fatalf("round %d: after %d appends, iterator ran past the end (err %v)", round, n+1, it.Err())
			}
		}
	}
}

// A chunk counts its samples in 16 bits: the append that would wrap the
// count is refused and the chunk still reads back whole.
func TestAppendRefusesFullChunk(t *testing.T) {
	c := NewChunk()
	for i := int64(0); i < math.MaxUint16; i++ {
		if err := c.Append(i*1000, float64(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := c.Append(math.MaxUint16*1000, 1); err != errChunkFull {
		t.Fatalf("Append to a full chunk = %v, want %v", err, errChunkFull)
	}
	c2, err := FromBytes(c.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it := c2.Iterator(); it.Next(); n++ {
		if gt, gv := it.At(); gt != int64(n)*1000 || gv != float64(n) {
			t.Fatalf("sample %d = (%d, %v)", n, gt, gv)
		}
	}
	if n != math.MaxUint16 {
		t.Fatalf("read back %d samples, want %d", n, math.MaxUint16)
	}
}
