package tsdb

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/tsdb/chunkenc"
)

// WAL format v2: compressed record payloads.
//
// The outer framing (type | payloadLen | crc32c | payload, see wal.go) is
// unchanged — torn-tail repair and CRC validation work byte-for-byte like v1
// — but v2 payloads are compressed:
//
//   - samplesV2 records are Gorilla-encoded: per series, timestamps are
//     delta-of-delta and values are XOR compressed, exactly the scheme the
//     in-memory chunks (chunkenc) and Prometheus's TSDB use. The encoder
//     keeps per-series state (previous t, t-delta, value, XOR window) for
//     the lifetime of one segment file, so a 15s-cadence scrape stream
//     costs ~2 bits per timestamp and a handful of bits per value instead
//     of varint t + 8 value bytes. State resets at every rotation, which
//     keeps each segment self-contained: replay decodes a file from its
//     first byte and never needs another file's state.
//   - seriesV2 records (and the deletesV2 and tombstoneV2 records older
//     builds wrote) carry a block-compressed (DEFLATE, fastest level) copy
//     of the v1 payload, with a one-byte flag so payloads that would grow
//     under compression are stored raw.
//
// A v2 file starts with a 5-byte header: the magic "CWAL" followed by the
// format version byte. v1 files have no header — their first byte is a
// record type in 1..3 — and the magic's first byte (0x43) can never be a
// valid v1 record type, so sniffing is unambiguous. Versioning is per file:
// a shard directory may hold v1 checkpoints and segments from before the
// upgrade next to the v2 files written since (the next checkpoint retires
// them), and replay dispatches per file on the header.
const (
	walRecSamplesV2 byte = 4
	walRecSeriesV2  byte = 5
	walRecDeletesV2 byte = 6

	walFormatV1 = 1
	walFormatV2 = 2

	// walFileHeaderLen is the v2 file header: 4 magic bytes + version.
	walFileHeaderLen = 5
)

// walFileHeader is what the writer puts at the top of every file: walMagic
// and the format version. The magic's first byte is far outside the v1
// record-type range, so a v1 decoder can never mistake a header for a
// record (and vice versa).
var (
	walFileHeader = [walFileHeaderLen]byte{'C', 'W', 'A', 'L', walFormatV2}
	walMagic      = walFileHeader[:4]
)

// walSniffVersion classifies a WAL file's bytes. A file that is a strict
// prefix of the header (crash during the very first write) reports
// torn=true and must be truncated to zero. An unknown version is an error:
// silently treating it as corruption would delete a newer format's data.
func walSniffVersion(data []byte) (version, hdrLen int, torn bool, err error) {
	if len(data) == 0 {
		return walFormatV1, 0, false, nil
	}
	n := len(data)
	if n > len(walMagic) {
		n = len(walMagic)
	}
	if !bytes.Equal(data[:n], walMagic[:n]) {
		return walFormatV1, 0, false, nil
	}
	if len(data) < walFileHeaderLen {
		return walFormatV2, 0, true, nil
	}
	if v := data[len(walMagic)]; v != walFormatV2 {
		return 0, 0, false, fmt.Errorf("tsdb: unsupported wal format version %d", v)
	}
	return walFormatV2, walFileHeaderLen, false, nil
}

// walRecTypeValid reports whether a record type may appear in a file of the
// given format version. v1 files accept the raw-payload types only
// (preserving v1's torn semantics exactly); v2 files accept the compressed
// types too. The raw tombstone records (types 7 and 9, tombstones.go) are
// format-agnostic and valid in both.
func walRecTypeValid(version int, typ byte) bool {
	switch typ {
	case walRecSeries, walRecSamples, walRecDeletes, walRecTombstone, walRecDelete:
		return true
	case walRecSamplesV2, walRecSeriesV2, walRecDeletesV2, walRecTombstoneV2:
		return version >= walFormatV2
	}
	return false
}

// ---------------------------------------------------------------------------
// Gorilla samples codec
// ---------------------------------------------------------------------------

// walSeriesV2State is the per-series Gorilla state shared (structurally) by
// the encoder and decoder: previous timestamp, previous t-delta, previous
// value bits and the current XOR leading/trailing-zero window. It is valid
// for exactly one segment file.
type walSeriesV2State struct {
	t        int64
	tDelta   uint64
	v        float64
	leading  uint8
	trailing uint8
	n        uint64 // samples of this series seen in this file
}

// walV2Enc encodes samplesV2 records. One encoder belongs to one open
// segment (or one checkpoint file being written); its state map is keyed by
// WAL series ref.
type walV2Enc struct {
	series map[uint64]*walSeriesV2State
}

func newWalV2Enc() *walV2Enc {
	return &walV2Enc{series: make(map[uint64]*walSeriesV2State)}
}

func (e *walV2Enc) state(ref uint64) *walSeriesV2State {
	s := e.series[ref]
	if s == nil {
		s = &walSeriesV2State{leading: 0xff} // no XOR window written yet
		e.series[ref] = s
	}
	return s
}

// appendSamples encodes recs as a samplesV2 payload onto dst: a plain
// uvarint count, then a bit stream of (ref delta, timestamp, value) tuples.
// Per-series timestamps must be strictly increasing across the whole file —
// the WAL write path guarantees this (appends are accepted in memory before
// they are journalled, and the shard WAL mutex serializes them).
//
// Refs are delta-encoded with a tiny bucket scheme tuned to the two batch
// shapes the appender produces: a scrape commit walks the shard's series in
// a stable order (delta +1 dominates — one bit), a per-series batch repeats
// one ref (delta 0 — two bits); anything else pays 2 bits + a zigzag
// varint.
func (e *walV2Enc) appendSamples(dst []byte, recs []walSampleRec) []byte {
	w := chunkenc.NewBitWriter(appendUvarint(dst, uint64(len(recs))))
	lastRef := uint64(0)
	for _, r := range recs {
		switch d := int64(r.ref) - int64(lastRef); {
		case d == 1:
			w.WriteBit(false)
		case d == 0:
			w.WriteBits(0b10, 2)
		default:
			w.WriteBits(0b11, 2)
			w.WriteUvarint(zigzag(d))
		}
		lastRef = r.ref
		s := e.state(r.ref)
		switch s.n {
		case 0:
			w.WriteVarint(r.t)
			w.WriteBits(math.Float64bits(r.v), 64)
		case 1:
			s.tDelta = uint64(r.t - s.t)
			w.WriteUvarint(s.tDelta)
			w.WriteXOR(s.v, r.v, &s.leading, &s.trailing)
		default:
			tDelta := uint64(r.t - s.t)
			w.WriteDOD(int64(tDelta - s.tDelta))
			s.tDelta = tDelta
			w.WriteXOR(s.v, r.v, &s.leading, &s.trailing)
		}
		s.t, s.v = r.t, r.v
		s.n++
	}
	return w.Bytes()
}

func zigzag(v int64) uint64 {
	return uint64(v<<1) ^ uint64(v>>63)
}

func unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// walV2Dec decodes samplesV2 records. One decoder belongs to one file being
// replayed; like the encoder, its state spans records but never files.
//
// Refs are assigned sequentially per shard, so the decode state lives in a
// ref-indexed slice — one bounds check per sample on the replay hot path
// instead of a map probe. Only a ref no higher than maxRef, the highest one
// registered so far, may size that slice: the writer registers a series
// before journalling its samples, so a ref beyond maxRef is possible only in
// a damaged or hostile stream, and it falls back to a map rather than
// letting a decoded integer size an allocation.
type walV2Dec struct {
	dense  []walSeriesV2State
	sparse map[uint64]*walSeriesV2State
	maxRef uint64
}

// walV2DenseRefs caps the ref-indexed fast path (~40 MB of state at the
// cap, far above any real shard's series count).
const walV2DenseRefs = 1 << 20

func newWalV2Dec() *walV2Dec {
	return &walV2Dec{}
}

// state returns the series state for ref. The zero value is a valid fresh
// state: the encoder always writes a full XOR window before reusing one, so
// the decoder needs no 0xff sentinel. A ref keeps the home it got at first
// sight, so the map is searched first once it holds anything.
func (d *walV2Dec) state(ref uint64) *walSeriesV2State {
	if d.sparse != nil {
		if s := d.sparse[ref]; s != nil {
			return s
		}
	}
	if ref <= d.maxRef && ref < walV2DenseRefs {
		if need := int(ref) + 1; need > len(d.dense) {
			if need <= cap(d.dense) {
				d.dense = d.dense[:need]
			} else {
				grown := make([]walSeriesV2State, need, 2*need)
				copy(grown, d.dense)
				d.dense = grown
			}
		}
		return &d.dense[ref]
	}
	if d.sparse == nil {
		d.sparse = make(map[uint64]*walSeriesV2State)
	}
	s := &walSeriesV2State{}
	d.sparse[ref] = s
	return s
}

// decodeSamples decodes one samplesV2 payload, appending onto dst. A
// payload whose CRC passed can only fail to decode through an encoder bug
// or a CRC collision; the caller treats an error as fatal corruption.
func (d *walV2Dec) decodeSamples(dst []walSampleRec, payload []byte) ([]walSampleRec, error) {
	count, rest, err := readUvarint(payload)
	if err != nil {
		return dst, err
	}
	if count > uint64(len(rest))*8/3 {
		// A sample costs >= 3 bits (sequential ref, dod 0, value unchanged);
		// anything bigger is garbage masquerading as a count, not an
		// allocation request.
		return dst, fmt.Errorf("tsdb: wal v2 sample count %d exceeds payload", count)
	}
	r := chunkenc.NewBitReader(rest)
	lastRef := uint64(0)
	for i := uint64(0); i < count; i++ {
		// Ref bucket: '0' = previous+1, '10' = previous, '11' = zigzag delta.
		ref := lastRef
		bit, err := r.ReadBit()
		if err != nil {
			return dst, err
		}
		if !bit {
			ref++
		} else {
			if bit, err = r.ReadBit(); err != nil {
				return dst, err
			}
			if bit {
				zz, err := r.ReadUvarint()
				if err != nil {
					return dst, err
				}
				ref = uint64(int64(lastRef) + unzigzag(zz))
			}
		}
		lastRef = ref
		s := d.state(ref)
		var t int64
		var v float64
		switch s.n {
		case 0:
			if t, err = r.ReadVarint(); err != nil {
				return dst, err
			}
			vb, err := r.ReadBits(64)
			if err != nil {
				return dst, err
			}
			v = math.Float64frombits(vb)
		case 1:
			td, err := r.ReadUvarint()
			if err != nil {
				return dst, err
			}
			s.tDelta = td
			t = s.t + int64(td)
			if v, err = r.ReadXOR(s.v, &s.leading, &s.trailing); err != nil {
				return dst, err
			}
		default:
			dod, err := r.ReadDOD()
			if err != nil {
				return dst, err
			}
			s.tDelta = uint64(int64(s.tDelta) + dod)
			t = s.t + int64(s.tDelta)
			if v, err = r.ReadXOR(s.v, &s.leading, &s.trailing); err != nil {
				return dst, err
			}
		}
		s.t, s.v = t, v
		s.n++
		dst = append(dst, walSampleRec{ref: ref, t: t, v: v})
	}
	return dst, nil
}

// ---------------------------------------------------------------------------
// Block compression for series / tombstone payloads
// ---------------------------------------------------------------------------

// flateEnc bundles a DEFLATE encoder with its output buffer so both are
// pooled together: encoder state is large and the buffer would otherwise
// be a fresh allocation per record, and series records are written
// whenever a commit registers new series.
type flateEnc struct {
	bb bytes.Buffer
	fw *flate.Writer
}

var flateEncs = sync.Pool{
	New: func() any {
		fw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
		if err != nil {
			panic(err) // BestSpeed is a valid level; cannot happen
		}
		return &flateEnc{fw: fw}
	},
}

// appendCompressed appends raw to dst behind a one-byte flag: 1 = DEFLATE
// (fastest level), 0 = stored as-is because compression would have grown
// it. Small registrations stay raw; checkpoint-sized batches compress.
func appendCompressed(dst, raw []byte) []byte {
	e := flateEncs.Get().(*flateEnc)
	e.bb.Reset()
	e.fw.Reset(&e.bb)
	_, werr := e.fw.Write(raw)
	cerr := e.fw.Close()
	if werr == nil && cerr == nil && e.bb.Len() < len(raw) {
		dst = append(dst, 1)
		dst = append(dst, e.bb.Bytes()...)
	} else {
		dst = append(dst, 0)
		dst = append(dst, raw...)
	}
	flateEncs.Put(e)
	return dst
}

// flateDecs pools DEFLATE readers (each carries a ~32-64KB window): replay
// inflates one series record per registration batch, so a multi-million-
// series recovery would otherwise churn a reader per record on the
// latency-critical restart path.
var flateDecs = sync.Pool{
	New: func() any {
		return flate.NewReader(bytes.NewReader(nil))
	},
}

// walDecompress reverses appendCompressed. The output is bounded by
// walMaxPayload, like every decoded payload.
func walDecompress(payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("tsdb: wal v2 compressed payload empty")
	}
	flag, data := payload[0], payload[1:]
	switch flag {
	case 0:
		return data, nil
	case 1:
		fr := flateDecs.Get().(io.ReadCloser)
		if err := fr.(flate.Resetter).Reset(bytes.NewReader(data), nil); err != nil {
			flateDecs.Put(fr)
			return nil, fmt.Errorf("tsdb: wal v2 inflate reset: %w", err)
		}
		out, err := io.ReadAll(io.LimitReader(fr, walMaxPayload+1))
		cerr := fr.Close()
		flateDecs.Put(fr)
		if err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("tsdb: wal v2 inflate: %w", err)
		}
		if len(out) > walMaxPayload {
			return nil, fmt.Errorf("tsdb: wal v2 inflated payload exceeds %d bytes", walMaxPayload)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("tsdb: wal v2 unknown compression flag %d", flag)
	}
}
