package tsdb

// On-disk block directories.
//
// A persistent block is a directory holding exactly three files:
//
//	<ulid>/meta.json   block metadata (JSON; the commit point)
//	<ulid>/index       series index: labels + per-chunk metadata
//	<ulid>/chunks      Gorilla chunk segment, mmap'd by readers
//
// # index format (magic "CEEMSIDX", version 2)
//
//	magic [8]byte | version byte
//	base varint           the earliest chunk minT (0 with no chunk)
//	numSymbols uvarint, then per symbol: len uvarint + bytes
//	                      every label name and value once, strictly ascending
//	numSeries uvarint
//	per series, sorted by labels:
//	  numLabels uvarint, then per label: name id uvarint | value id uvarint
//	  numChunks uvarint, then per chunk:
//	    aggr byte | minT−prev uvarint | maxT−minT uvarint |
//	    length uvarint | numSamples uvarint
//	crc32 uint32 LE   Castagnoli, over everything before it
//
// An id is a position in the symbol table, so id order is string order. prev
// is base for the first chunk of a stream (a series' chunks of one
// aggregate) and the chunk before's maxT after it; the differences are taken
// modulo 2^64, so every int64 pair round-trips. A chunk's offset is not
// stored: the chunks file lays chunks out series-major in index order, so
// each starts where the one before ends, the first right after the header.
//
// Version 1, which blocks written before the symbol table carry, stores each
// label as len uvarint + name, len uvarint + value, and each chunk as
// aggr byte | minT varint | maxT varint | offset uvarint | length uvarint |
// numSamples uvarint, with no base and no symbol table. decodeIndex reads
// both; encodeIndex writes version 2 only.
//
// # chunks format (magic "CEEMSCHK", version 1)
//
//	magic [8]byte | version byte
//	per chunk: crc32 uint32 LE (of payload) | len uvarint | payload
//
// where payload is chunkenc.Chunk.Bytes() — the same Gorilla codec the WAL
// v2 samples records use. Index offsets point at the crc32 word; lengths
// cover crc+len+payload, so a reader can slice a chunk without parsing its
// neighbors.
//
// # crash-safety contract
//
// Blocks are written to `<ulid>.tmp/` first: chunks, then index, then
// meta.json, each fsynced through writeFileDurably; the tmp directory is
// fsynced, renamed to `<ulid>/`, and the parent directory fsynced. meta.json
// inside a non-tmp directory is therefore the commit point — a directory
// missing it, failing its CRCs, or still carrying the .tmp suffix is an
// aborted write and is deleted by openers. A crash at any byte of the write
// leaves either no block (the tmp dir is swept) or the complete block.

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/labels"
)

// AggrType identifies what a chunk stores: raw samples, or one downsampled
// aggregate of the samples in each resolution bucket.
type AggrType uint8

const (
	AggrRaw   AggrType = iota // raw samples (the only type in resolution-0 blocks)
	AggrSum                   // per-bucket sum of non-stale samples
	AggrCount                 // per-bucket count of non-stale samples
	AggrMin                   // per-bucket minimum
	AggrMax                   // per-bucket maximum
	AggrAvg                   // request-only: derived as sum/count, never stored
)

func (a AggrType) String() string {
	switch a {
	case AggrRaw:
		return "raw"
	case AggrSum:
		return "sum"
	case AggrCount:
		return "count"
	case AggrMin:
		return "min"
	case AggrMax:
		return "max"
	case AggrAvg:
		return "avg"
	}
	return fmt.Sprintf("aggr(%d)", uint8(a))
}

const (
	indexMagic  = "CEEMSIDX"
	chunksMagic = "CEEMSCHK"
	// blockDirVersion is meta.json's and the chunks file's format version;
	// indexVersion the index file's, which decodeIndex also reads at
	// indexVersionV1.
	blockDirVersion = 1
	indexVersion    = 2
	indexVersionV1  = 1

	// MetaFilename, IndexFilename and ChunksFilename are the three files of
	// a block directory. meta.json is written last and is the commit point.
	MetaFilename   = "meta.json"
	IndexFilename  = "index"
	ChunksFilename = "chunks"

	tmpDirSuffix = ".tmp"
)

// BlockStats summarizes a block's contents, recorded in meta.json.
type BlockStats struct {
	NumSeries  int `json:"numSeries"`
	NumChunks  int `json:"numChunks"`
	NumSamples int `json:"numSamples"`
}

// BlockMeta is the meta.json payload of a block directory.
type BlockMeta struct {
	// Version of the block-dir format (blockDirVersion).
	Version int `json:"version"`
	// ULID is the block's unique id — also its directory name.
	ULID string `json:"ulid"`
	// MinTime and MaxTime are the inclusive time bounds, Unix ms: a raw
	// block's first and last sample, a downsampled block's whole buckets.
	MinTime int64 `json:"minTime"`
	MaxTime int64 `json:"maxTime"`
	// Level counts compaction generations: 1 for a freshly cut block,
	// max(inputs)+1 after each compaction.
	Level int `json:"level"`
	// Resolution is the downsampling bucket width in ms; 0 means raw.
	Resolution int64 `json:"resolution"`
	// Sources names the ULIDs this block was compacted or downsampled from.
	Sources []string   `json:"sources,omitempty"`
	Stats   BlockStats `json:"stats"`
}

// diskChunk is one chunk's index entry as an open block keeps it: 32 bytes
// and no pointer, so a block's entries are one array the collector never
// scans. off and length locate the chunk in the chunks file. A chunk holds
// at most chunkenc's 65 535 samples, and no index that claims more, or a
// chunk of 4 GiB or more, opens (decodeIndex).
type diskChunk struct {
	minT, maxT int64
	off        uint64
	length     uint32
	numSamples uint16
	aggr       AggrType
}

// encodedChunk is a chunk on its way into a block: its entry, placed in the
// chunks file by encodeChunksStream, and its bytes.
type encodedChunk struct {
	diskChunk
	payload []byte
}

// diskSeries is one series of a block being written: its labels plus its
// chunks in time order (grouped by aggregate type for downsampled blocks).
type diskSeries struct {
	lset   labels.Labels
	chunks []encodedChunk
}

// seriesTable is a block's series as an open block keeps them: label-sorted,
// each holding its range of one array of label pair ids and of one array of
// chunk entries. No label set is kept: one is built (blockIndex.appendLabels)
// only for a series a read returns or a writer writes.
type seriesTable struct {
	series  []blockSeries
	ids     []uint32    // every series' labels as pair ids of index, series-major
	entries []diskChunk // every series' chunks, series-major in index order
	index   *blockIndex // postings, and what the pair ids stand for
}

// blockSeries is one series of an open block: its labels, ids[first:end] of
// its table, and its chunk entries, entries[lo:hi].
type blockSeries struct {
	first, end uint32
	lo, hi     uint32
}

// chunksOf returns the chunk entries of the series at pos.
func (t *seriesTable) chunksOf(pos uint32) []diskChunk {
	s := &t.series[pos]
	return t.entries[s.lo:s.hi]
}

// pairsOf returns the pair ids of the labels of the series at pos.
func (t *seriesTable) pairsOf(pos uint32) []uint32 {
	s := &t.series[pos]
	return t.ids[s.first:s.end]
}

// view returns the labels of the series at pos as a labelView.
func (t *seriesTable) view(pos uint32) labelView {
	return labelView{ids: t.pairsOf(pos), ix: t.index}
}

// labelsOf builds the label set of the series at pos.
func (t *seriesTable) labelsOf(pos uint32) labels.Labels {
	ids := t.pairsOf(pos)
	return t.index.appendLabels(make(labels.Labels, 0, len(ids)), ids)
}

var blockSeq atomic.Uint64

// newBlockULID returns a unique block id: wall-clock prefix for rough
// time-sortability, a process-local sequence and random bytes so concurrent
// writers (or a restarted process re-cutting the same range) never collide.
func newBlockULID() string {
	var rnd [4]byte
	rand.Read(rnd[:])
	return fmt.Sprintf("%016x-%04x-%08x", uint64(time.Now().UnixNano()), blockSeq.Add(1)&0xffff, binary.BigEndian.Uint32(rnd[:]))
}

// IsTmpBlockDir reports whether name is an aborted block write (sweep target).
func IsTmpBlockDir(name string) bool {
	return filepath.Ext(name) == tmpDirSuffix
}

// fillStats recomputes meta.Stats from the series set.
func fillStats(meta *BlockMeta, series []diskSeries) {
	st := BlockStats{NumSeries: len(series)}
	for i := range series {
		st.NumChunks += len(series[i].chunks)
		for _, c := range series[i].chunks {
			st.NumSamples += int(c.numSamples)
		}
	}
	meta.Stats = st
}

// encodeChunksStream writes the chunks file body to w and places every chunk
// entry of series in it (off, length). The caller has already decided the
// series order; chunks are laid out series-major in index order.
func encodeChunksStream(series []diskSeries, w *bufio.Writer) error {
	if _, err := w.WriteString(chunksMagic); err != nil {
		return err
	}
	if err := w.WriteByte(blockDirVersion); err != nil {
		return err
	}
	off := uint64(len(chunksMagic) + 1)
	var hdr [4]byte
	var vb [binary.MaxVarintLen64]byte
	for si := range series {
		for j := range series[si].chunks {
			c := &series[si].chunks[j]
			binary.LittleEndian.PutUint32(hdr[:], crc32.Checksum(c.payload, walCRC))
			n := binary.PutUvarint(vb[:], uint64(len(c.payload)))
			if _, err := w.Write(hdr[:]); err != nil {
				return err
			}
			if _, err := w.Write(vb[:n]); err != nil {
				return err
			}
			if _, err := w.Write(c.payload); err != nil {
				return err
			}
			// A chunk of at most 65 535 samples is far below 4 GiB.
			c.off, c.length = off, uint32(4+n+len(c.payload))
			off += uint64(c.length)
		}
	}
	return nil
}

// encodeIndex renders the index file (including trailing CRC) of series into
// a buffer, in version 2. Chunk lengths must already be filled in by
// encodeChunksStream; offsets follow from them.
func encodeIndex(series []diskSeries) []byte {
	ids := map[string]uint32{}
	base, chunked := int64(math.MaxInt64), false
	for i := range series {
		for _, l := range series[i].lset {
			ids[l.Name], ids[l.Value] = 0, 0
		}
		for _, c := range series[i].chunks {
			base, chunked = min(base, c.minT), true
		}
	}
	if !chunked {
		base = 0
	}
	symbols := slices.Sorted(maps.Keys(ids))
	var buf bytes.Buffer
	buf.WriteString(indexMagic)
	buf.WriteByte(indexVersion)
	var vb [binary.MaxVarintLen64]byte
	putU := func(u uint64) {
		n := binary.PutUvarint(vb[:], u)
		buf.Write(vb[:n])
	}
	buf.Write(vb[:binary.PutVarint(vb[:], base)])
	putU(uint64(len(symbols)))
	for i, sym := range symbols {
		ids[sym] = uint32(i)
		putU(uint64(len(sym)))
		buf.WriteString(sym)
	}
	putU(uint64(len(series)))
	for i := range series {
		s := &series[i]
		putU(uint64(len(s.lset)))
		for _, l := range s.lset {
			putU(uint64(ids[l.Name]))
			putU(uint64(ids[l.Value]))
		}
		putU(uint64(len(s.chunks)))
		prev := base
		for j := range s.chunks {
			c := &s.chunks[j].diskChunk
			if j > 0 && c.aggr != s.chunks[j-1].aggr {
				prev = base
			}
			buf.WriteByte(byte(c.aggr))
			putU(uint64(c.minT - prev))
			putU(uint64(c.maxT - c.minT))
			putU(uint64(c.length))
			putU(uint64(c.numSamples))
			prev = c.maxT
		}
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(buf.Bytes(), walCRC))
	buf.Write(crc[:])
	return buf.Bytes()
}

// indexReader consumes the body of an index file. It accepts only what
// encodeIndex writes — minimal varints, nothing after the last series — so a
// decoded index re-encodes to the bytes it came from.
type indexReader struct {
	b []byte
}

func (r *indexReader) uvarint() (uint64, error) {
	if len(r.b) > 0 && r.b[0] < 0x80 { // one byte: every string length, most counts
		u := uint64(r.b[0])
		r.b = r.b[1:]
		return u, nil
	}
	u, n := binary.Uvarint(r.b)
	if n <= 0 || r.b[n-1] == 0 {
		return 0, fmt.Errorf("tsdb: index varint truncated or not minimal")
	}
	r.b = r.b[n:]
	return u, nil
}

func (r *indexReader) varint() (int64, error) {
	u, err := r.uvarint()
	i := int64(u >> 1)
	if u&1 != 0 {
		i = ^i
	}
	return i, err
}

// count reads an element count and rejects one the remaining bytes cannot
// hold at minSize bytes an element: the CRC catches rot, not a wrong writer,
// and the count sizes an allocation.
func (r *indexReader) count(what string, minSize int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(r.b)/minSize) {
		return 0, fmt.Errorf("tsdb: index claims %d %s in %d bytes", n, what, len(r.b))
	}
	return int(n), nil
}

// str reads a length-prefixed string as a view of the input.
func (r *indexReader) str() ([]byte, error) {
	n, err := r.count("string bytes", 1)
	if err != nil {
		return nil, err
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s, nil
}

// symbols reads a version-2 symbol table: strictly ascending strings, each
// a substring of one copy of the table, so the block's label strings take
// one allocation whatever their number.
func (r *indexReader) symbols() ([]string, error) {
	n, err := r.count("symbols", 1)
	if err != nil {
		return nil, err
	}
	table := r.b
	var prev []byte
	for i := 0; i < n; i++ {
		sym, err := r.str()
		if err != nil {
			return nil, err
		}
		if i > 0 && bytes.Compare(prev, sym) >= 0 {
			return nil, fmt.Errorf("tsdb: index symbol %d out of order", i)
		}
		prev = sym
	}
	table = table[:len(table)-len(r.b)]
	all, syms := string(table), make([]string, n)
	again := indexReader{b: table}
	for i := range syms {
		sym, _ := again.str() // read once above
		end := len(table) - len(again.b)
		syms[i] = all[end-len(sym) : end]
	}
	return syms, nil
}

// decodeIndex parses an index file of either version, verifying magic,
// version, CRC and the order the read path relies on: label names ascending
// within a series, series ascending by labels, a series' chunks of one
// aggregate together, and builds the block's index over it. The versions
// differ in how a label names its strings and in how a chunk entry is
// coded; everything else is one walk.
//
// Every distinct label name and value is one string (copies, not views of
// data), and every distinct pair one pair id, shared by the series carrying
// it. A label is recognised by its pair of symbol ids — a version-1 file's
// strings are numbered as they first show — first against the label in the
// same place of the series before, which label order makes the same one
// more often than not, then in a map.
//
// The chunk entries go into one array, sized by chunks, the count meta.json
// records, when that is right; one of any other size is copied to the size
// it holds, and so is the array of pair ids, so an open block keeps no spare
// capacity.
func decodeIndex(data []byte, chunks int) (seriesTable, error) {
	hdr := len(indexMagic) + 1
	if len(data) < hdr+4 {
		return seriesTable{}, fmt.Errorf("tsdb: index truncated (%d bytes)", len(data))
	}
	if string(data[:len(indexMagic)]) != indexMagic {
		return seriesTable{}, fmt.Errorf("tsdb: bad index magic %q", data[:len(indexMagic)])
	}
	version := data[len(indexMagic)]
	if version != indexVersion && version != indexVersionV1 {
		return seriesTable{}, fmt.Errorf("tsdb: unsupported index version %d", version)
	}
	v1 := version == indexVersionV1
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, walCRC), binary.LittleEndian.Uint32(tail); got != want {
		return seriesTable{}, fmt.Errorf("tsdb: index crc mismatch (got %08x want %08x)", got, want)
	}
	r := &indexReader{b: body[hdr:]}
	var (
		base     int64
		syms     []string          // by symbol id
		symOf    map[string]uint32 // version 1: string -> symbol id
		chunkMin = 5               // a chunk entry's aggregate byte and four varints
		err      error
	)
	if v1 {
		symOf, chunkMin = map[string]uint32{}, 6
	} else {
		if base, err = r.varint(); err != nil {
			return seriesTable{}, err
		}
		if syms, err = r.symbols(); err != nil {
			return seriesTable{}, err
		}
	}
	// v1Symbol numbers a version-1 string the first time it shows.
	v1Symbol := func() (uint32, error) {
		b, err := r.str()
		if err != nil {
			return 0, err
		}
		id, ok := symOf[string(b)]
		if !ok {
			id = uint32(len(syms))
			syms = append(syms, string(b))
			symOf[syms[id]] = id
		}
		return id, nil
	}
	// A series is at least its two counts, a label its two lengths or ids.
	nSeries, err := r.count("series", 2)
	if err != nil {
		return seriesTable{}, err
	}
	if uint64(nSeries) > math.MaxUint32 {
		return seriesTable{}, fmt.Errorf("tsdb: index holds %d series, more than a block can address", nSeries)
	}
	var (
		series   = make([]blockSeries, nSeries)
		entries  = make([]diskChunk, 0, min(max(chunks, 0), len(r.b)/chunkMin))
		ids      []uint32              // the pair of every label of every series, in index order
		pairs    []labels.Label        // distinct, by pair id, in the order series first show them
		counts   []uint32              // series carrying each pair
		pairOf   = map[uint64]uint32{} // name id << 32 | value id -> pair id
		prev     []uint64              // the pair keys of the series before
		cur      []uint64
		off      = uint64(len(chunksMagic) + 1) // version 2: where the next chunk starts
		earliest = int64(math.MaxInt64)         // version 2: the earliest chunk minT
		chunked  bool
	)
	for i := range series {
		s := &series[i]
		nLabels, err := r.count("labels", 2)
		if err != nil {
			return seriesTable{}, err
		}
		if ids == nil {
			// Sized for every series to be like the first, which the bytes
			// left must be able to hold.
			ids = make([]uint32, 0, min(nLabels*nSeries, len(r.b)/2))
		}
		s.first = uint32(len(ids))
		var prevPairs []uint32 // the pair ids of the series before
		if i > 0 {
			prevPairs = ids[series[i-1].first:s.first]
		}
		cur = cur[:0]
		for j := 0; j < nLabels; j++ {
			var name, value uint32
			if v1 {
				if name, err = v1Symbol(); err != nil {
					return seriesTable{}, err
				}
				if value, err = v1Symbol(); err != nil {
					return seriesTable{}, err
				}
			} else {
				n, err := r.uvarint()
				if err != nil {
					return seriesTable{}, err
				}
				v, err := r.uvarint()
				if err != nil {
					return seriesTable{}, err
				}
				if n >= uint64(len(syms)) || v >= uint64(len(syms)) {
					return seriesTable{}, fmt.Errorf("tsdb: index series %d: symbol id beyond the %d symbols", i, len(syms))
				}
				name, value = uint32(n), uint32(v)
			}
			key := uint64(name)<<32 | uint64(value)
			var id uint32
			if j < len(prev) && key == prev[j] {
				id = prevPairs[j]
			} else if known, ok := pairOf[key]; ok {
				id = known
			} else {
				id = uint32(len(pairs))
				pairOf[key] = id
				pairs = append(pairs, labels.Label{Name: syms[name], Value: syms[value]})
				counts = append(counts, 0)
			}
			counts[id]++
			if j > 0 && pairs[ids[len(ids)-1]].Name >= pairs[id].Name {
				return seriesTable{}, fmt.Errorf("tsdb: index series %d: label names out of order", i)
			}
			ids = append(ids, id)
			cur = append(cur, key)
		}
		s.end = uint32(len(ids))
		prev, cur = cur, prev
		nChunks, err := r.count("chunks", chunkMin)
		if err != nil {
			return seriesTable{}, err
		}
		if uint64(len(entries)+nChunks) > math.MaxUint32 {
			return seriesTable{}, fmt.Errorf("tsdb: index holds more chunks than a block can address")
		}
		s.lo = uint32(len(entries))
		var aggrs uint64 // the aggregates of the series' chunks so far
		t := base        // version 2: what the next minT is coded against
		for j := 0; j < nChunks; j++ {
			var c diskChunk
			if len(r.b) == 0 {
				return seriesTable{}, fmt.Errorf("tsdb: index truncated in series %d", i)
			}
			c.aggr, r.b = AggrType(r.b[0]), r.b[1:]
			if j > 0 && c.aggr != entries[len(entries)-1].aggr {
				if aggrs&(1<<c.aggr) != 0 {
					return seriesTable{}, fmt.Errorf("tsdb: index series %d: its %s chunks are apart", i, c.aggr)
				}
				t = base
			}
			aggrs |= 1 << c.aggr
			if v1 {
				if c.minT, err = r.varint(); err != nil {
					return seriesTable{}, err
				}
				if c.maxT, err = r.varint(); err != nil {
					return seriesTable{}, err
				}
				if c.off, err = r.uvarint(); err != nil {
					return seriesTable{}, err
				}
			} else {
				d, err := r.uvarint()
				if err != nil {
					return seriesTable{}, err
				}
				span, err := r.uvarint()
				if err != nil {
					return seriesTable{}, err
				}
				c.minT = t + int64(d)
				c.maxT, c.off = c.minT+int64(span), off
				t, earliest, chunked = c.maxT, min(earliest, c.minT), true
			}
			length, err := r.uvarint()
			if err != nil {
				return seriesTable{}, err
			}
			ns, err := r.uvarint()
			if err != nil {
				return seriesTable{}, err
			}
			// The entry holds both in the widths a chunk can have: a larger
			// one is a wrong writer, not a count to read modulo 2^16.
			if ns > math.MaxUint16 {
				return seriesTable{}, fmt.Errorf("tsdb: index series %s: chunk %d claims %d samples, more than a chunk's %d", pairLabels(pairs, ids[s.first:]), j, ns, math.MaxUint16)
			}
			if length > math.MaxUint32 {
				return seriesTable{}, fmt.Errorf("tsdb: index series %s: chunk %d claims %d bytes, more than a chunk's 4 GiB", pairLabels(pairs, ids[s.first:]), j, length)
			}
			c.length, c.numSamples = uint32(length), uint16(ns)
			off += length
			entries = append(entries, c)
		}
		s.hi = uint32(len(entries))
	}
	if len(r.b) != 0 {
		return seriesTable{}, fmt.Errorf("tsdb: index has %d bytes after its last series", len(r.b))
	}
	if !v1 {
		// What encodeIndex would write for these series, it must have.
		if !chunked {
			earliest = 0
		}
		if base != earliest {
			return seriesTable{}, fmt.Errorf("tsdb: index time base %d is not its earliest chunk start %d", base, earliest)
		}
		used := make([]bool, len(syms))
		for key := range pairOf {
			used[key>>32], used[uint32(key)] = true, true
		}
		if k := slices.Index(used, false); k >= 0 {
			return seriesTable{}, fmt.Errorf("tsdb: index symbol %d names no label", k)
		}
	}
	if cap(entries) != len(entries) {
		entries = append([]diskChunk(nil), entries...)
	}
	if cap(ids) != len(ids) {
		ids = append([]uint32(nil), ids...)
	}
	t := seriesTable{series: series, ids: ids, entries: entries}
	t.index = newBlockIndex(&t, pairs, counts)
	// Numbered in label order, the ids of two series compare as their
	// label sets do.
	for i := 1; i < len(series); i++ {
		if slices.Compare(t.pairsOf(uint32(i-1)), t.pairsOf(uint32(i))) >= 0 {
			return seriesTable{}, fmt.Errorf("tsdb: index series %d out of label order", i)
		}
	}
	return t, nil
}

// pairLabels builds the label set of the pair ids ids of an index being
// decoded, for an error to name its series.
func pairLabels(pairs []labels.Label, ids []uint32) labels.Labels {
	ls := make(labels.Labels, len(ids))
	for j, id := range ids {
		ls[j] = pairs[id]
	}
	return ls
}

// writeBlockDir persists a block directory under parent following the
// crash-safety contract in the package comment (tmp dir → per-file fsync →
// dir fsync → rename → parent fsync) and returns the final path. meta.ULID
// is assigned when empty; meta.Version and meta.Stats are always filled.
func writeBlockDir(parent string, meta *BlockMeta, series []diskSeries) (dir string, err error) {
	if meta.ULID == "" {
		meta.ULID = newBlockULID()
	}
	meta.Version = blockDirVersion
	fillStats(meta, series)
	final := filepath.Join(parent, meta.ULID)
	tmp := final + tmpDirSuffix
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(tmp)
		}
	}()
	if err := writeFileDurably(filepath.Join(tmp, ChunksFilename), func(w *bufio.Writer) error {
		return encodeChunksStream(series, w)
	}); err != nil {
		return "", err
	}
	if err := writeFileDurably(filepath.Join(tmp, IndexFilename), func(w *bufio.Writer) error {
		_, werr := w.Write(encodeIndex(series))
		return werr
	}); err != nil {
		return "", err
	}
	mj, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return "", err
	}
	if err := writeFileDurably(filepath.Join(tmp, MetaFilename), func(w *bufio.Writer) error {
		_, werr := w.Write(mj)
		return werr
	}); err != nil {
		return "", err
	}
	if err := syncDir(tmp); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		return "", err
	}
	if err := syncDir(parent); err != nil {
		return "", err
	}
	return final, nil
}

// readBlockMeta loads and validates a block directory's meta.json.
func readBlockMeta(dir string) (BlockMeta, error) {
	var meta BlockMeta
	data, err := os.ReadFile(filepath.Join(dir, MetaFilename))
	if err != nil {
		return meta, err
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		return meta, fmt.Errorf("tsdb: %s: %w", filepath.Join(dir, MetaFilename), err)
	}
	if meta.Version != blockDirVersion {
		return meta, fmt.Errorf("tsdb: %s: unsupported block version %d", dir, meta.Version)
	}
	if meta.Resolution < 0 || meta.MinTime > meta.MaxTime {
		return meta, fmt.Errorf("tsdb: %s: resolution %d, time bounds [%d, %d]: not a block's", filepath.Join(dir, MetaFilename), meta.Resolution, meta.MinTime, meta.MaxTime)
	}
	return meta, nil
}
