package tsdb

// Read path for on-disk block directories (format: blockdir.go).
//
// OpenBlockDir validates meta.json and the index CRC eagerly, mmaps the
// chunk segment, and returns a PersistentBlock whose chunks decode lazily
// per query — a Select touches only the chunks whose time bounds intersect
// the window, and a CRC failure there surfaces as an error, never as
// silently wrong samples. PersistentBlock handles are reference-counted
// (Retain/Release): Close marks the block dead but the munmap is deferred
// until the last in-flight reader releases, which is what lets the store's
// compactor retire source blocks while queries still hold them.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb/chunkenc"
)

// PersistentBlock is a read handle on one block directory: the parsed index
// resident in memory, the chunk segment mmap'd (or heap-resident for
// store-less in-memory blocks). Chunks are decoded lazily per query via
// chunkenc.FromBytesNoCopy, so a Select touches only the pages of the
// chunks it actually reads.
//
// All methods are safe for concurrent use. A reader that may race Close
// (the compactor retires source blocks while queries are in flight) brackets
// its reads with Retain/Release; Close defers the munmap until the last
// retainer releases, so a mapped chunk slice can never be yanked mid-decode.
type PersistentBlock struct {
	dir  string // "" for in-memory blocks
	meta BlockMeta
	// The series, their labels as pair ids and their chunk entries, and the
	// index over them.
	seriesTable
	chunks []byte // mmap'd (or in-memory) chunks file

	lifeMu sync.Mutex
	refs   int
	closed bool
	munmap func() error

	// deleted is what the tombstone log a read last brought deletes of the
	// block (deletedBy): resolved once per block per change of the log.
	deleted atomic.Pointer[blockDeletions]
}

// blockDeletions is deletions(b, log.recs), keyed by the log it resolved.
type blockDeletions struct {
	log *tombLog
	at  []deletion
}

// OpenBlockDir opens a block directory written by writeBlockDir, validating
// meta.json, the index magic/version/CRC and the chunks file header.
// Per-chunk CRCs are verified lazily on decode.
func OpenBlockDir(dir string) (*PersistentBlock, error) {
	meta, err := readBlockMeta(dir)
	if err != nil {
		return nil, err
	}
	idx, err := os.ReadFile(filepath.Join(dir, IndexFilename))
	if err != nil {
		return nil, err
	}
	table, err := decodeIndex(idx, meta.Stats.NumChunks)
	if err != nil {
		return nil, fmt.Errorf("tsdb: %s: %w", dir, err)
	}
	data, munmap, err := mmapFile(filepath.Join(dir, ChunksFilename))
	if err != nil {
		return nil, err
	}
	hdr := len(chunksMagic) + 1
	if len(data) < hdr || string(data[:len(chunksMagic)]) != chunksMagic || data[len(chunksMagic)] != blockDirVersion {
		munmap()
		return nil, fmt.Errorf("tsdb: %s: bad chunks header", dir)
	}
	// The writer lays every chunk out once, so the index references no more
	// bytes than the segment holds; one that does would have a read decode
	// the same bytes again and again.
	left := uint64(len(data) - hdr)
	for _, c := range table.entries {
		if uint64(c.length) > left {
			munmap()
			return nil, fmt.Errorf("tsdb: %s: index references more chunk bytes than the %d of the chunks file", dir, len(data))
		}
		left -= uint64(c.length)
	}
	return &PersistentBlock{dir: dir, meta: meta, seriesTable: table, chunks: data, munmap: munmap}, nil
}

// newMemPersistentBlock assembles a PersistentBlock entirely in memory —
// the store-less (dir == "") path used by tests and the in-process cluster
// sim. The chunk payloads are laid out in one buffer exactly as the chunks
// file would be, so read paths are identical to the mmap case.
func newMemPersistentBlock(meta *BlockMeta, series []diskSeries) (*PersistentBlock, error) {
	if meta.ULID == "" {
		meta.ULID = newBlockULID()
	}
	meta.Version = blockDirVersion
	fillStats(meta, series)
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := encodeChunksStream(series, w); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	// Through the index encoding and back, as a directory block's would go:
	// one way to an open block, whichever kind it is.
	table, err := decodeIndex(encodeIndex(series), meta.Stats.NumChunks)
	if err != nil {
		return nil, err
	}
	return &PersistentBlock{meta: *meta, seriesTable: table, chunks: buf.Bytes(), munmap: func() error { return nil }}, nil
}

// Meta returns the block's metadata.
func (pb *PersistentBlock) Meta() BlockMeta { return pb.meta }

// Dir returns the block's directory path ("" for in-memory blocks).
func (pb *PersistentBlock) Dir() string { return pb.dir }

// MinTime returns the block's inclusive minimum sample time.
func (pb *PersistentBlock) MinTime() int64 { return pb.meta.MinTime }

// MaxTime returns the block's inclusive maximum sample time.
func (pb *PersistentBlock) MaxTime() int64 { return pb.meta.MaxTime }

// NumSamples returns the total raw-equivalent sample count (for raw blocks,
// the stored samples; for downsampled blocks, the stored aggregate points).
func (pb *PersistentBlock) NumSamples() int { return pb.meta.Stats.NumSamples }

// Retain marks a reader active, blocking the munmap until Release. It
// reports false when the block is already closed (the caller must skip it).
func (pb *PersistentBlock) Retain() bool {
	pb.lifeMu.Lock()
	defer pb.lifeMu.Unlock()
	if pb.closed {
		return false
	}
	pb.refs++
	return true
}

// Release ends a Retain; the last release after Close performs the munmap.
func (pb *PersistentBlock) Release() {
	pb.lifeMu.Lock()
	pb.refs--
	var m func() error
	if pb.closed && pb.refs == 0 {
		m, pb.munmap = pb.munmap, nil
	}
	pb.lifeMu.Unlock()
	if m != nil {
		m()
	}
}

// Close marks the block dead and releases the chunk mapping — immediately
// when no reader holds a Retain, otherwise on the last Release.
func (pb *PersistentBlock) Close() error {
	pb.lifeMu.Lock()
	pb.closed = true
	var m func() error
	if pb.refs == 0 {
		m, pb.munmap = pb.munmap, nil
	}
	pb.lifeMu.Unlock()
	if m != nil {
		return m()
	}
	return nil
}

// decodeChunk extracts and validates one chunk from the segment. The chunk
// comes back by value, aliasing the segment: a read allocates nothing per
// chunk.
func (pb *PersistentBlock) decodeChunk(c *diskChunk) (chunkenc.Chunk, error) {
	// Bounds without forming off+length, which a corrupt index can overflow.
	seg, length := uint64(len(pb.chunks)), uint64(c.length)
	if c.off < uint64(len(chunksMagic)+1) || length < 5 || length > seg || c.off > seg-length {
		return chunkenc.Chunk{}, fmt.Errorf("tsdb: block %s: chunk ref out of bounds (off=%d len=%d segment=%d)", pb.meta.ULID, c.off, c.length, len(pb.chunks))
	}
	rec := pb.chunks[c.off : c.off+length]
	want := binary.LittleEndian.Uint32(rec[:4])
	plen, n := binary.Uvarint(rec[4:])
	if n <= 0 || uint64(4+n)+plen != length {
		return chunkenc.Chunk{}, fmt.Errorf("tsdb: block %s: chunk length mismatch at off=%d", pb.meta.ULID, c.off)
	}
	payload := rec[4+n:]
	if got := crc32.Checksum(payload, walCRC); got != want {
		return chunkenc.Chunk{}, fmt.Errorf("tsdb: block %s: chunk crc mismatch at off=%d (got %08x want %08x)", pb.meta.ULID, c.off, got, want)
	}
	return chunkenc.FromBytesNoCopy(payload)
}

// sampleHint is how many samples to reserve for chunk c: its indexed count,
// capped by what its bytes could possibly hold (a sample takes at least
// one bit, so a chunk of length bytes holds at most 8·length) and by the
// segment it must lie in — a corrupt count must not drive the allocation.
func (pb *PersistentBlock) sampleHint(c *diskChunk) int {
	length := min(uint64(c.length), uint64(len(pb.chunks)))
	if uint64(c.numSamples) > 8*length {
		return int(8 * length)
	}
	return int(c.numSamples)
}

// forMatching calls visit, in label order, with the position of every
// series that satisfies ms, until visit returns false. Matchers resolve
// against the block index by the head's rules (postingsFor): only the
// series every list holds are visited, and only matchers no list narrows
// walk the whole block, matched against each series' pair ids.
func (pb *PersistentBlock) forMatching(ms []*labels.Matcher, visit func(pos uint32) bool) {
	var buf [4][]uint32
	lists, filters, ok := postingsFor(buf[:0], ms, pb.index.postings)
	if !ok {
		return
	}
	var fbuf [4]pairFilter
	fs := pb.index.filters(fbuf[:0], filters)
	match := func(pos uint32) bool {
		return !pb.index.matches(pb.pairsOf(pos), fs) || visit(pos)
	}
	if len(lists) > 0 {
		intersectPostings(lists, match)
		return
	}
	for pos := range pb.series {
		if !match(uint32(pos)) {
			return
		}
	}
}

// deletedBy lists what log deletes of the block's series (deletions),
// resolving the log against the block's index only when it is not the log
// the block last resolved. A log that only adds tombstones to that one, as
// every delete makes, costs the resolution of the added ones and, when they
// delete a sample of the block, a merge; one that dropped some
// (RetireTombstones) is resolved afresh.
func (pb *PersistentBlock) deletedBy(log *tombLog) []deletion {
	last := pb.deleted.Load()
	if last == nil {
		last = &blockDeletions{log: new(tombLog)}
	}
	if last.log == log {
		return last.at
	}
	at := last.at
	added, ok := log.addedSince(last.log)
	if !ok {
		at, added = nil, log.recs
	}
	if fresh := deletions(pb, added); len(fresh) > 0 {
		at = mergeDeletions(at, fresh)
	}
	pb.deleted.Store(&blockDeletions{log: log, at: at})
	return at
}

// HoldsDeleted reports whether the block holds a sample some tombstone of
// tombs deletes: a sample (or, in a downsampled block, a bucket's point) at
// or before the tombstone's maxt of a series it matches.
func (pb *PersistentBlock) HoldsDeleted(tombs []TombstoneRec) bool {
	return len(deletions(pb, tombs)) > 0
}

// LabelNames returns the sorted label names the block's series carry. The
// slice is the block's own; callers must not modify it.
func (pb *PersistentBlock) LabelNames() []string { return pb.index.names }

// LabelValues returns the sorted distinct values of a label name in the
// block. The slice is the block's own; callers must not modify it.
func (pb *PersistentBlock) LabelValues(name string) []string { return pb.index.labelValues(name) }

// stream is the chunks of the series at pos storing aggr, which stand
// together (decodeIndex).
func (pb *PersistentBlock) stream(pos uint32, aggr AggrType) stream {
	chunks := pb.chunksOf(pos)
	lo := 0
	for lo < len(chunks) && chunks[lo].aggr != aggr {
		lo++
	}
	hi := lo
	for hi < len(chunks) && chunks[hi].aggr == aggr {
		hi++
	}
	return stream{block: pb, disk: chunks[lo:hi]}
}

// appendStream decodes onto dst the samples in [mint, maxt] of the chunks of
// the series at pos storing aggr: the unit compaction and downsampling read.
func (pb *PersistentBlock) appendStream(dst []model.Sample, pos uint32, aggr AggrType, mint, maxt int64) ([]model.Sample, error) {
	dst, _, err := pb.stream(pos, aggr).read(dst, mint, maxt, nil, false)
	return dst, err
}
