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
	"math"
	"os"
	"path/filepath"
	"sync"

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
	dir    string // "" for in-memory blocks
	meta   BlockMeta
	series []diskSeries // sorted by labels; payloads nil, off/length set
	index  *blockIndex  // postings over series, built at open
	chunks []byte       // mmap'd (or in-memory) chunks file

	lifeMu sync.Mutex
	refs   int
	closed bool
	munmap func() error
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
	series, pairs, err := decodeIndex(idx)
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
	return &PersistentBlock{dir: dir, meta: meta, series: series, index: newBlockIndex(series, pairs), chunks: data, munmap: munmap}, nil
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
	series, pairs, err := decodeIndex(encodeIndex(series))
	if err != nil {
		return nil, err
	}
	return &PersistentBlock{meta: *meta, series: series, index: newBlockIndex(series, pairs), chunks: buf.Bytes(), munmap: func() error { return nil }}, nil
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

// decodeChunk extracts and validates one chunk from the segment.
func (pb *PersistentBlock) decodeChunk(c diskChunk) (*chunkenc.Chunk, error) {
	end := c.off + c.length
	if c.off < uint64(len(chunksMagic)+1) || end > uint64(len(pb.chunks)) || c.length < 5 {
		return nil, fmt.Errorf("tsdb: block %s: chunk ref out of bounds (off=%d len=%d segment=%d)", pb.meta.ULID, c.off, c.length, len(pb.chunks))
	}
	rec := pb.chunks[c.off:end]
	want := binary.LittleEndian.Uint32(rec[:4])
	plen, n := binary.Uvarint(rec[4:])
	if n <= 0 || uint64(4+n)+plen != c.length {
		return nil, fmt.Errorf("tsdb: block %s: chunk length mismatch at off=%d", pb.meta.ULID, c.off)
	}
	payload := rec[4+n:]
	if got := crc32.Checksum(payload, walCRC); got != want {
		return nil, fmt.Errorf("tsdb: block %s: chunk crc mismatch at off=%d (got %08x want %08x)", pb.meta.ULID, c.off, got, want)
	}
	return chunkenc.FromBytesNoCopy(payload)
}

// appendChunkRange decodes the samples of c in [mint, maxt] that f keeps
// (all of them when f is nil) onto dst.
func (pb *PersistentBlock) appendChunkRange(dst []model.Sample, c diskChunk, mint, maxt int64, f *model.StepFilter) ([]model.Sample, error) {
	ch, err := pb.decodeChunk(c)
	if err != nil {
		return dst, err
	}
	return appendChunk(dst, ch, mint, maxt, f)
}

// sampleHint is how many samples to reserve for chunk c: its indexed count,
// capped by what its bytes could possibly hold (a sample takes at least
// one bit, so a chunk of length bytes holds at most 8·length) and by the
// segment it must lie in — a corrupt count must not drive the allocation.
func (pb *PersistentBlock) sampleHint(c diskChunk) int {
	length := c.length
	if seg := uint64(len(pb.chunks)); length > seg {
		length = seg
	}
	if c.numSamples < 0 || uint64(c.numSamples) > 8*length {
		return int(8 * length)
	}
	return c.numSamples
}

// streamSamples decodes the samples in [mint, maxt] of one stored stream
// of s that f keeps (all of them when f is nil). The output is sized once
// from the index's sample counts, cut down to what f keeps: grown from nil,
// a month-long read spends more in growslice than in decoding. A chunk f
// keeps nothing of is neither counted nor decoded.
func (pb *PersistentBlock) streamSamples(s *diskSeries, want AggrType, mint, maxt int64, f *model.StepFilter) ([]model.Sample, error) {
	if maxt < mint {
		return nil, nil // an inverted window holds nothing; sizing assumes one that is not
	}
	if f != nil {
		pos := *f // this stream's own position in the steps
		f = &pos
	}
	// skip reports whether f keeps nothing of s.chunks[i], the stream's
	// chunk overlapping the window; the stream goes on at next.
	skip := func(i int) bool {
		if f == nil {
			return false
		}
		next := int64(math.MaxInt64)
		for _, n := range s.chunks[i+1:] {
			if n.aggr == want {
				if n.minT <= maxt {
					next = n.minT
				}
				break
			}
		}
		c := s.chunks[i]
		return f.Skips(max(c.minT, mint), min(c.maxT, maxt), next)
	}
	hint := 0
	for i, c := range s.chunks {
		if c.aggr != want || c.maxT < mint || c.minT > maxt || skip(i) {
			continue
		}
		if f == nil {
			hint += pb.sampleHint(c)
		} else {
			hint += f.Bound(pb.sampleHint(c), max(c.minT, mint), min(c.maxT, maxt))
		}
	}
	if hint == 0 {
		return nil, nil
	}
	out := make([]model.Sample, 0, hint)
	var err error
	for i, c := range s.chunks {
		if c.aggr != want || c.maxT < mint || c.minT > maxt || skip(i) {
			continue
		}
		if out, err = pb.appendChunkRange(out, c, mint, maxt, f); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// seriesSamples decodes one series' samples in [mint, maxt] for the
// requested aggregate, those f keeps (all of them when f is nil); a
// downsampled point is kept or dropped by its timestamp, the end of its
// bucket, as a raw sample is. Raw blocks serve raw samples whatever was asked
// (raw is exact for every aggregate). On downsampled blocks AggrAvg — and
// AggrRaw, for callers that don't know the block is downsampled — derives
// sum/count; other aggregates decode their stored stream.
func (pb *PersistentBlock) seriesSamples(s *diskSeries, mint, maxt int64, aggr AggrType, f *model.StepFilter) ([]model.Sample, error) {
	if pb.meta.Resolution == 0 {
		return pb.streamSamples(s, AggrRaw, mint, maxt, f)
	}
	switch aggr {
	case AggrSum, AggrCount, AggrMin, AggrMax:
		return pb.streamSamples(s, aggr, mint, maxt, f)
	default: // AggrAvg and AggrRaw: derived average, the documented representative value
		// The two streams carry the same timestamps, so f keeps the same of
		// each.
		sums, err := pb.streamSamples(s, AggrSum, mint, maxt, f)
		if err != nil {
			return nil, err
		}
		counts, err := pb.streamSamples(s, AggrCount, mint, maxt, f)
		if err != nil {
			return nil, err
		}
		if len(sums) != len(counts) {
			return nil, fmt.Errorf("tsdb: block %s: sum/count streams disagree (%d vs %d points)", pb.meta.ULID, len(sums), len(counts))
		}
		out := sums[:0]
		for i := range sums {
			if sums[i].T != counts[i].T || counts[i].V == 0 {
				return nil, fmt.Errorf("tsdb: block %s: sum/count streams misaligned at %d", pb.meta.ULID, sums[i].T)
			}
			out = append(out, model.Sample{T: sums[i].T, V: sums[i].V / counts[i].V})
		}
		return out, nil
	}
}

// SelectAggr returns the block's series overlapping [mint, maxt] that
// satisfy the matchers, in label order, decoded for the requested aggregate
// (see seriesSamples for the raw/downsampled semantics) and trimmed by the
// step filter f, when not nil: a series f keeps nothing of is left out. When
// limit > 0 the decode aborts with model.ErrSampleLimit as soon as more than
// limit samples have been copied.
func (pb *PersistentBlock) SelectAggr(mint, maxt, limit int64, aggr AggrType, f *model.StepFilter, ms ...*labels.Matcher) ([]model.Series, error) {
	var (
		out    []model.Series
		copied int64
		err    error
	)
	pb.forMatching(ms, func(pos uint32) bool {
		s := &pb.series[pos]
		var samples []model.Sample
		if samples, err = pb.seriesSamples(s, mint, maxt, aggr, f); err != nil || len(samples) == 0 {
			return err == nil
		}
		copied += int64(len(samples))
		if limit > 0 && copied > limit {
			err = model.ErrSampleLimit
			return false
		}
		out = append(out, model.Series{Labels: s.lset, Samples: samples})
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// forMatching calls visit, in label order, with the position of every
// series that satisfies ms, until visit returns false. Matchers resolve
// against the block index by the head's rules (postingsFor): only the
// series every list holds are visited, and only matchers no list narrows
// walk the whole block.
func (pb *PersistentBlock) forMatching(ms []*labels.Matcher, visit func(pos uint32) bool) {
	lists, filters, ok := postingsFor(nil, ms, pb.index.postings)
	if !ok {
		return
	}
	match := func(pos uint32) bool {
		return !labels.MatchLabels(pb.series[pos].lset, filters...) || visit(pos)
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

// LabelNames returns the sorted label names the block's series carry. The
// slice is the block's own; callers must not modify it.
func (pb *PersistentBlock) LabelNames() []string { return pb.index.names }

// LabelValues returns the sorted distinct values of a label name in the
// block. The slice is the block's own; callers must not modify it.
func (pb *PersistentBlock) LabelValues(name string) []string { return pb.index.labelValues(name) }

// appendStream decodes onto dst every sample of s's chunks storing aggr,
// each chunk within its indexed bounds — one whole stream, the unit
// compaction and downsampling read.
func (pb *PersistentBlock) appendStream(dst []model.Sample, s *diskSeries, aggr AggrType) ([]model.Sample, error) {
	var err error
	for _, c := range s.chunks {
		if c.aggr != aggr {
			continue
		}
		if dst, err = pb.appendChunkRange(dst, c, c.minT, c.maxT, nil); err != nil {
			return dst, err
		}
	}
	return dst, nil
}
