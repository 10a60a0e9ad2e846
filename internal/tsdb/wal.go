package tsdb

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/labels"
)

// Per-shard write-ahead log.
//
// Each head shard journals its own appends to an independent segmented WAL
// under <WALDir>/shard-<i>/, mirroring how the shard owns its series map and
// postings: the hot path takes the shard's WAL mutex and nothing else, so
// durability adds no cross-shard locks. A batch Appender commit produces one
// buffered write + flush per shard per scrape.
//
// On-disk format (all integers little-endian unless varint):
//
//	record  := type(1) | payloadLen(uint32) | crc32c(payload)(uint32) | payload
//	series  := count uvarint, then per series:
//	           ref uvarint, nLabels uvarint, {len uvarint + name bytes,
//	           len uvarint + value bytes} per label
//	samples := count uvarint, then per sample:
//	           ref uvarint, t varint, value float64 bits (8 bytes)
//	deletes := count uvarint, then ref uvarint per deleted series
//
// That is format v1: self-describing, raw payloads. It is a replay-only
// format now: every file the head writes is format v2 (walv2.go) — a 5-byte
// magic+version header, then the same framing with Gorilla-encoded samples
// records, block-compressed series records and raw tombstone records
// (type 9, tombstones.go). No build writes deletes records any more: replay
// reads them, types 3 and 6, from older journals. The format
// is sniffed per file, so a journal written before v2 existed still opens:
// its v1 files replay next to the v2 segments appended after them, and the
// next checkpoint folds them into a v2 snapshot. Nothing is rewritten in
// place.
//
// Segments are numbered 00000001.wal, 00000002.wal, ... and rotate at
// Options.WALSegmentSize. A checkpoint (run per shard by Truncate) streams
// checkpoint.snap — a full snapshot of the shard's retained series and
// samples in the same record format, written series-by-series through a
// buffered writer so the resident cost is O(series), not O(shard bytes) —
// fsyncs it into place, and then drops every segment that predates it, so
// the WAL stays bounded by head size.
//
// Replay (walreplay.go) tolerates a torn final record per file: the file is
// truncated back to the last whole record and recovery continues, exactly
// like Prometheus's WAL repair.

const (
	walRecSeries  byte = 1
	walRecSamples byte = 2
	walRecDeletes byte = 3

	// walHeaderSize is type + payload length + payload CRC.
	walHeaderSize = 1 + 4 + 4

	// walMaxPayload is the decoder's sanity bound on a record payload; a
	// longer length is treated as corruption, not an allocation request.
	walMaxPayload = 1 << 30

	walMetaFile       = "wal-meta.json"
	walCheckpointFile = "checkpoint.snap"

	// DefaultWALSegmentSize rotates segments at 4 MiB, small enough that
	// checkpoints delete files promptly and large enough to amortize file
	// creation.
	DefaultWALSegmentSize = 4 << 20
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// walSeriesRec is one series registration: a shard-local WAL ref bound to a
// label set. Samples reference the ref, never the labels.
type walSeriesRec struct {
	ref  uint64
	lset labels.Labels
}

// walSampleRec is one journalled sample.
type walSampleRec struct {
	ref uint64
	t   int64
	v   float64
}

// shardWAL is the journal of one head shard. Its mutex serializes every
// append to the shard's memory AND the matching WAL write, so the log order
// per series always matches the in-memory apply order — replay cannot be
// tricked into out-of-order skips by concurrent writers.
type shardWAL struct {
	mu       sync.Mutex
	dir      string
	segLimit int64

	// walRecEncoder carries the Gorilla encoder state of the OPEN SEGMENT;
	// rotation resets it. Checkpoint files get their own encoder — their
	// state must not leak into the segment's.
	walRecEncoder

	f        *os.File
	bw       *bufio.Writer
	closed   bool  // set by Close: every later write fails with ErrClosed
	segIndex int   // index of the open segment
	firstSeg int   // oldest segment still on disk
	segBytes int64 // bytes written to the open segment
	nextRef  uint64
	buf      []byte         // scratch encode buffer, reused across commits
	recs     []walSampleRec // commitShard's sample staging, reused likewise

	records     atomic.Uint64 // records written since open
	checkpoints atomic.Uint64

	// metrics shares the DB's instrumentation (nil = uninstrumented); the
	// write paths branch on it once per flush/fsync.
	metrics *tsdbMetrics
}

// walRecEncoder frames v2 samples and series records: Gorilla samples,
// block-compressed series. enc is the per-file Gorilla state.
type walRecEncoder struct {
	enc     *walV2Enc
	scratch []byte // staging buffer for payloads compressed as a block
}

func (e *walRecEncoder) appendSeriesRecord(dst []byte, recs []walSeriesRec) []byte {
	e.scratch = encodeSeriesPayload(e.scratch[:0], recs)
	return appendFramed(dst, walRecSeriesV2, func(b []byte) []byte { return appendCompressed(b, e.scratch) })
}

func (e *walRecEncoder) appendSamplesRecord(dst []byte, recs []walSampleRec) []byte {
	return appendFramed(dst, walRecSamplesV2, func(b []byte) []byte { return e.enc.appendSamples(b, recs) })
}

func walShardDir(walDir string, shard int) string {
	return filepath.Join(walDir, fmt.Sprintf("shard-%04d", shard))
}

func walSegName(dir string, index int) string {
	return filepath.Join(dir, fmt.Sprintf("%08d.wal", index))
}

// openShardWAL creates (or continues) the journal of one shard, opening a
// fresh segment with the given index. Replay always hands over a new
// segment index so a possibly-repaired tail file is never appended to.
func openShardWAL(dir string, segLimit int64, segIndex, firstSeg int, nextRef uint64) (*shardWAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if segLimit <= 0 {
		segLimit = DefaultWALSegmentSize
	}
	w := &shardWAL{dir: dir, segLimit: segLimit, segIndex: segIndex, firstSeg: firstSeg, nextRef: nextRef}
	if err := w.openSegmentLocked(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *shardWAL) openSegmentLocked() error {
	f, err := os.OpenFile(walSegName(w.dir, w.segIndex), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 64*1024)
	// The v2 header travels with the first flushed record; a crash before
	// then leaves an empty file or a magic prefix, both of which replay as
	// zero records. Gorilla state starts fresh with the file.
	w.bw.Write(walFileHeader[:])
	w.segBytes = walFileHeaderLen
	w.enc = newWalV2Enc()
	return nil
}

// refForLocked returns the series' WAL ref, assigning one on first use.
// walRef is guarded by the shard WAL mutex: every writer holds it, and
// replay runs before any writer exists.
func (w *shardWAL) refForLocked(s *memSeries) (ref uint64, isNew bool) {
	if s.walRef != 0 {
		return s.walRef, false
	}
	w.nextRef++
	s.walRef = w.nextRef
	return s.walRef, true
}

// appendFramed frames one record onto dst: it reserves the header, lets enc
// append the payload in place, then backfills length and CRC — no payload
// staging buffer, no copy.
func appendFramed(dst []byte, typ byte, enc func([]byte) []byte) []byte {
	start := len(dst)
	dst = append(dst, typ, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = enc(dst)
	payload := dst[start+walHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start+1:start+5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+5:start+9], crc32.Checksum(payload, walCRC))
	return dst
}

func appendUvarint(dst []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return append(dst, buf[:n]...)
}

func encodeSeriesPayload(dst []byte, recs []walSeriesRec) []byte {
	dst = appendUvarint(dst, uint64(len(recs)))
	for _, r := range recs {
		dst = appendUvarint(dst, r.ref)
		dst = appendUvarint(dst, uint64(len(r.lset)))
		for _, l := range r.lset {
			dst = appendUvarint(dst, uint64(len(l.Name)))
			dst = append(dst, l.Name...)
			dst = appendUvarint(dst, uint64(len(l.Value)))
			dst = append(dst, l.Value...)
		}
	}
	return dst
}

// logLocked journals one commit's worth of records — new series first, then
// samples — as one buffered write followed by one flush. The caller holds
// w.mu.
func (w *shardWAL) logLocked(series []walSeriesRec, samples []walSampleRec) error {
	if len(series) == 0 && len(samples) == 0 {
		return nil
	}
	if err := w.readyLocked(); err != nil {
		return err
	}
	w.buf = w.buf[:0]
	nrec := uint64(0)
	if len(series) > 0 {
		w.buf = w.appendSeriesRecord(w.buf, series)
		nrec++
	}
	if len(samples) > 0 {
		w.buf = w.appendSamplesRecord(w.buf, samples)
		nrec++
	}
	var ioStart time.Time
	if w.metrics != nil {
		ioStart = time.Now()
	}
	if _, err := w.bw.Write(w.buf); err != nil {
		return fmt.Errorf("tsdb: wal append: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("tsdb: wal flush: %w", err)
	}
	if w.metrics != nil {
		w.metrics.walFlushSeconds.ObserveSince(ioStart)
		w.metrics.walFlushBytes.Add(uint64(len(w.buf)))
	}
	w.segBytes += int64(len(w.buf))
	w.records.Add(nrec)
	return nil
}

// readyLocked readies the open segment for the next record. It fails with
// ErrClosed once Close has run: a write then would be acknowledged but
// never flushed, after the directory lock is released. A previous rotation
// that closed the old segment but failed to open the next one (e.g.
// transient ENOSPC) is retried here instead of writing through a nil
// writer. It rotates BEFORE the caller encodes: the v2 Gorilla encoder
// state is per segment, so a record must be encoded against the state of
// the file it will land in (rotation resets the state).
func (w *shardWAL) readyLocked() error {
	if w.closed {
		return ErrClosed
	}
	if w.f == nil {
		if err := w.openSegmentLocked(); err != nil {
			return err
		}
	}
	if w.segBytes >= w.segLimit {
		return w.rotateLocked()
	}
	return nil
}

// rotateLocked closes the current segment (flushed and fsynced — a closed
// segment is durable) and opens the next one.
func (w *shardWAL) rotateLocked() error {
	if err := w.closeSegmentLocked(); err != nil {
		return err
	}
	w.segIndex++
	return w.openSegmentLocked()
}

func (w *shardWAL) closeSegmentLocked() error {
	if w.f == nil {
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	var syncStart time.Time
	if w.metrics != nil {
		syncStart = time.Now()
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if w.metrics != nil {
		w.metrics.walFsyncSeconds.ObserveSince(syncStart)
	}
	err := w.f.Close()
	w.f, w.bw = nil, nil
	return err
}

// Close flushes and fsyncs the open segment and refuses every later write.
func (w *shardWAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	return w.closeSegmentLocked()
}

// checkpoint makes the shard's current retained state durable and bounded:
// it rotates the open segment, streams a full snapshot of the shard (series
// registrations plus every retained sample, in normal record format) to
// checkpoint.snap via tmp + fsync + rename + directory sync, and only then
// deletes all segments that predate the rotation. A crash at any point
// leaves either the old segments or the complete new snapshot on disk —
// never neither — so acknowledged writes survive any interleaving.
//
// The snapshot is written series-by-series through a buffered writer: the
// resident cost is the series pointer slice plus one series' samples, not
// the whole shard's encoded bytes.
//
// Commits to this shard block for the duration (they take w.mu); other
// shards are unaffected.
//
// tombs supplies the DB's live tombstone log and is called AFTER w.mu is
// held: a delete records its tombstone in the log before journalling it
// under w.mu, so any live tombstone whose record lives in a segment this
// checkpoint deletes is guaranteed to be in the snapshot.
func (w *shardWAL) checkpoint(sh *headShard, tombs func() []TombstoneRec) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}

	// Rotate first: everything committed before this point lives in
	// segments [firstSeg, old], everything after goes to the new segment.
	// The snapshot below captures at least the pre-rotation state; samples
	// that race in after rotation appear in both the snapshot and the new
	// segment, and replay deduplicates them via the out-of-order skip.
	if err := w.rotateLocked(); err != nil {
		return err
	}
	oldLast := w.segIndex - 1

	final := filepath.Join(w.dir, walCheckpointFile)
	tmp := final + ".tmp"
	// w.mu excludes every writer to this shard, so the series/sample view
	// is coherent with the rotated-away segments.
	err := writeFileDurably(tmp, func(dst *bufio.Writer) error {
		return streamShardSnapshot(dst, sh, tombs(), func(s *memSeries) uint64 {
			ref, _ := w.refForLocked(s)
			return ref
		})
	})
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	if err := syncDir(w.dir); err != nil {
		return err
	}
	for i := w.firstSeg; i <= oldLast; i++ {
		if err := os.Remove(walSegName(w.dir, i)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	w.firstSeg = w.segIndex
	w.checkpoints.Add(1)
	return nil
}

// writeFileDurably creates path, hands a buffered writer to fill, then
// flushes and fsyncs before closing — the write-side half of the
// tmp+rename+dir-sync discipline. The file is removed on any error.
func writeFileDurably(path string, fill func(*bufio.Writer) error) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(path)
		return err
	}
	bw := bufio.NewWriterSize(f, 256*1024)
	if err := fill(bw); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	// The contents must be on stable storage before the caller's rename
	// publishes the file and before any data it replaces is unlinked.
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}

// walSnapshotSeriesBatch is how many series registrations share one series
// record in a snapshot: large enough to amortize framing (and give the
// block compressor something to chew on), small enough to keep the encode
// buffer a rounding error next to the shard.
const walSnapshotSeriesBatch = 256

// streamShardSnapshot writes a full snapshot of the shard — the DB's live
// tombstone log first, then every retained series registration, then one
// samples record per series — to dst as one v2 file; refFor supplies
// (or assigns) the WAL ref per series. Series go in ref order, those
// without a ref yet last, in label order, which is the order refFor hands
// them theirs: the same head state always snapshots to the same bytes.
// Tombstones go first so replay restores the log (and deletes nothing — the
// snapshot's series were registered after every tombstone in it and must
// survive). Memory stays
// O(series + one series' samples): registrations are framed in batches of
// walSnapshotSeriesBatch and each series' samples are encoded into a reused
// buffer, never the whole shard at once. Callers must exclude concurrent
// WAL writers to the shard.
func streamShardSnapshot(dst io.Writer, sh *headShard, tombs []TombstoneRec, refFor func(*memSeries) uint64) error {
	if _, err := dst.Write(walFileHeader[:]); err != nil {
		return err
	}
	sh.mu.RLock()
	series := make([]*memSeries, 0, len(sh.byRef))
	for _, s := range sh.byRef {
		series = append(series, s)
	}
	sh.mu.RUnlock()
	slices.SortFunc(series, func(a, b *memSeries) int {
		if (a.walRef == 0) != (b.walRef == 0) {
			return cmp.Compare(b.walRef, a.walRef) // the one with a ref first
		}
		if c := cmp.Compare(a.walRef, b.walRef); c != 0 {
			return c
		}
		return labels.Compare(a.lset, b.lset)
	})

	enc := walRecEncoder{enc: newWalV2Enc()}
	var buf []byte
	for _, tr := range tombs {
		buf = appendTombstoneRecord(buf[:0], tr)
		if _, err := dst.Write(buf); err != nil {
			return err
		}
	}
	srecs := make([]walSeriesRec, 0, walSnapshotSeriesBatch)
	flushSeries := func() error {
		if len(srecs) == 0 {
			return nil
		}
		buf = enc.appendSeriesRecord(buf[:0], srecs)
		srecs = srecs[:0]
		_, err := dst.Write(buf)
		return err
	}
	for _, s := range series {
		srecs = append(srecs, walSeriesRec{ref: refFor(s), lset: s.lset})
		if len(srecs) == walSnapshotSeriesBatch {
			if err := flushSeries(); err != nil {
				return err
			}
		}
	}
	if err := flushSeries(); err != nil {
		return err
	}
	// One samples record per series keeps record payloads (and the encode
	// buffer) proportional to a single series, not the whole shard.
	var recs []walSampleRec
	all := headReader(-(int64(1) << 62), int64(1)<<62)
	for _, s := range series {
		s.mu.Lock()
		samples := all.samplesLocked(s)
		s.mu.Unlock()
		if len(samples) == 0 {
			continue
		}
		recs = recs[:0]
		for _, smp := range samples {
			recs = append(recs, walSampleRec{ref: s.walRef, t: smp.T, v: smp.V})
		}
		buf = enc.appendSamplesRecord(buf[:0], recs)
		if _, err := dst.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// syncDir fsyncs a directory so renames and unlinks inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WALStats is the live summary of the head's journals.
type WALStats struct {
	// Replay describes the recovery performed by Open; zero-valued when the
	// WAL directory was empty.
	Replay WALReplayStats
	// Records and Checkpoints count writer activity since Open.
	Records     uint64
	Checkpoints uint64
}

// WALStats reports WAL activity; ok is false when the head runs without a
// WAL.
func (db *DB) WALStats() (WALStats, bool) {
	if db.opts.WALDir == "" {
		return WALStats{}, false
	}
	st := WALStats{Replay: db.walReplay}
	for _, sh := range db.shards {
		if sh.wal != nil {
			st.Records += sh.wal.records.Load()
			st.Checkpoints += sh.wal.checkpoints.Load()
		}
	}
	return st, true
}

// WALErr returns the first WAL write or checkpoint error recorded on a path
// that cannot surface one directly (DeleteSeries); Delete, ApplyTombstone
// and CheckpointWAL record theirs here too. A healthy head returns nil.
func (db *DB) WALErr() error {
	db.walErrMu.Lock()
	defer db.walErrMu.Unlock()
	return db.walErr
}

func (db *DB) noteWALErr(err error) {
	if err == nil {
		return
	}
	db.walErrMu.Lock()
	if db.walErr == nil {
		db.walErr = err
	}
	db.walErrMu.Unlock()
}

// Close flushes and fsyncs every shard WAL and releases the WAL directory.
// Memory-only heads are a no-op.
func (db *DB) Close() error {
	var firstErr error
	for _, sh := range db.shards {
		if sh.wal == nil {
			continue
		}
		if err := sh.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := db.lock.Release(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
