package tsdb

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/dirlock"
	"repro/internal/labels"
	"repro/internal/workpool"
)

// WAL recovery.
//
// A WAL directory has one layout for its whole life: the shard count it was
// first written with, recorded in wal-meta.json. Open takes the head's shard
// count from it, so shard directory i always feeds shard i and holds only
// the series that hash to shard i; Options.Shards only sizes a new
// directory. Open replays every shard directory in parallel on the shared
// workpool: a shard's records apply independently of every other shard's,
// which is the same property that lets appends and queries stripe without
// cross-shard locks. Each worker replays checkpoint.snap first, then the
// numbered segments in order.
//
// Corruption tolerance follows Prometheus: a record that is cut short or
// fails its CRC ends that file's replay — the file is truncated back to the
// last whole record ("torn-tail repair") and, because later segments are
// causally after the damage, they are dropped too. Everything before the bad
// byte is recovered.

// walMeta is the WAL directory's self-description; it pins the shard count
// the directory was written with.
type walMeta struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// WALReplayStats summarizes one recovery pass.
type WALReplayStats struct {
	Shards      int           // shard directories replayed
	Segments    int           // files replayed (checkpoints + segments)
	Records     int           // whole records applied
	Series      int           // series registrations seen
	Samples     int           // samples re-appended to the head
	TornRepairs int           // files truncated back to the last whole record
	Dropped     int           // samples dropping an unknown series ref
	Skipped     int           // samples skipped as out-of-order (checkpoint dedup)
	Duration    time.Duration // wall time of the whole replay
}

const (
	// walRebuildTmp and walRebuildDir are what older builds left behind when
	// a shard-count rebuild crashed: an unpublished staging dir (garbage) or
	// a published one (the only complete copy of the journal, which those
	// builds swapped in at their next open).
	walRebuildTmp = "rebuild.tmp"
	walRebuildDir = "rebuild"
)

// openWAL locks the WAL directory, sizes the head to the directory's shard
// layout (shards, the count Open derived from the options, only sizes a
// directory that holds no journal yet), replays every shard journal into
// its shard and attaches a writer to every shard. Called by Open before the
// DB is visible to anyone.
func (db *DB) openWAL(shards int) error {
	dir := db.opts.WALDir
	// Refuse, before touching anything, a rebuild an older build published
	// but did not finish swapping in: its layout, not the top-level one,
	// holds the journal, and this build does not re-lay a journal out.
	if rebuilt := filepath.Join(dir, walRebuildDir); fileExists(rebuilt) {
		return fmt.Errorf("%s is an unfinished shard-count rebuild of an older build; open the directory once with that build to finish it", rebuilt)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	lock, err := dirlock.Acquire(dir)
	if err != nil {
		return err
	}
	db.lock = lock
	start := time.Now()
	if err := os.RemoveAll(filepath.Join(dir, walRebuildTmp)); err != nil {
		return err
	}

	dirs, walShards, err := readWALLayout(dir)
	if err != nil {
		return err
	}
	if walShards > 0 {
		shards = walShards
	}
	db.initShards(shards)

	replays := make([]*dirReplay, len(db.shards))
	var (
		errMu    sync.Mutex
		firstErr error
	)
	workpool.Do(len(dirs), 0, func(i int) {
		dr, err := db.replayShardDir(shardDirIndex(dirs[i]), dirs[i])
		if err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
			return
		}
		replays[dr.shard] = dr
	})
	if firstErr != nil {
		return firstErr
	}

	st := WALReplayStats{Shards: len(dirs)}
	for i, sh := range db.shards {
		// Hand each shard its journal, seeded so new records keep using the
		// refs the existing segments already define.
		segIndex, firstSeg, nextRef := 1, 1, uint64(0)
		if dr := replays[i]; dr != nil {
			st.Segments += dr.segments
			st.Records += dr.records
			st.Series += dr.series
			st.Samples += dr.samples
			st.TornRepairs += dr.torn
			st.Dropped += dr.dropped
			st.Skipped += dr.skipped
			segIndex, firstSeg = dr.lastSeg+1, min(dr.firstSeg, dr.lastSeg+1)
			nextRef = dr.maxRef
			for ref, s := range dr.refMap {
				s.walRef = ref
			}
		}
		w, err := openShardWAL(walShardDir(dir, i), db.opts.WALSegmentSize, segIndex, firstSeg, nextRef)
		if err != nil {
			return err
		}
		sh.wal = w
	}

	if err := writeWALMeta(dir, walMeta{Version: 1, Shards: len(db.shards)}); err != nil {
		return err
	}
	st.Duration = time.Since(start)
	db.walReplay = st
	return nil
}

// readWALLayout returns the shard directories of the WAL root and the shard
// count they were written with: wal-meta.json's, or — when the meta is
// missing or unreadable — the highest directory index plus one, rounded up
// to a power of two. The count is 0 for a directory that holds no journal.
func readWALLayout(dir string) (dirs []string, shards int, err error) {
	meta, err := readWALMeta(dir)
	if err != nil {
		return nil, 0, err
	}
	if dirs, err = listShardDirs(dir); err != nil {
		return nil, 0, err
	}
	shards = meta.Shards
	if shards <= 0 || shards > maxShards || shards&(shards-1) != 0 {
		shards = 0
		for _, d := range dirs {
			shards = max(shards, nextPow2(shardDirIndex(d)+1))
		}
		shards = min(shards, maxShards)
	}
	for _, d := range dirs {
		if shardDirIndex(d) >= shards {
			return nil, 0, fmt.Errorf("%s lies outside the journal's %d shards", d, shards)
		}
	}
	return dirs, shards, nil
}

func readWALMeta(dir string) (walMeta, error) {
	var m walMeta
	data, err := os.ReadFile(filepath.Join(dir, walMetaFile))
	if os.IsNotExist(err) {
		return m, nil
	}
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		// An unparsable meta (e.g. zeroed by power loss mid-rename) is
		// treated like an absent one: the shard directory names give the
		// layout back (readWALLayout), and Open rewrites the meta.
		return walMeta{}, nil
	}
	return m, nil
}

func writeWALMeta(dir string, m walMeta) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, walMetaFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, walMetaFile))
}

// listShardDirs returns the shard-NNNN directories under the WAL root,
// sorted by index. A name that walShardDir would not produce is not a shard
// directory.
func listShardDirs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		if i := shardDirIndex(path); e.IsDir() && i >= 0 && walShardDir(dir, i) == path {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out, nil
}

func shardDirIndex(dir string) int {
	var i int
	if _, err := fmt.Sscanf(filepath.Base(dir), "shard-%d", &i); err != nil {
		return -1
	}
	return i
}

// dirReplay is the outcome of replaying one shard directory.
type dirReplay struct {
	shard    int // the head shard the directory feeds
	refMap   map[uint64]*memSeries
	maxRef   uint64
	lastSeg  int // highest segment index on disk (0 when none)
	firstSeg int // lowest segment index still on disk
	// mint and maxt bound the replayed samples, so the shard's atomic time
	// bounds move once per directory, not per sample.
	mint, maxt int64

	segments, records, series, samples int
	torn, dropped, skipped             int
}

// replayShardDir applies one shard directory's checkpoint and segments to
// shard shard of the head.
func (db *DB) replayShardDir(shard int, dir string) (*dirReplay, error) {
	dr := &dirReplay{
		shard:  shard,
		refMap: make(map[uint64]*memSeries),
		mint:   int64(1) << 62,
		maxt:   -(int64(1) << 62),
	}

	// Leftover temp files from an interrupted checkpoint are garbage by
	// definition (the rename never happened).
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	for _, t := range tmps {
		os.Remove(t)
	}

	var files []string
	nCheckpoints := 0
	if cp := filepath.Join(dir, walCheckpointFile); fileExists(cp) {
		files = append(files, cp)
		nCheckpoints = 1
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		return nil, err
	}
	sort.Strings(segs)
	dr.firstSeg = 0
	for _, s := range segs {
		var idx int
		if _, err := fmt.Sscanf(filepath.Base(s), "%08d.wal", &idx); err == nil {
			if dr.firstSeg == 0 || idx < dr.firstSeg {
				dr.firstSeg = idx
			}
			if idx > dr.lastSeg {
				dr.lastSeg = idx
			}
		}
	}
	if dr.firstSeg == 0 {
		dr.firstSeg = 1
	}
	files = append(files, segs...)

	for fi, path := range files {
		torn, err := db.replayWALFile(path, dr)
		if err != nil {
			return nil, err
		}
		dr.segments++
		if torn {
			dr.torn++
			// A torn SEGMENT ends this shard's recovery: later segments were
			// appended after the damaged record, so their contents are
			// causally past it — drop them so a future replay cannot
			// resurrect records this recovery already declared dead. A torn
			// CHECKPOINT is different: the segments were journalled after
			// the checkpoint was cut but are not derived from its bytes —
			// they stay and replay (samples whose series registration sat in
			// the checkpoint's lost tail surface as dropped refs).
			if fi >= nCheckpoints {
				for _, later := range files[fi+1:] {
					if err := os.Remove(later); err != nil && !os.IsNotExist(err) {
						return nil, err
					}
				}
				break
			}
		}
	}

	if dr.samples > 0 {
		db.shards[shard].noteAppend(dr.mint, dr.maxt, uint64(dr.samples))
	}
	return dr, nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// replayWALFile applies one file's records. The file's format is sniffed
// from its (optional) header: v1 files are raw record streams, v2 files
// carry compressed payloads decoded through a per-file walV2Dec whose
// Gorilla state spans records but never files. It returns torn=true when
// the file ended in a cut-short or CRC-corrupt record, in which case the
// file has been truncated back to its last whole record.
func (db *DB) replayWALFile(path string, dr *dirReplay) (torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	version, off, hdrTorn, err := walSniffVersion(data)
	if err != nil {
		return false, fmt.Errorf("tsdb: wal replay %s: %w", path, err)
	}
	if hdrTorn {
		// Crash during the very first write: the file is a strict prefix of
		// the v2 header. Truncate to empty and report the tear.
		if err := os.Truncate(path, 0); err != nil {
			return true, err
		}
		return true, nil
	}
	var dec *walV2Dec
	if version >= walFormatV2 {
		dec = newWalV2Dec()
	}
	var scratch []walSampleRec
	for off < len(data) {
		if len(data)-off < walHeaderSize {
			break // cut short mid-header
		}
		typ := data[off]
		plen := int(binary.LittleEndian.Uint32(data[off+1 : off+5]))
		crc := binary.LittleEndian.Uint32(data[off+5 : off+9])
		if plen > walMaxPayload || !walRecTypeValid(version, typ) {
			break // framing garbage: treat as torn at this offset
		}
		if len(data)-off-walHeaderSize < plen {
			break // cut short mid-payload
		}
		payload := data[off+walHeaderSize : off+walHeaderSize+plen]
		if crc32.Checksum(payload, walCRC) != crc {
			break // flipped bits: everything before this record is good
		}
		// A record whose CRC passed but whose payload does not decode is
		// fatal corruption (encoder bug or CRC collision), like v1's
		// malformed-payload errors — never silently dropped.
		switch typ {
		case walRecSeries:
			err = db.applySeriesPayload(payload, dr)
		case walRecSeriesV2:
			var raw []byte
			if raw, err = walDecompress(payload); err == nil {
				err = db.applySeriesPayload(raw, dr)
			}
		case walRecSamples:
			if scratch, err = decodeSamplesPayload(scratch[:0], payload); err == nil {
				db.applySamples(scratch, dr)
			}
		case walRecSamplesV2:
			dec.maxRef = dr.maxRef
			if scratch, err = dec.decodeSamples(scratch[:0], payload); err == nil {
				db.applySamples(scratch, dr)
			}
		case walRecDeletes:
			err = db.applyDeletesPayload(payload, dr)
		case walRecDeletesV2:
			var raw []byte
			if raw, err = walDecompress(payload); err == nil {
				err = db.applyDeletesPayload(raw, dr)
			}
		case walRecTombstone:
			err = db.applyTombstonePayload(payload, dr)
		case walRecTombstoneV2:
			var raw []byte
			if raw, err = walDecompress(payload); err == nil {
				err = db.applyTombstonePayload(raw, dr)
			}
		}
		if err != nil {
			return false, fmt.Errorf("tsdb: wal replay %s: %w", path, err)
		}
		dr.records++
		off += walHeaderSize + plen
	}
	if off == len(data) {
		return false, nil
	}
	if err := os.Truncate(path, int64(off)); err != nil {
		return true, err
	}
	return true, nil
}

// applySeriesPayload registers every series of one (decoded) series payload
// with the directory's shard. A series that hashes to another shard means
// the directory was not written with the head's shard count: replaying it
// would put the series where appends and reads never look.
func (db *DB) applySeriesPayload(payload []byte, dr *dirReplay) error {
	count, payload, err := readUvarint(payload)
	if err != nil {
		return err
	}
	for i := uint64(0); i < count; i++ {
		var ref, nLabels uint64
		if ref, payload, err = readUvarint(payload); err != nil {
			return err
		}
		if nLabels, payload, err = readUvarint(payload); err != nil {
			return err
		}
		if nLabels > uint64(len(payload))/2 {
			// A label is two length prefixes at least.
			return fmt.Errorf("series label count %d exceeds payload", nLabels)
		}
		lset := make(labels.Labels, 0, nLabels)
		for j := uint64(0); j < nLabels; j++ {
			var name, value string
			if name, payload, err = readString(payload); err != nil {
				return err
			}
			if value, payload, err = readString(payload); err != nil {
				return err
			}
			lset = append(lset, labels.Label{Name: name, Value: value})
		}
		h := lset.Hash()
		if int(h&db.mask) != dr.shard {
			return fmt.Errorf("series %s belongs to shard %d of %d, not to shard %d", lset, h&db.mask, len(db.shards), dr.shard)
		}
		dr.refMap[ref] = db.shards[dr.shard].getOrCreate(h, lset)
		if ref > dr.maxRef {
			dr.maxRef = ref
		}
		dr.series++
	}
	return nil
}

// decodeSamplesPayload decodes one v1 samples payload onto dst.
func decodeSamplesPayload(dst []walSampleRec, payload []byte) ([]walSampleRec, error) {
	count, payload, err := readUvarint(payload)
	if err != nil {
		return dst, err
	}
	for i := uint64(0); i < count; i++ {
		var ref uint64
		var t int64
		if ref, payload, err = readUvarint(payload); err != nil {
			return dst, err
		}
		if t, payload, err = readVarint(payload); err != nil {
			return dst, err
		}
		if len(payload) < 8 {
			return dst, fmt.Errorf("truncated sample value")
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(payload[:8]))
		payload = payload[8:]
		dst = append(dst, walSampleRec{ref: ref, t: t, v: v})
	}
	return dst, nil
}

// applySamples re-appends decoded samples to the head, resolving each
// through the replay ref map.
func (db *DB) applySamples(recs []walSampleRec, dr *dirReplay) {
	maxPerChunk := db.opts.MaxSamplesPerChunk
	// With the out-of-order window on, replay accepts any journalled
	// backwards sample regardless of the configured width: the write path
	// only journals samples it accepted, so re-checking the window here
	// (against time bounds that are not maintained incrementally during
	// replay) would drop durable data. Duplicates from checkpoint overlap
	// still dedup via the t==lastT / buffer-duplicate skips.
	var ooo *oooAppendCtx
	if db.opts.OutOfOrderWindow > 0 {
		ooo = &oooAppendCtx{bound: math.MinInt64}
	}
	for _, r := range recs {
		s, ok := dr.refMap[r.ref]
		if !ok {
			dr.dropped++
			continue
		}
		s.mu.Lock()
		outcome, aerr := s.appendLocked(r.t, r.v, maxPerChunk, ooo)
		s.mu.Unlock()
		if aerr != nil || outcome == appendDuplicate {
			// Out-of-order or duplicate here means the sample is already in
			// the head (a checkpoint raced a commit, or the record was
			// journalled for a rejected append) — skipping reproduces the
			// write path's behavior exactly.
			dr.skipped++
			continue
		}
		dr.mint, dr.maxt = min(dr.mint, r.t), max(dr.maxt, r.t)
		dr.samples++
	}
}

// applyDeletesPayload removes every series named by one (decoded) tombstone
// payload from the head.
func (db *DB) applyDeletesPayload(payload []byte, dr *dirReplay) error {
	count, payload, err := readUvarint(payload)
	if err != nil {
		return err
	}
	var gone []*memSeries
	for i := uint64(0); i < count; i++ {
		var ref uint64
		if ref, payload, err = readUvarint(payload); err != nil {
			return err
		}
		if s, ok := dr.refMap[ref]; ok {
			delete(dr.refMap, ref)
			gone = append(gone, s)
		}
	}
	db.removeReplayed(dr, gone)
	return nil
}

// removeReplayed detaches, in one bulk removal, the series of the
// directory's shard that a replayed delete or tombstone record names.
func (db *DB) removeReplayed(dr *dirReplay, gone []*memSeries) {
	if len(gone) == 0 {
		return
	}
	sh := db.shards[dr.shard]
	sh.mu.Lock()
	sh.removeLocked(gone)
	sh.mu.Unlock()
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated uvarint")
	}
	return v, b[n:], nil
}

func readVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated varint")
	}
	return v, b[n:], nil
}

func readString(b []byte) (string, []byte, error) {
	l, b, err := readUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(b)) < l {
		return "", nil, fmt.Errorf("truncated string")
	}
	return string(b[:l]), b[l:], nil
}
