package tsdb

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dirlock"
	"repro/internal/labels"
	"repro/internal/workpool"
)

// WAL recovery.
//
// Open replays every shard directory in parallel on the shared workpool: a
// shard's records apply independently of every other shard's (a series lives
// in exactly one shard, so its whole history is in one directory), which is
// the same property that lets appends and queries stripe without cross-shard
// locks. Each worker replays checkpoint.snap first, then the numbered
// segments in order.
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
	Rebuilt     bool          // WAL rewritten because the shard count changed
	Duration    time.Duration // wall time of the whole replay
}

// openWAL replays an existing WAL directory into the fresh shards and
// attaches a writer to every shard. Called by Open when Options.WALDir is
// set, before the DB is visible to anyone.
func (db *DB) openWAL() error {
	dir := db.opts.WALDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	lock, err := dirlock.Acquire(dir)
	if err != nil {
		return err
	}
	db.lock = lock
	start := time.Now()

	// Crashed-rebuild leftovers: an unpublished staging dir is garbage; a
	// published one is a complete new layout whose swap must be finished
	// before anything is replayed.
	if err := os.RemoveAll(filepath.Join(dir, walRebuildTmp)); err != nil {
		return err
	}
	if fileExists(filepath.Join(dir, walRebuildDir)) {
		if err := swapInWALRebuild(dir); err != nil {
			return err
		}
	}

	meta, err := readWALMeta(dir)
	if err != nil {
		return err
	}
	dirs, err := listShardDirs(dir)
	if err != nil {
		return err
	}
	sameLayout := meta.Shards == 0 || meta.Shards == len(db.shards)

	replays := make([]*dirReplay, len(dirs))
	var (
		errMu    sync.Mutex
		firstErr error
	)
	workpool.Do(len(dirs), 0, func(i int) {
		dr, err := db.replayShardDir(dirs[i])
		if err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
			return
		}
		replays[i] = dr
	})
	if firstErr != nil {
		return firstErr
	}

	st := WALReplayStats{Shards: len(dirs)}
	for _, dr := range replays {
		st.Segments += dr.segments
		st.Records += dr.records
		st.Series += dr.series
		st.Samples += dr.samples
		st.TornRepairs += dr.torn
		st.Dropped += dr.dropped
		st.Skipped += dr.skipped
	}

	if sameLayout && len(dirs) <= len(db.shards) {
		// Fast path: shard directory i feeds shard i; hand each shard its
		// journal, seeded so new records keep using the refs the existing
		// segments already define.
		byIndex := make(map[int]*dirReplay, len(dirs))
		for i, d := range dirs {
			byIndex[shardDirIndex(d)] = replays[i]
		}
		for i, sh := range db.shards {
			dr := byIndex[i]
			segIndex, firstSeg, nextRef := 1, 1, uint64(0)
			if dr != nil {
				segIndex, firstSeg = dr.lastSeg+1, dr.firstSeg
				if firstSeg > segIndex {
					firstSeg = segIndex
				}
				nextRef = dr.maxRef
				for ref, e := range dr.refMap {
					e.s.walRef = ref
				}
			}
			w, err := openShardWAL(walShardDir(dir, i), db.opts.WALSegmentSize, segIndex, firstSeg, nextRef)
			if err != nil {
				return err
			}
			sh.wal = w
		}
	} else {
		// The shard count changed: the replayed series were hash-routed to
		// their new shards above, but their history is spread across the old
		// layout. Rewrite the WAL in the new layout so every shard's journal
		// is self-contained again — staged in a temp dir, published with one
		// rename, and only then is the old layout deleted: a crash at any
		// point leaves either the complete old WAL or the complete new one.
		st.Rebuilt = true
		if err := db.rebuildWAL(dir); err != nil {
			return err
		}
	}

	if err := writeWALMeta(dir, walMeta{Version: 1, Shards: len(db.shards)}); err != nil {
		return err
	}
	st.Duration = time.Since(start)
	db.walReplay = st
	return nil
}

const (
	// walRebuildTmp stages a shard-count rebuild; walRebuildDir is the
	// staging dir after its atomic publish rename. Their presence at open
	// time means a rebuild crashed mid-way: .tmp is discarded, the
	// published dir is swapped in.
	walRebuildTmp = "rebuild.tmp"
	walRebuildDir = "rebuild"
)

// rebuildWAL rewrites the whole WAL in the current shard layout from the
// (already replayed) head: one fsynced full snapshot per shard, staged
// under rebuild.tmp, published by renaming it to rebuild, and swapped over
// the old layout. The old journals are not touched until the complete new
// layout is durable.
func (db *DB) rebuildWAL(dir string) error {
	tmpRoot := filepath.Join(dir, walRebuildTmp)
	if err := os.RemoveAll(tmpRoot); err != nil {
		return err
	}
	nextRefs := make([]uint64, len(db.shards))
	// The staged layout carries its own meta: the swap reads it to know the
	// authoritative new shard count even after a mid-swap crash.
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	if err := writeWALMeta(tmpRoot, walMeta{Version: 1, Shards: len(db.shards)}); err != nil {
		return err
	}
	for i, sh := range db.shards {
		sdir := filepath.Join(tmpRoot, fmt.Sprintf("shard-%04d", i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return err
		}
		// Fresh refs per shard, streamed series-by-series like a checkpoint;
		// no writers exist yet, so no lock needed.
		path := filepath.Join(sdir, walCheckpointFile)
		err := writeFileDurably(path, func(dst *bufio.Writer) error {
			return streamShardSnapshot(dst, sh, db.Tombstones(), func(s *memSeries) uint64 {
				nextRefs[i]++
				s.walRef = nextRefs[i]
				return s.walRef
			})
		})
		if err != nil {
			return err
		}
		if err := syncDir(sdir); err != nil {
			return err
		}
	}
	if err := syncDir(tmpRoot); err != nil {
		return err
	}
	// Publish: from here on, a crash recovers from the new layout.
	if err := os.Rename(tmpRoot, filepath.Join(dir, walRebuildDir)); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	if err := swapInWALRebuild(dir); err != nil {
		return err
	}
	for i, sh := range db.shards {
		w, err := openShardWAL(walShardDir(dir, i), db.opts.WALSegmentSize, 1, 1, nextRefs[i])
		if err != nil {
			return err
		}
		sh.wal = w
	}
	return nil
}

// swapInWALRebuild replaces the top-level shard layout with the published
// rebuild dir's contents. It is idempotent across crashes at any step: a
// shard dir still inside rebuild/ is authoritative and replaces its
// top-level namesake; one already moved out by an earlier attempt is left
// alone; old-layout dirs beyond the new shard count (read from the staged
// meta) are deleted; the top-level meta is rewritten last.
func swapInWALRebuild(dir string) error {
	rebuilt := filepath.Join(dir, walRebuildDir)
	meta, err := readWALMeta(rebuilt)
	if err != nil {
		return err
	}
	if meta.Shards <= 0 {
		// No staged meta: the publish rename cannot have happened (meta is
		// written before it); treat the dir as garbage.
		return os.RemoveAll(rebuilt)
	}
	for i := 0; i < meta.Shards; i++ {
		staged := filepath.Join(rebuilt, fmt.Sprintf("shard-%04d", i))
		if !fileExists(staged) {
			continue // already swapped in by a previous attempt
		}
		target := walShardDir(dir, i)
		if err := os.RemoveAll(target); err != nil {
			return err
		}
		if err := os.Rename(staged, target); err != nil {
			return err
		}
	}
	old, err := listShardDirs(dir)
	if err != nil {
		return err
	}
	for _, d := range old {
		if idx := shardDirIndex(d); idx < 0 || idx >= meta.Shards {
			if err := os.RemoveAll(d); err != nil {
				return err
			}
		}
	}
	if err := writeWALMeta(dir, walMeta{Version: 1, Shards: meta.Shards}); err != nil {
		return err
	}
	if err := os.RemoveAll(rebuilt); err != nil {
		return err
	}
	return syncDir(dir)
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
		// treated like an absent one: the shard journals are the data, the
		// meta only optimizes layout detection, so replay proceeds from the
		// directory names and the meta is rewritten.
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
// sorted by index.
func listShardDirs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
			out = append(out, filepath.Join(dir, e.Name()))
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

// walEntry resolves one WAL series ref during replay: the live series plus
// its target shard index (cached so samples don't rehash labels).
type walEntry struct {
	s     *memSeries
	shard int
}

// dirReplay is the outcome of replaying one shard directory.
type dirReplay struct {
	refMap   map[uint64]walEntry
	maxRef   uint64
	lastSeg  int // highest segment index on disk (0 when none)
	firstSeg int // lowest segment index still on disk

	segments, records, series, samples int
	torn, dropped, skipped             int
}

// shardAcc accumulates noteAppend input per target shard during replay so
// the atomic time-bound CAS loops run once per shard, not per sample.
type shardAcc struct {
	mint, maxt int64
	n          uint64
}

// replayShardDir applies one shard directory's checkpoint and segments to
// the head. Series route by their label hash, which is a no-op when the
// shard layout is unchanged and re-distributes them when it is not.
func (db *DB) replayShardDir(dir string) (*dirReplay, error) {
	dr := &dirReplay{refMap: make(map[uint64]walEntry)}
	acc := make([]shardAcc, len(db.shards))
	for i := range acc {
		acc[i] = shardAcc{mint: int64(1) << 62, maxt: -(int64(1) << 62)}
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
		torn, err := db.replayWALFile(path, dr, acc)
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

	for i, a := range acc {
		if a.n > 0 {
			db.shards[i].noteAppend(a.mint, a.maxt, a.n)
		}
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
func (db *DB) replayWALFile(path string, dr *dirReplay, acc []shardAcc) (torn bool, err error) {
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
				db.applySamples(scratch, dr, acc)
			}
		case walRecSamplesV2:
			dec.maxRef = dr.maxRef
			if scratch, err = dec.decodeSamples(scratch[:0], payload); err == nil {
				db.applySamples(scratch, dr, acc)
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
// with the head, hash-routing each to its shard.
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
		s := db.shardFor(h).getOrCreate(h, lset)
		dr.refMap[ref] = walEntry{s: s, shard: int(h & db.mask)}
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
func (db *DB) applySamples(recs []walSampleRec, dr *dirReplay, acc []shardAcc) {
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
		e, ok := dr.refMap[r.ref]
		if !ok {
			dr.dropped++
			continue
		}
		s := e.s
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
		a := &acc[e.shard]
		if r.t < a.mint {
			a.mint = r.t
		}
		if r.t > a.maxt {
			a.maxt = r.t
		}
		a.n++
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
		if e, ok := dr.refMap[ref]; ok {
			delete(dr.refMap, ref)
			gone = append(gone, e.s)
		}
	}
	db.removeReplayed(gone)
	return nil
}

// removeReplayed detaches series a replayed delete or tombstone record
// names, with one bulk removal per shard they live in.
func (db *DB) removeReplayed(gone []*memSeries) {
	byShard := make(map[*headShard][]*memSeries)
	for _, s := range gone {
		sh := db.shardFor(s.lset.Hash())
		byShard[sh] = append(byShard[sh], s)
	}
	for sh, series := range byShard {
		sh.mu.Lock()
		sh.removeLocked(series)
		sh.mu.Unlock()
	}
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
