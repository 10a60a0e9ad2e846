package tsdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/labels"
	"repro/internal/workpool"
)

// One delete (docs/ARCHITECTURE.md, "One delete").
//
// Every delete is a time-bounded tombstone {seq, maxt, matchers}: it
// deletes the samples at or before maxt of the series the matchers select,
// in every tier, and nothing written after it. The head applies it at once
// by dropping every matched series that holds such a sample, whole; a later
// append of the same labels is a new series. The tombstone is journalled to
// the WAL of every shard it deletes a journalled series from — replay is
// per-shard-parallel with no cross-shard ordering, so each shard's journal
// must be self-contained — or, when it deletes none, to shard 0's, so the
// log survives a restart; and the DB keeps it in its tombstone log, which
// blocks obey: a read through Sources
// with a head skips the samples it deletes (Sources.Select), compaction and
// downsampling drop them (compact.go), and the block store rewrites every
// block that still holds one (internal/thanos). The log is what handoff
// unions into a warming ring member, and what checkpoints carry.
//
// A tombstone retires (RetireTombstones) once the head's oldest sample is
// past its maxt and no block holds a sample it deletes: then nothing is
// left for it to delete, and checkpoints stop carrying it.
//
// On-disk format (record type 9, valid in v1 and v2 files alike, raw):
//
//	tombstone := seq uvarint, maxt varint, nMatchers uvarint, then per
//	             matcher: type byte | len uvarint + name bytes |
//	             len uvarint + value bytes
//
// Replay still reads what older builds wrote: ref deletes (types 3/6,
// walreplay.go) and unbounded matcher tombstones (types 7 raw / 8
// block-compressed, the same payload without maxt), whose maxt is
// math.MaxInt64 — they delete everything their matchers select, as they
// did when they were written.
//
// Within one shard's journal, ordering gives re-create-after-delete for
// free: a tombstone record deletes only series registered before it, and a
// series re-created later is journalled after it. Across the DB, the seq is
// the dedup key: several shards, and every checkpoint, may carry a copy of
// a tombstone, and replay and ApplyTombstone both record a given seq once.

const (
	walRecTombstone   byte = 7
	walRecTombstoneV2 byte = 8
	walRecDelete      byte = 9
)

// TombstoneRec is one applied delete: its sequence number, the newest
// sample time it deletes through and the matchers it selects series by. The
// matcher slice is shared with the journal — callers must treat it as
// read-only.
type TombstoneRec struct {
	Seq      uint64
	MaxT     int64
	Matchers []*labels.Matcher
}

// tombstones is a DB's tombstone log.
type tombstones struct {
	mu  sync.Mutex // serializes changes of log; guards max
	max uint64     // the highest seq ever recorded
	log atomic.Pointer[tombLog]
}

// tombLog is one state of the DB's tombstone log, sorted by seq. It is never
// modified: a change publishes a new one, so a block can key what it
// resolved against the log by the pointer (PersistentBlock.deletedBy). A
// new newest tombstone is appended past the end of the last one's recs,
// sharing its array.
type tombLog struct {
	recs []TombstoneRec
}

// addedSince returns the tombstones log holds that prev does not, and false
// when prev holds one log has dropped.
func (log *tombLog) addedSince(prev *tombLog) ([]TombstoneRec, bool) {
	var added []TombstoneRec
	old := prev.recs
	for _, tr := range log.recs {
		switch {
		case len(old) > 0 && old[0].Seq < tr.Seq:
			return nil, false
		case len(old) > 0 && old[0].Seq == tr.Seq:
			old = old[1:]
		default:
			added = append(added, tr)
		}
	}
	return added, len(old) == 0
}

// Delete deletes the samples at or before maxt of every series matching ms:
// it takes the next sequence number of the tombstone log and applies the
// tombstone as ApplyTombstone does. The caller passes a maxt at or past the
// newest sample it means to delete: a matched head series is dropped whole.
func (db *DB) Delete(maxt int64, ms ...*labels.Matcher) (int, error) {
	if len(ms) == 0 {
		return 0, ErrNoMatchers
	}
	return db.tombstone(TombstoneRec{MaxT: maxt, Matchers: ms})
}

// DeleteSeries deletes every series matching ms up to the head's newest
// sample or, when the head holds none, up to the retention cutoff, below
// which lies every sample cut from it. It returns the number of head series
// deleted; a journal error is left to WALErr.
//
// Deprecated: kept for bench/ until T2 (ROADMAP U).
func (db *DB) DeleteSeries(ms ...*labels.Matcher) int {
	maxt, ok := db.MaxTime()
	if !ok {
		if maxt, ok = db.PrunedThrough(); !ok {
			return 0
		}
	}
	n, _ := db.Delete(maxt, ms...)
	return n
}

// ApplyTombstone applies a tombstone whose sequence number its caller chose
// (a ring's coordinator, or a peer's log being unioned in): every head
// series matching tr.Matchers that holds a sample at or before tr.MaxT is
// dropped, and the tombstone is recorded in the log and journalled. A seq
// the log already holds is a no-op returning (0, nil) —
// re-applying a peer's log is idempotent. It returns the number of series
// deleted and the first journal error.
func (db *DB) ApplyTombstone(tr TombstoneRec) (int, error) {
	if tr.Seq == 0 {
		return 0, fmt.Errorf("tsdb: tombstone sequence numbers start at 1")
	}
	return db.tombstone(tr)
}

// tombstone records tr in the log (seq 0 takes the next one) and applies it
// to every shard. The mutation generation moves before and after: a cache
// fill that snapshots mid-delete records a generation that is stale by the
// time the delete finishes.
func (db *DB) tombstone(tr TombstoneRec) (int, error) {
	db.mutations.Add(1)
	defer db.mutations.Add(1)
	tr, fresh := db.recordTombstone(tr)
	if !fresh {
		return 0, nil
	}
	deleted := make([]int, len(db.shards))
	errs := make([]error, len(db.shards))
	var journalled atomic.Bool
	apply := func(i int, sh *headShard) {
		w := sh.wal
		if w == nil {
			deleted[i] = len(sh.deleteSeries(tr.Matchers, tr.MaxT, &db.whole))
			return
		}
		// Delete and journal under one WAL mutex hold: a racing commit is
		// either fully journalled before the tombstone (the tombstone wins
		// on replay) or sees s.dropped after.
		w.mu.Lock()
		gone := sh.deleteSeries(tr.Matchers, tr.MaxT, &db.whole)
		deleted[i] = len(gone)
		if slices.ContainsFunc(gone, func(s *memSeries) bool { return s.walRef != 0 }) || i == 0 && !journalled.Load() {
			errs[i] = w.logTombstoneLocked(tr)
			journalled.Store(true)
		}
		w.mu.Unlock()
	}
	// Shard 0 goes last, so it knows whether another shard journalled.
	workpool.Do(len(db.shards)-1, 0, func(i int) { apply(i+1, db.shards[i+1]) })
	apply(0, db.shards[0])
	total := 0
	var firstErr error
	for i, n := range deleted {
		total += n
		if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
		}
	}
	db.noteWALErr(firstErr)
	return total, firstErr
}

// TombstoneSeq returns the highest tombstone sequence number this DB has
// recorded since it was opened, or replayed (0 when none). The cluster
// coordinator seeds its delete-sequence allocator from the max over all
// members at startup.
func (db *DB) TombstoneSeq() uint64 {
	db.tombs.mu.Lock()
	defer db.tombs.mu.Unlock()
	return db.tombs.max
}

// Tombstones returns a copy of the live tombstone log, sorted by sequence
// number. Handoff unions peers' logs and re-applies missing entries to a
// warming member via ApplyTombstone; the block store compacts with it.
func (db *DB) Tombstones() []TombstoneRec {
	if log := db.tombs.log.Load(); log != nil {
		return append([]TombstoneRec(nil), log.recs...)
	}
	return nil
}

// RetireTombstones drops from the log every tombstone with nothing left to
// delete: the head's oldest sample is past its maxt, and holds, when set,
// reports that no block holds a sample it deletes (nil: the DB has no
// blocks). From then on checkpoints stop carrying it. It returns how many
// retired.
func (db *DB) RetireTombstones(holds func(TombstoneRec) bool) int {
	log := db.tombs.log.Load()
	if log == nil {
		return 0
	}
	oldest, ok := db.MinTime()
	if !ok {
		oldest = math.MaxInt64
	}
	retired := map[uint64]bool{}
	for _, tr := range log.recs {
		if tr.MaxT < oldest && (holds == nil || !holds(tr)) {
			retired[tr.Seq] = true
		}
	}
	if len(retired) == 0 {
		return 0
	}
	// holds runs without the log's mutex; a tombstone recorded meanwhile stays.
	db.tombs.mu.Lock()
	defer db.tombs.mu.Unlock()
	recs := db.tombs.log.Load().recs
	keep := slices.DeleteFunc(slices.Clone(recs), func(tr TombstoneRec) bool { return retired[tr.Seq] })
	db.tombs.log.Store(&tombLog{recs: keep})
	return len(recs) - len(keep)
}

// recordTombstone adds tr to the log unless its seq is there already,
// reporting whether it was new; seq 0 takes the next sequence number. On
// replay the matching series are removed per shard directory regardless of
// the dedup outcome (each dir carries its own copy of the record, but its
// refMap holds only that dir's series).
func (db *DB) recordTombstone(tr TombstoneRec) (TombstoneRec, bool) {
	db.tombs.mu.Lock()
	defer db.tombs.mu.Unlock()
	var recs []TombstoneRec
	if log := db.tombs.log.Load(); log != nil {
		recs = log.recs
	}
	if tr.Seq == 0 {
		tr.Seq = db.tombs.max + 1
	}
	i := sort.Search(len(recs), func(i int) bool { return recs[i].Seq >= tr.Seq })
	if i < len(recs) && recs[i].Seq == tr.Seq {
		return tr, false
	}
	var next []TombstoneRec
	if i == len(recs) {
		// The newest: appended in place, past the end of every published
		// log, which no reader of one looks at.
		next = append(recs, tr)
	} else {
		next = make([]TombstoneRec, 0, len(recs)+1)
		next = append(append(append(next, recs[:i]...), tr), recs[i:]...)
	}
	db.tombs.log.Store(&tombLog{recs: next})
	db.tombs.max = max(db.tombs.max, tr.Seq)
	return tr, true
}

// deletedBy reports whether a tombstone through maxt that matches s deletes
// it: s holds a sample at or before maxt, or none at all.
func (s *memSeries) deletedBy(maxt int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.chunkAt(0)
	if len(s.ooo) > 0 {
		return s.ooo[0].T <= maxt || c != nil && c.min <= maxt
	}
	return c == nil || c.min <= maxt
}

// appendTombstonePayload is the payload of a type-9 record.
func appendTombstonePayload(dst []byte, tr TombstoneRec) []byte {
	dst = appendUvarint(dst, tr.Seq)
	dst = binary.AppendVarint(dst, tr.MaxT)
	dst = appendUvarint(dst, uint64(len(tr.Matchers)))
	for _, m := range tr.Matchers {
		dst = append(dst, byte(m.Type))
		dst = appendUvarint(dst, uint64(len(m.Name)))
		dst = append(dst, m.Name...)
		dst = appendUvarint(dst, uint64(len(m.Value)))
		dst = append(dst, m.Value...)
	}
	return dst
}

// decodeTombstonePayload decodes the payload of a type-9 record or, with
// bounded unset, of a type 7/8 one (no maxt: it deletes through
// math.MaxInt64).
func decodeTombstonePayload(payload []byte, bounded bool) (TombstoneRec, error) {
	tr := TombstoneRec{MaxT: math.MaxInt64}
	var err error
	if tr.Seq, payload, err = readUvarint(payload); err != nil {
		return tr, err
	}
	if bounded {
		if tr.MaxT, payload, err = readVarint(payload); err != nil {
			return tr, err
		}
	}
	count, payload, err := readUvarint(payload)
	if err != nil {
		return tr, err
	}
	if count > uint64(len(payload))/3 {
		// A matcher is a type byte and two length prefixes at least.
		return tr, fmt.Errorf("tombstone matcher count %d exceeds payload", count)
	}
	tr.Matchers = make([]*labels.Matcher, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(payload) < 1 {
			return tr, fmt.Errorf("truncated matcher type")
		}
		typ := labels.MatchType(payload[0])
		payload = payload[1:]
		if typ < labels.MatchEqual || typ > labels.MatchNotRegexp {
			return tr, fmt.Errorf("bad matcher type %d", typ)
		}
		var name, value string
		if name, payload, err = readString(payload); err != nil {
			return tr, err
		}
		if value, payload, err = readString(payload); err != nil {
			return tr, err
		}
		// A regexp that fails to compile was never encodable, so this is
		// payload corruption that slipped past the CRC — fatal, like every
		// other decode error.
		m, err := labels.NewMatcher(typ, name, value)
		if err != nil {
			return tr, err
		}
		tr.Matchers = append(tr.Matchers, m)
	}
	return tr, nil
}

func appendTombstoneRecord(dst []byte, tr TombstoneRec) []byte {
	return appendFramed(dst, walRecDelete, func(b []byte) []byte { return appendTombstonePayload(b, tr) })
}

// logTombstoneLocked journals one tombstone record; the caller holds w.mu.
func (w *shardWAL) logTombstoneLocked(tr TombstoneRec) error {
	if err := w.readyLocked(); err != nil {
		return err
	}
	w.buf = appendTombstoneRecord(w.buf[:0], tr)
	if _, err := w.bw.Write(w.buf); err != nil {
		return fmt.Errorf("tsdb: wal append: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("tsdb: wal flush: %w", err)
	}
	w.segBytes += int64(len(w.buf))
	w.records.Add(1)
	return nil
}

// applyTombstonePayload replays one tombstone record: the series registered
// earlier in this shard directory's stream that it deletes are removed, and
// the tombstone is recorded in the DB-level log (deduped by seq — every
// shard carries a copy).
func (db *DB) applyTombstonePayload(payload []byte, dr *dirReplay, bounded bool) error {
	tr, err := decodeTombstonePayload(payload, bounded)
	if err != nil {
		return err
	}
	var gone []*memSeries
	for ref, s := range dr.refMap {
		if labels.MatchLabels(s.lset, tr.Matchers...) && s.deletedBy(tr.MaxT) {
			delete(dr.refMap, ref)
			gone = append(gone, s)
		}
	}
	db.removeReplayed(dr, gone)
	db.recordTombstone(tr)
	return nil
}
