package tsdb

import (
	"fmt"
	"sort"

	"repro/internal/labels"
)

// Matcher-level delete tombstones.
//
// DeleteSeries removes series by ref: the WAL deletes record (type 3/6)
// names the refs that were live at delete time, which is exactly right for a
// single node — replay reproduces the delete byte-for-byte. It is NOT enough
// for a replicated deployment: a replica that was down during the delete
// never saw the refs, and when it rejoins, peer handoff would happily copy
// the "deleted" series right back (resurrection). The cluster layer
// (internal/cluster) therefore deletes through ApplyTombstone: a durable,
// matcher-level tombstone record carrying a coordinator-assigned sequence
// number. The record is journalled to EVERY shard WAL — replay is
// per-shard-parallel with no cross-shard ordering, so each shard's journal
// must be self-contained — and the per-DB tombstone log it rebuilds is what
// handoff replays into a warming member before that member serves reads.
//
// On-disk format (record types 7 raw / 8 block-compressed, see wal.go):
//
//	tombstone := seq uvarint, nMatchers uvarint, then per matcher:
//	             type byte | len uvarint + name bytes | len uvarint + value bytes
//
// The writer emits type 8 only. Replay accepts type 7 in v1 and v2 files
// alike (journals written before v2 became the only write format); type 8,
// like the other compressed types, only in v2 files.
//
// Within one shard's journal, ordering gives re-create-after-delete for
// free: a tombstone record deletes only series registered before it, and a
// series re-created later is journalled after it. Across the DB, the seq is
// the dedup key — every shard carries a copy of each tombstone, replay and
// ApplyTombstone both record a given seq exactly once.

const (
	walRecTombstone   byte = 7
	walRecTombstoneV2 byte = 8
)

// TombstoneRec is one applied matcher-level delete: the coordinator-assigned
// sequence number plus the matchers it deleted by. The matcher slice is
// shared with the journal — callers must treat it as read-only.
type TombstoneRec struct {
	Seq      uint64
	Matchers []*labels.Matcher
}

// ApplyTombstone deletes every series matching ms and journals a durable
// matcher-level tombstone with the given sequence number to every shard WAL.
// A seq the DB has already seen (live or via replay) is a no-op returning
// (0, nil) — re-applying a peer's tombstone log is idempotent. It returns
// the number of series deleted and the first journal error.
func (db *DB) ApplyTombstone(seq uint64, ms ...*labels.Matcher) (int, error) {
	if !db.recordTombstone(seq, ms) {
		return 0, nil
	}

	// Double mutation bump, same reasoning as DeleteSeries: a cache fill
	// snapshotting mid-delete records a generation that is stale by the time
	// the delete finishes.
	db.mutations.Add(1)
	defer db.mutations.Add(1)
	deleted := make([]int, len(db.shards))
	errs := make([]error, len(db.shards))
	db.forEachShard(func(i int, sh *headShard) {
		w := sh.wal
		if w == nil {
			deleted[i] = len(sh.deleteSeries(ms))
			return
		}
		// Delete and journal under one WAL mutex hold, like DeleteSeries: a
		// racing commit is either fully journalled before the tombstone (the
		// tombstone wins on replay) or sees s.dropped after.
		w.mu.Lock()
		deleted[i] = len(sh.deleteSeries(ms))
		errs[i] = w.logTombstoneLocked(seq, ms)
		w.mu.Unlock()
	})
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
// recorded (0 when none). The cluster coordinator seeds its delete-sequence
// allocator from the max over all members at startup.
func (db *DB) TombstoneSeq() uint64 {
	db.tombMu.Lock()
	defer db.tombMu.Unlock()
	return db.tombMax
}

// Tombstones returns a copy of the tombstone log, sorted by sequence number.
// Handoff unions peers' logs and re-applies missing entries to a warming
// member via ApplyTombstone.
func (db *DB) Tombstones() []TombstoneRec {
	db.tombMu.Lock()
	out := make([]TombstoneRec, len(db.tombs))
	copy(out, db.tombs)
	db.tombMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// recordTombstone adds one tombstone to the in-memory log if its seq is new,
// reporting whether it was. On replay the matching series are removed per
// shard directory regardless of the dedup outcome (each dir carries its own
// copy of the record, but its refMap holds only that dir's series).
func (db *DB) recordTombstone(seq uint64, ms []*labels.Matcher) bool {
	db.tombMu.Lock()
	defer db.tombMu.Unlock()
	if _, dup := db.tombSeen[seq]; dup {
		return false
	}
	if db.tombSeen == nil {
		db.tombSeen = make(map[uint64]struct{})
	}
	db.tombSeen[seq] = struct{}{}
	db.tombs = append(db.tombs, TombstoneRec{Seq: seq, Matchers: ms})
	if seq > db.tombMax {
		db.tombMax = seq
	}
	return true
}

func encodeTombstonePayload(dst []byte, seq uint64, ms []*labels.Matcher) []byte {
	dst = appendUvarint(dst, seq)
	dst = appendUvarint(dst, uint64(len(ms)))
	for _, m := range ms {
		dst = append(dst, byte(m.Type))
		dst = appendUvarint(dst, uint64(len(m.Name)))
		dst = append(dst, m.Name...)
		dst = appendUvarint(dst, uint64(len(m.Value)))
		dst = append(dst, m.Value...)
	}
	return dst
}

func decodeTombstonePayload(payload []byte) (uint64, []*labels.Matcher, error) {
	seq, payload, err := readUvarint(payload)
	if err != nil {
		return 0, nil, err
	}
	count, payload, err := readUvarint(payload)
	if err != nil {
		return 0, nil, err
	}
	if count > uint64(len(payload))/3 {
		// A matcher is a type byte and two length prefixes at least.
		return 0, nil, fmt.Errorf("tombstone matcher count %d exceeds payload", count)
	}
	ms := make([]*labels.Matcher, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(payload) < 1 {
			return 0, nil, fmt.Errorf("truncated matcher type")
		}
		typ := labels.MatchType(payload[0])
		payload = payload[1:]
		if typ < labels.MatchEqual || typ > labels.MatchNotRegexp {
			return 0, nil, fmt.Errorf("bad matcher type %d", typ)
		}
		var name, value string
		if name, payload, err = readString(payload); err != nil {
			return 0, nil, err
		}
		if value, payload, err = readString(payload); err != nil {
			return 0, nil, err
		}
		// A regexp that fails to compile was never encodable, so this is
		// payload corruption that slipped past the CRC — fatal, like every
		// other decode error.
		m, err := labels.NewMatcher(typ, name, value)
		if err != nil {
			return 0, nil, err
		}
		ms = append(ms, m)
	}
	return seq, ms, nil
}

func (e *walRecEncoder) appendTombstoneRecord(dst []byte, seq uint64, ms []*labels.Matcher) []byte {
	e.scratch = encodeTombstonePayload(e.scratch[:0], seq, ms)
	return appendFramed(dst, walRecTombstoneV2, func(b []byte) []byte { return appendCompressed(b, e.scratch) })
}

// logTombstoneLocked journals one tombstone record; the caller holds w.mu.
func (w *shardWAL) logTombstoneLocked(seq uint64, ms []*labels.Matcher) error {
	if err := w.readyLocked(); err != nil {
		return err
	}
	w.buf = w.appendTombstoneRecord(w.buf[:0], seq, ms)
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

// applyTombstonePayload replays one tombstone record: matching series
// registered earlier in this shard directory's stream are removed, and the
// tombstone is recorded in the DB-level log (deduped by seq — every shard
// carries a copy).
func (db *DB) applyTombstonePayload(payload []byte, dr *dirReplay) error {
	seq, ms, err := decodeTombstonePayload(payload)
	if err != nil {
		return err
	}
	var gone []*memSeries
	for ref, s := range dr.refMap {
		if labels.MatchLabels(s.lset, ms...) {
			delete(dr.refMap, ref)
			gone = append(gone, s)
		}
	}
	db.removeReplayed(dr, gone)
	db.recordTombstone(seq, ms)
	return nil
}
