package tsdb

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/labels"
)

func tombMatcher(t *testing.T) *labels.Matcher {
	t.Helper()
	return labels.MustMatcher(labels.MatchRegexp, "node", "n00[0-9]")
}

// TestWALTombstoneReplay: a tombstone is journalled to the WAL like any
// append — after a restart the deleted window stays deleted, series
// re-created after the delete keep their post-delete samples, and the
// tombstone log itself survives with its sequence number. The matrix runs
// both shard layouts and both on-disk formats (compress=false replays the
// journal rewritten as v1, raw type-7 tombstone records included): delete
// durability must be invisible to both.
func TestWALTombstoneReplay(t *testing.T) {
	for _, shards := range []int{1, 16} {
		for _, compress := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d,compress=%v", shards, compress), func(t *testing.T) {
				opts := Options{Shards: shards, WALDir: filepath.Join(t.TempDir(), "wal"),
					WALSegmentSize: 4096}
				db, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				replayFill(t, db, 40, 10)
				if n, err := db.ApplyTombstone(1, tombMatcher(t)); err != nil || n != 10 {
					t.Fatalf("ApplyTombstone = (%d, %v), want 10 deleted series", n, err)
				}
				// Re-create part of the deleted range after the tombstone:
				// within one WAL stream, ordering makes this safe.
				replayFill(t, db, 40, 15)
				live := selectAll(t, db)
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				if !compress {
					rewriteWALAsV1(t, opts.WALDir, opts.WALSegmentSize)
				}

				re, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				assertSeriesEqual(t, selectAll(t, re), live, "tombstone WAL round-trip")
				tombs := re.Tombstones()
				if len(tombs) != 1 || tombs[0].Seq != 1 {
					t.Fatalf("replayed tombstone log %+v, want one record with seq 1", tombs)
				}
				if got := re.TombstoneSeq(); got != 1 {
					t.Fatalf("TombstoneSeq = %d, want 1", got)
				}
			})
		}
	}
}

// TestWALTombstoneCheckpoint: checkpointing rewrites the WAL as a
// snapshot; the tombstone records must be carried into it (first, before
// any series) or a restart after checkpoint would resurrect the deleted
// window from nothing.
func TestWALTombstoneCheckpoint(t *testing.T) {
	opts := Options{Shards: 4, WALDir: filepath.Join(t.TempDir(), "wal"), WALSegmentSize: 4096}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	replayFill(t, db, 40, 10)
	if _, err := db.ApplyTombstone(1, tombMatcher(t)); err != nil {
		t.Fatal(err)
	}
	replayFill(t, db, 40, 15)
	if err := db.CheckpointWAL(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	live := selectAll(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSeriesEqual(t, selectAll(t, re), live, "tombstone checkpoint round-trip")
	if tombs := re.Tombstones(); len(tombs) != 1 || tombs[0].Seq != 1 {
		t.Fatalf("post-checkpoint tombstone log %+v, want one record with seq 1", tombs)
	}
}

// TestWALTombstoneDedup: applying the same sequence number twice is a
// no-op — the anti-entropy paths re-apply tombstone unions freely, so
// idempotence is what keeps the log (and the WAL) from growing on every
// sync.
func TestWALTombstoneDedup(t *testing.T) {
	opts := Options{Shards: 4, WALDir: filepath.Join(t.TempDir(), "wal")}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	replayFill(t, db, 40, 10)
	if n, err := db.ApplyTombstone(7, tombMatcher(t)); err != nil || n != 10 {
		t.Fatalf("first apply = (%d, %v), want 10", n, err)
	}
	replayFill(t, db, 40, 15) // re-create
	if n, err := db.ApplyTombstone(7, tombMatcher(t)); err != nil || n != 0 {
		t.Fatalf("duplicate apply = (%d, %v), want a 0-count no-op", n, err)
	}
	if tombs := db.Tombstones(); len(tombs) != 1 {
		t.Fatalf("tombstone log has %d records, want 1", len(tombs))
	}
	// A distinct sequence with the same matchers IS applied (a second,
	// later delete of the same selector).
	if n, err := db.ApplyTombstone(9, tombMatcher(t)); err != nil || n != 10 {
		t.Fatalf("second delete = (%d, %v), want 10", n, err)
	}
	if got := db.TombstoneSeq(); got != 9 {
		t.Fatalf("TombstoneSeq = %d, want 9", got)
	}
}

// TestWALTombstoneNoWAL: tombstones on a WAL-less head still delete (the
// in-memory log dedups), they just aren't durable — the cluster oracle
// runs this way.
func TestWALTombstoneNoWAL(t *testing.T) {
	db := MustOpen(DefaultOptions())
	defer db.Close()
	replayFill(t, db, 40, 10)
	if n, err := db.ApplyTombstone(1, tombMatcher(t)); err != nil || n != 10 {
		t.Fatalf("ApplyTombstone = (%d, %v), want 10", n, err)
	}
	if got := len(selectAll(t, db)); got != 30 {
		t.Fatalf("%d series survive, want 30", got)
	}
}
