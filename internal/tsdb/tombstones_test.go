package tsdb

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/labels"
)

// tombNow is tombstone seq through db's newest sample, as a ring
// coordinator sends it.
func tombNow(db *DB, seq uint64, ms ...*labels.Matcher) TombstoneRec {
	maxt, _ := db.MaxTime()
	return TombstoneRec{Seq: seq, MaxT: maxt, Matchers: ms}
}

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
				if n, err := db.ApplyTombstone(tombNow(db, 1, tombMatcher(t))); err != nil || n != 10 {
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
	if _, err := db.ApplyTombstone(tombNow(db, 1, tombMatcher(t))); err != nil {
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
	if n, err := db.ApplyTombstone(tombNow(db, 7, tombMatcher(t))); err != nil || n != 10 {
		t.Fatalf("first apply = (%d, %v), want 10", n, err)
	}
	replayFill(t, db, 40, 15) // re-create
	if n, err := db.ApplyTombstone(tombNow(db, 7, tombMatcher(t))); err != nil || n != 0 {
		t.Fatalf("duplicate apply = (%d, %v), want a 0-count no-op", n, err)
	}
	if tombs := db.Tombstones(); len(tombs) != 1 {
		t.Fatalf("tombstone log has %d records, want 1", len(tombs))
	}
	// A distinct sequence with the same matchers IS applied (a second,
	// later delete of the same selector).
	if n, err := db.ApplyTombstone(tombNow(db, 9, tombMatcher(t))); err != nil || n != 10 {
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
	if n, err := db.ApplyTombstone(tombNow(db, 1, tombMatcher(t))); err != nil || n != 10 {
		t.Fatalf("ApplyTombstone = (%d, %v), want 10", n, err)
	}
	if got := len(selectAll(t, db)); got != 30 {
		t.Fatalf("%d series survive, want 30", got)
	}
}

// TestBlockDeletedByFollowsTheLog: what a block resolved of the log, change
// by change — deletes, tombstones applied with a seq below the newest, and
// retirements — is what resolving the whole log afresh gives.
func TestBlockDeletedByFollowsTheLog(t *testing.T) {
	pb := churnedBlock(t, 2000)
	db := MustOpen(Options{Shards: 2})
	if err := db.Append(labels.FromStrings("node", "n1"), 50_000, 1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	job := func() *labels.Matcher {
		return labels.MustMatcher(labels.MatchEqual, "uuid", fmt.Sprint(1_000_000+rng.Intn(200)))
	}
	deleted := 0
	for step := 0; step < 500; step++ {
		maxt := int64(rng.Intn(60_000))
		switch op := rng.Intn(10); {
		case op < 6:
			if _, err := db.Delete(maxt, job(), labels.MustMatcher(labels.MatchEqual, "manager", "slurm")); err != nil {
				t.Fatal(err)
			}
		case op < 8:
			seq := uint64(rng.Int63n(int64(db.TombstoneSeq()) + 1))
			if _, err := db.ApplyTombstone(TombstoneRec{Seq: seq + 1, MaxT: maxt, Matchers: []*labels.Matcher{job()}}); err != nil {
				t.Fatal(err)
			}
		default:
			db.RetireTombstones(func(TombstoneRec) bool { return rng.Intn(2) == 0 })
		}
		log := db.tombs.log.Load()
		got, want := pb.deletedBy(log), deletions(pb, log.recs)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: the block resolved %v of the log, the whole log resolves to %v", step, got, want)
		}
		deleted = max(deleted, len(got))
	}
	if deleted < 100 {
		t.Fatalf("the log never deleted more than %d series of the block", deleted)
	}
}
