package tsdb

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

// walV2LegacyFixture holds a journal written by the last build that
// journalled ref deletes and unbounded matcher tombstones (see its README).
const walV2LegacyFixture = "testdata/wal-v2-legacy-deletes"

// TestWALLegacyDeletesFixtureReplaysToGolden: a v2 journal holding ref
// deletes (type 6), unbounded tombstones (type 8) and checkpoints replays to
// exactly the head the build that wrote it held when it closed, and its
// tombstones keep the meaning they were written with: no time bound.
func TestWALLegacyDeletesFixtureReplaysToGolden(t *testing.T) {
	types := map[byte]int{}
	checkpoints := 0
	files, _ := filepath.Glob(filepath.Join(walV2LegacyFixture, "wal", "shard-*", "*"))
	for _, f := range files {
		if walFormatOf(t, f) != walFormatV2 {
			t.Fatalf("fixture file %s is not format v2", f)
		}
		if filepath.Base(f) == walCheckpointFile {
			checkpoints++
		}
		for _, r := range walRecordsOf(t, f) {
			types[r.typ]++
		}
	}
	if types[walRecDeletesV2] == 0 || types[walRecTombstoneV2] == 0 || checkpoints == 0 {
		t.Fatalf("fixture holds record types %v and %d checkpoints, want ref deletes, tombstones and a checkpoint", types, checkpoints)
	}

	want, wantTombs := walFixtureGolden(t, walV2LegacyFixture)
	walDir := filepath.Join(t.TempDir(), "wal")
	copyDir(t, filepath.Join(walV2LegacyFixture, "wal"), walDir)
	db, err := Open(Options{Shards: 16, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n := db.NumShards(); n != 2 {
		t.Fatalf("2-shard fixture opened with %d shards", n)
	}
	assertSeriesEqual(t, selectAll(t, db), want, "legacy-deletes fixture replay vs golden")
	tombs := db.Tombstones()
	if len(tombs) != len(wantTombs) {
		t.Fatalf("replayed %d tombstones, want %d", len(tombs), len(wantTombs))
	}
	for _, tr := range tombs {
		var ms []string
		for _, m := range tr.Matchers {
			ms = append(ms, m.String())
		}
		if !reflect.DeepEqual(ms, wantTombs[tr.Seq]) || tr.MaxT != math.MaxInt64 {
			t.Fatalf("tombstone seq %d replayed as %v through %d, want %v unbounded", tr.Seq, ms, tr.MaxT, wantTombs[tr.Seq])
		}
	}
	ws, _ := db.WALStats()
	if ws.Replay.TornRepairs != 0 || ws.Replay.Dropped != 0 {
		t.Fatalf("clean fixture replayed with repairs: %+v", ws.Replay)
	}
}
