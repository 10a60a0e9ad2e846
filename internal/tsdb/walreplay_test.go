package tsdb

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/workpool"
)

// replaySeries builds a deterministic workload: nSeries series, nSamples
// samples each, appended through the batch Appender in scrape-shaped
// commits.
func replayFill(t *testing.T, db *DB, nSeries, nSamples int) {
	t.Helper()
	for i := 0; i < nSamples; i++ {
		app := db.Appender()
		for s := 0; s < nSeries; s++ {
			app.Add(labels.FromStrings(labels.MetricName, "wal_replay_metric",
				"node", fmt.Sprintf("n%03d", s)), int64(i)*15000, float64(i*s)+0.5)
		}
		if _, err := app.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALReplayShardCountEquivalence: a 1-shard WAL round-trip and a
// 16-shard WAL round-trip over identical input must produce identical
// Select results — and both must equal the pre-restart head. This is the
// WAL companion of the PR-1 shard-equivalence tests: durability, like
// querying, must be invisible to shard layout. The matrix also replays each
// journal rewritten as v1 (compress=false, see rewriteWALAsV1): the on-disk
// format, like the layout, must be invisible — all four recoveries are
// required to be byte-equivalent.
func TestWALReplayShardCountEquivalence(t *testing.T) {
	base := t.TempDir()
	type variant struct {
		shards   int
		compress bool
	}
	var variants []variant
	for _, shards := range []int{1, 16} {
		for _, compress := range []bool{false, true} {
			variants = append(variants, variant{shards: shards, compress: compress})
		}
	}
	var results [][]model.Series
	for _, vr := range variants {
		walDir := filepath.Join(base, fmt.Sprintf("wal-%d-%v", vr.shards, vr.compress))
		opts := Options{Shards: vr.shards, WALDir: walDir, WALSegmentSize: 4096}
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		replayFill(t, db, 40, 25)
		live := selectAll(t, db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if !vr.compress {
			rewriteWALAsV1(t, walDir, 4096)
		}
		re, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		recovered := selectAll(t, re)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		assertSeriesEqual(t, recovered, live, fmt.Sprintf("%d-shard compress=%v WAL round-trip", vr.shards, vr.compress))
		results = append(results, recovered)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("WAL replay of variant %+v is not byte-equivalent to %+v", variants[i], variants[0])
		}
	}
}

// TestWALReplayParallelism: replay of a 16-shard WAL must fan out on the
// shared workpool — the same counting assertion style the range evaluator
// uses with its counting Queryable, applied to pool task dispatch.
func TestWALReplayParallelism(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	db, err := Open(Options{Shards: 16, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	replayFill(t, db, 64, 10) // 64 series spread over all 16 shards
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	before := workpool.Tasks()
	re, err := Open(Options{Shards: 16, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if delta := workpool.Tasks() - before; delta < 16 {
		t.Fatalf("replay dispatched %d pool tasks, want >= 16 (one per shard WAL)", delta)
	}
	ws, ok := re.WALStats()
	if !ok {
		t.Fatal("WAL-backed head reports no WAL stats")
	}
	r := ws.Replay
	if r.Shards != 16 || r.Samples != 64*10 || r.Series != 64 || r.TornRepairs != 0 {
		t.Fatalf("replay stats off: %+v", r)
	}
	if r.Duration <= 0 {
		t.Fatal("replay duration not measured")
	}
}

// TestWALShardCountChangeRebuild: reopening a WAL with a different shard
// count re-routes every series to the new layout and rewrites the journal
// so each shard's WAL is self-contained again.
func TestWALShardCountChangeRebuild(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	db, err := Open(Options{Shards: 8, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	replayFill(t, db, 30, 12)
	live := selectAll(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Shards: 2, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	assertSeriesEqual(t, selectAll(t, re), live, "8->2 shard reopen")
	ws, _ := re.WALStats()
	if !ws.Replay.Rebuilt {
		t.Fatal("shard-count change did not rebuild the WAL")
	}
	// The old layout must be gone: exactly 2 shard dirs remain.
	dirs, err := filepath.Glob(filepath.Join(walDir, "shard-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 2 {
		t.Fatalf("rebuild left %d shard dirs, want 2", len(dirs))
	}
	// Appends keep working in the new layout, durably.
	if err := re.Append(labels.FromStrings(labels.MetricName, "wal_after_reshard"), 1<<50, 7); err != nil {
		t.Fatal(err)
	}
	after := selectAll(t, re)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(Options{Shards: 2, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	assertSeriesEqual(t, selectAll(t, re2), after, "reopen after reshard+append")
}

// TestWALConcurrentCommitsReplayExact: many goroutines with their own batch
// Appenders race into the same WAL-backed head, including deliberate
// same-series contention (out-of-order losers are skipped). Whatever state
// the live head ends up with, a reopen must reproduce it exactly — the
// shard WAL mutex spans apply+journal precisely so log order can never
// diverge from apply order under concurrency.
func TestWALConcurrentCommitsReplayExact(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	db, err := Open(Options{Shards: 8, WALDir: walDir, WALSegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	var wg sync.WaitGroup
	for wkr := 0; wkr < writers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			app := db.Appender()
			for i := 0; i < 50; i++ {
				// Private series: always in-order.
				app.Add(labels.FromStrings(labels.MetricName, "wal_conc_private",
					"writer", fmt.Sprintf("w%d", wkr)), int64(i)*100, float64(i))
				// Contended series: all writers race on the same timestamps,
				// so most appends lose as out-of-order — by design.
				app.Add(labels.FromStrings(labels.MetricName, "wal_conc_shared"),
					int64(i)*100+int64(wkr), float64(wkr))
				if _, err := app.Commit(); err != nil {
					t.Errorf("writer %d: %v", wkr, err)
					return
				}
			}
		}(wkr)
	}
	wg.Wait()
	live := selectAll(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Shards: 8, WALDir: walDir, WALSegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSeriesEqual(t, selectAll(t, re), live, "concurrent-writer round-trip")
}

// TestWALStatsInStats: the head's Stats() surfaces the WAL summary so the
// sims and dashboards can report durability health alongside series counts.
func TestWALStatsInStats(t *testing.T) {
	memOnly := MustOpen(Options{Shards: 2})
	if st := memOnly.Stats(); st.WAL != nil {
		t.Fatal("memory-only head reports WAL stats")
	}
	walDir := filepath.Join(t.TempDir(), "wal")
	db, err := Open(Options{Shards: 2, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Append(labels.FromStrings(labels.MetricName, "m"), 1, 1); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.WAL == nil || st.WAL.Records == 0 {
		t.Fatalf("WAL-backed head's Stats misses WAL activity: %+v", st.WAL)
	}
}

// TestWALDirHasOneOwner: a second Open of a WAL directory whose head is
// still open fails with an error naming the directory, and succeeds once
// the first is closed. Replay passes over the lock file.
func TestWALDirHasOneOwner(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(labels.FromStrings(labels.MetricName, "m"), 1000, 1); err != nil {
		t.Fatal(err)
	}
	if second, err := Open(Options{WALDir: dir}); err == nil {
		second.Close()
		t.Fatal("a second Open of a live WAL directory succeeded")
	} else if !strings.Contains(err.Error(), dir) {
		t.Errorf("second Open failed with %q, which does not name %s", err, dir)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(Options{WALDir: dir})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	defer db.Close()
	if ws, _ := db.WALStats(); ws.Replay.Samples != 1 || ws.Replay.TornRepairs != 0 {
		t.Errorf("replay after the lock: %d samples, %d torn repairs; want 1, 0", ws.Replay.Samples, ws.Replay.TornRepairs)
	}
}
