package tsdb

import (
	"errors"
	"fmt"
	"os"
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

// TestWALDirKeepsItsShardCount: a WAL directory reopened with another
// Options.Shards keeps the shard count its journal was written with — the
// same head, and every file already on disk untouched — and later appends
// stay durable in that layout.
func TestWALDirKeepsItsShardCount(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	db, err := Open(Options{Shards: 8, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	replayFill(t, db, 30, 6)
	if err := db.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(labels.FromStrings(labels.MetricName, "wal_after_checkpoint"), 1<<40, 3); err != nil {
		t.Fatal(err)
	}
	live := selectAll(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirTree(t, walDir)

	re, err := Open(Options{Shards: 2, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if n := re.NumShards(); n != 8 {
		t.Fatalf("reopen asking for 2 shards has %d, want the journal's 8", n)
	}
	assertSeriesEqual(t, selectAll(t, re), live, "8-shard journal reopened asking for 2")
	after := dirTree(t, walDir)
	for name, data := range before {
		if after[name] != data {
			t.Fatalf("reopen changed %s", name)
		}
	}
	if err := re.Append(labels.FromStrings(labels.MetricName, "wal_after_reopen"), 1<<50, 7); err != nil {
		t.Fatal(err)
	}
	live = selectAll(t, re)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(Options{WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if n := re2.NumShards(); n != 8 {
		t.Fatalf("second reopen has %d shards, want 8", n)
	}
	assertSeriesEqual(t, selectAll(t, re2), live, "reopen after reopen+append")
}

// TestWALDirRefusesAnotherLayout: a shard directory that holds another
// shard's series, or whose index lies outside the journal's shard count,
// fails Open with an error that names it instead of replaying series where
// appends and reads never look.
func TestWALDirRefusesAnotherLayout(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	db, err := Open(Options{Shards: 4, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	replayFill(t, db, 20, 3)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	mustFail := func(what, want string) {
		t.Helper()
		if re, err := Open(Options{WALDir: walDir}); err == nil {
			re.Close()
			t.Fatalf("%s: Open succeeded", what)
		} else if !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: Open failed with %q, which does not say %q", what, err, want)
		}
	}
	rename := func(from, to string) {
		t.Helper()
		if err := os.Rename(from, to); err != nil {
			t.Fatal(err)
		}
	}
	s0, s1, tmp := walShardDir(walDir, 0), walShardDir(walDir, 1), filepath.Join(walDir, "swap")
	rename(s0, tmp)
	rename(s1, s0)
	rename(tmp, s1)
	mustFail("shard directories 0 and 1 swapped", "belongs to shard")
	rename(s0, tmp)
	rename(s1, s0)
	rename(tmp, s1)

	extra := walShardDir(walDir, 4)
	if err := os.Mkdir(extra, 0o755); err != nil {
		t.Fatal(err)
	}
	mustFail("a fifth directory in a 4-shard journal", extra)
	if err := os.Remove(extra); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
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

// TestWALClosedRefusesWrites: after Close a write fails with ErrClosed
// instead of being acknowledged into a segment no one flushes, and a reopen
// replays exactly what was written before Close.
func TestWALClosedRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	lset := labels.FromStrings(labels.MetricName, "m")
	if err := db.Append(lset, 1000, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(lset, 2000, 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after Close returned %v, want ErrClosed", err)
	}
	if err := db.CheckpointWAL(); !errors.Is(err, ErrClosed) {
		t.Fatalf("checkpoint after Close returned %v, want ErrClosed", err)
	}
	re, err := Open(Options{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	want := []model.Series{{Labels: lset, Samples: []model.Sample{{T: 1000, V: 1}}}}
	assertSeriesEqual(t, selectAll(t, re), want, "reopen after a write past Close")
	if ws, _ := re.WALStats(); ws.Replay.Samples != 1 || ws.Replay.TornRepairs != 0 {
		t.Fatalf("replay after a write past Close: %+v", ws.Replay)
	}
}
