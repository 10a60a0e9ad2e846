package thanos

import (
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

func seedDB(t *testing.T, nSeries, nSamples int, startMs int64) *tsdb.DB {
	t.Helper()
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	for i := 0; i < nSeries; i++ {
		ls := labels.FromStrings(labels.MetricName, "m", "s", fmt.Sprintf("%d", i))
		for j := 0; j < nSamples; j++ {
			if err := db.Append(ls, startMs+int64(j)*15000, float64(i*1000+j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// mustCut cuts [mint, maxt] of db into store, failing the test unless a
// block was registered.
func mustCut(t testing.TB, store *Store, db *tsdb.DB, mint, maxt int64) {
	t.Helper()
	if cut, err := store.CutHead(db, mint, maxt); err != nil || !cut {
		t.Fatalf("CutHead[%d, %d] = %v, %v; want a block", mint, maxt, cut, err)
	}
}

func TestUploadAndSelect(t *testing.T) {
	db := seedDB(t, 3, 100, 0)
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustCut(t, store, db, 0, 1<<60)
	got, err := store.SelectWithHints(model.SelectHints{Start: 0, End: 1 << 60}, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || len(got[0].Samples) != 100 {
		t.Fatalf("select = %d series / %d samples", len(got), len(got[0].Samples))
	}
}

func TestStorePersistence(t *testing.T) {
	dir := t.TempDir()
	db := seedDB(t, 2, 50, 0)
	store, _ := NewStore(dir)
	mustCut(t, store, db, 0, 1<<60)
	store.Close()

	// Reopen from disk.
	store2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if store2.NumBlocks() != 1 {
		t.Fatalf("blocks after reopen = %d", store2.NumBlocks())
	}
	got, _ := store2.SelectWithHints(model.SelectHints{Start: 0, End: 1 << 60}, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m"))
	if len(got) != 2 {
		t.Errorf("series after reopen = %d", len(got))
	}
}

func TestOverlappingBlocksDeduplicated(t *testing.T) {
	db := seedDB(t, 1, 100, 0)
	store, _ := NewStore("")
	mustCut(t, store, db, 0, 800000)
	mustCut(t, store, db, 600000, 1<<60) // overlaps the first
	got, _ := store.SelectWithHints(model.SelectHints{Start: 0, End: 1 << 60}, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m"))
	if len(got) != 1 {
		t.Fatalf("series = %d", len(got))
	}
	if len(got[0].Samples) != 100 {
		t.Errorf("dedup failed: %d samples", len(got[0].Samples))
	}
	for i := 1; i < len(got[0].Samples); i++ {
		if got[0].Samples[i].T <= got[0].Samples[i-1].T {
			t.Fatal("samples not strictly increasing")
		}
	}
}

// TestEmptyBlockDropped: cutting a range that holds no samples writes no
// directory, registers no block and does not count as a ship.
func TestEmptyBlockDropped(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	if err := db.Append(labels.FromStrings(labels.MetricName, "m"), 5000, 1); err != nil {
		t.Fatal(err)
	}
	if cut, err := store.CutHead(db, 0, 1000); err != nil || cut {
		t.Fatalf("CutHead over an empty range = %v, %v; want no block", cut, err)
	}
	sc := &Sidecar{DB: tsdb.MustOpen(tsdb.DefaultOptions()), Store: store}
	if err := sc.Ship(time.UnixMilli(1000)); err != nil {
		t.Fatal(err)
	}
	if sc.Shipped != 0 {
		t.Errorf("Shipped = %d after shipping an empty head", sc.Shipped)
	}
	if store.NumBlocks() != 0 {
		t.Error("empty block registered")
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Errorf("empty cut left %d entries in the store directory, want only the lock file (err %v)", len(ents), err)
	}
}

// TestNewStoreRejectsLegacyBlockFile: a single-file .blk block from before
// block directories is neither skipped nor migrated — the open fails naming
// it, and the directory is left exactly as it was.
func TestNewStoreRejectsLegacyBlockFile(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustCut(t, store, seedDB(t, 1, 10, 0), 0, 1<<60)
	store.Close()
	legacy := filepath.Join(dir, fmt.Sprintf("block-%020d-%020d.blk", 0, 1000))
	if err := os.WriteFile(legacy, []byte("CEEMSBLK"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "0000-aborted.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadDir(dir)
	if _, err := NewStore(dir); err == nil || !strings.Contains(err.Error(), filepath.Base(legacy)) {
		t.Fatalf("NewStore over a .blk file: err = %v, want one naming %s", err, filepath.Base(legacy))
	}
	after, _ := os.ReadDir(dir)
	// The block, the .blk file, the .tmp directory and the lock file.
	if len(after) != len(before) || len(after) != 4 {
		t.Fatalf("failed open changed the directory: %d entries before, %d after", len(before), len(after))
	}
}

func TestSidecarShipAndTruncate(t *testing.T) {
	db := seedDB(t, 2, 200, 0) // samples at 0..2985000 ms
	store, _ := NewStore("")
	sc := &Sidecar{DB: db, Store: store, HeadRetention: 10 * time.Minute}

	// Ship at t=1500s.
	if err := sc.Ship(time.UnixMilli(1_500_000)); err != nil {
		t.Fatal(err)
	}
	if store.NumBlocks() != 1 || sc.Shipped != 1 {
		t.Fatalf("blocks = %d shipped = %d", store.NumBlocks(), sc.Shipped)
	}
	// Head was truncated to the retention window.
	if mint, ok := db.MinTime(); !ok || mint < 1_500_000-600_000 {
		t.Errorf("head not truncated: mint = %d", mint)
	}
	// Second ship picks up where the first ended, no overlap.
	if err := sc.Ship(time.UnixMilli(3_000_000)); err != nil {
		t.Fatal(err)
	}
	got, _ := store.SelectWithHints(model.SelectHints{Start: 0, End: 1 << 60}, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m"))
	if len(got) != 2 {
		t.Fatalf("series = %d", len(got))
	}
	if len(got[0].Samples) != 200 {
		t.Errorf("cold samples = %d, want all 200", len(got[0].Samples))
	}
	// Ship with nothing new is a no-op.
	before := store.NumBlocks()
	sc.Ship(time.UnixMilli(3_000_000))
	if store.NumBlocks() != before {
		t.Error("empty ship created a block")
	}
}

// TestSidecarShipReportsCheckpointFailure: a WAL-backed head whose shard
// journal cannot checkpoint after the post-ship truncation makes Ship fail,
// instead of reporting a ship that left the journal unbounded.
func TestSidecarShipReportsCheckpointFailure(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	db, err := tsdb.Open(tsdb.Options{Shards: 2, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 4; i++ {
		ls := labels.FromStrings(labels.MetricName, "m", "s", fmt.Sprintf("%d", i))
		for j := int64(0); j < 100; j++ {
			if err := db.Append(ls, j*15000, float64(j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := os.RemoveAll(filepath.Join(walDir, "shard-0001")); err != nil {
		t.Fatal(err)
	}
	store, _ := NewStore("")
	sc := &Sidecar{DB: db, Store: store, HeadRetention: 10 * time.Minute}
	if err := sc.Ship(time.UnixMilli(1_500_000)); err == nil {
		t.Fatal("Ship succeeded though a shard's WAL checkpoint could not be written")
	}
	if store.NumBlocks() != 1 {
		t.Errorf("blocks = %d, want the one cut before the truncation", store.NumBlocks())
	}
}

// TestSidecarRestartShipsNoBlockTwice: a WAL-backed head and a store
// directory, ships or maintenance passes keeping 2x the cadence in the head,
// then both are reopened as a restarted process does and one more ship
// runs. The replayed head still holds shipped samples; the first ship after
// the restart must start after the newest stored raw block, so the raw
// blocks end with every appended sample exactly once. In the maintain leg
// the store also holds 5m blocks, which end on a bucket boundary rather
// than where the shipped samples do, so they must not move the start.
func TestSidecarRestartShipsNoBlockTwice(t *testing.T) {
	const step = 15_000 // ms
	for _, c := range []struct {
		name     string
		cadence  time.Duration
		maintain bool
	}{
		{"ship", 30 * time.Minute, false},
		{"maintain", time.Minute, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			walDir, storeDir := filepath.Join(t.TempDir(), "wal"), t.TempDir()
			open := func() (*tsdb.DB, *Store) {
				db, err := tsdb.Open(tsdb.Options{Shards: 2, WALDir: walDir})
				if err != nil {
					t.Fatal(err)
				}
				store, err := NewStore(storeDir)
				if err != nil {
					t.Fatal(err)
				}
				return db, store
			}
			at := func(i int) time.Time { return time.UnixMilli((time.Duration(i) * c.cadence).Milliseconds()) }
			ls := labels.FromStrings(labels.MetricName, "m")
			appended := 0
			appendUntil := func(db *tsdb.DB, end time.Time) {
				for ts := int64(appended+1) * step; ts <= end.UnixMilli(); ts += step {
					if err := db.Append(ls, ts, float64(appended)); err != nil {
						t.Fatal(err)
					}
					appended++
				}
			}
			// stored counts the raw blocks' samples and reports whether the
			// store holds a 5m block.
			stored := func(store *Store) (raw int, aggr bool) {
				for _, m := range store.BlockMetas() {
					if m.Resolution == 0 {
						raw += m.Stats.NumSamples
					}
					aggr = aggr || m.Resolution == (5*time.Minute).Milliseconds()
				}
				return raw, aggr
			}

			db, store := open()
			sc := &Sidecar{DB: db, Store: store, HeadRetention: 2 * c.cadence}
			i := 0
			for done := false; !done; {
				i++
				appendUntil(db, at(i))
				if c.maintain {
					if _, _, err := sc.Maintain(at(i), c.cadence); err != nil {
						t.Fatal(err)
					}
					_, done = stored(store)
				} else {
					if err := sc.Ship(at(i)); err != nil {
						t.Fatal(err)
					}
					done = i == 4
				}
				if i > 60 {
					t.Fatal("no 5m block after 60 passes")
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			store.Close()

			db, store = open()
			defer db.Close()
			defer store.Close()
			if mint, ok := db.MinTime(); !ok || mint >= at(i).UnixMilli() {
				t.Fatalf("replayed head MinTime = %d, %v; want shipped samples still in the head", mint, ok)
			}
			appendUntil(db, at(i+1))
			sc = &Sidecar{DB: db, Store: store, HeadRetention: 2 * c.cadence}
			if err := sc.Ship(at(i + 1)); err != nil {
				t.Fatal(err)
			}
			if raw, _ := stored(store); raw != appended {
				t.Errorf("raw blocks hold %d samples for %d appended: the first ship after the restart re-cut or skipped history", raw, appended)
			}
		})
	}
}

func TestQuerierMergesHotAndCold(t *testing.T) {
	db := seedDB(t, 1, 100, 0)
	store, _ := NewStore("")
	sc := &Sidecar{DB: db, Store: store, HeadRetention: 5 * time.Minute}
	sc.Ship(time.UnixMilli(1_000_000))

	q := &Querier{Hot: db, Cold: store}
	got, err := q.SelectWithHints(model.SelectHints{Start: 0, End: 1 << 60}, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("series = %d", len(got))
	}
	// All 100 samples visible across the hot/cold split.
	if len(got[0].Samples) != 100 {
		t.Errorf("merged samples = %d, want 100", len(got[0].Samples))
	}
}

func TestDownsample(t *testing.T) {
	db := seedDB(t, 1, 400, 0) // 100 minutes at 15s
	store, _ := NewStore(t.TempDir())
	mustCut(t, store, db, 0, 1<<60)

	n, err := store.Downsample(1<<60, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("downsampled %d blocks", n)
	}
	// Downsampling is additive: the raw block stays next to its sibling,
	// and a plain (raw-only) Select is unchanged.
	if store.NumBlocks() != 2 {
		t.Fatalf("blocks = %d, want raw + downsampled", store.NumBlocks())
	}
	m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m")
	got, _ := store.SelectWithHints(model.SelectHints{Start: 0, End: 1 << 60}, m)
	if len(got) != 1 || len(got[0].Samples) != 400 {
		t.Fatalf("raw select = %d series / %d samples, want 1/400", len(got), len(got[0].Samples))
	}
	// A wide-step query whose function admits aggregates reads the 5m
	// stream instead: 400 samples over 100 min → 20 buckets, of which the
	// first 19 are whole. The last, [95m, 100m), ends after the block's last
	// sample, so a later block could add to it: it is not derived, and its
	// 20 samples are read raw.
	hints := model.SelectHints{
		Start: 0, End: 1 << 60,
		Step: 10 * 5 * 60 * 1000, // step spans 10 downsampled points
		Func: "avg_over_time",
	}
	got, err = store.SelectWithHints(hints, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatal("series lost")
	}
	if len(got[0].Samples) != 19+20 {
		t.Errorf("downsampled samples = %d, want 19 buckets and 20 raw samples", len(got[0].Samples))
	}
	// Bucket means preserve the overall mean of a linear ramp.
	var sum float64
	for _, s := range got[0].Samples[:19] {
		sum += s.V
	}
	if mean := sum / 19; mean != 189.5 {
		t.Errorf("downsampled mean = %v, want 189.5, the mean of samples 0 to 379", mean)
	}
	// A counter function must never see aggregate points.
	hints.Func = "rate"
	got, err = store.SelectWithHints(hints, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0].Samples) != 400 {
		t.Errorf("rate served %d samples, want 400 raw", len(got[0].Samples))
	}
	// Idempotent: a second pass finds the existing sibling and does nothing.
	if n, err := store.Downsample(1<<60, 5*time.Minute); err != nil || n != 0 {
		t.Errorf("second downsample: n=%d err=%v", n, err)
	}
	// Invalid resolution.
	if _, err := store.Downsample(0, 0); err == nil {
		t.Error("zero resolution accepted")
	}
}

// TestDownsampleStaleOnlyRangeDecodedOnce: a raw block holding nothing but
// staleness markers is derived once, as a block with no series that moves
// every later pass past its range. Each derivation reads its sources once,
// so the derivations counted over several passes are the decodes: one.
func TestDownsampleStaleOnlyRangeDecodedOnce(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.Instrument(telemetry.NewRegistry())
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	for j := int64(0); j < 40; j++ {
		if err := db.Append(labels.FromStrings(labels.MetricName, "m"), j*15_000, model.StaleNaN()); err != nil {
			t.Fatal(err)
		}
	}
	mustCut(t, store, db, 0, 1<<60)
	const passes = 4
	var derived []os.DirEntry
	for pass := 1; pass <= passes; pass++ {
		want := 0
		if pass == 1 {
			want = 1
		}
		if n, err := store.Downsample(1<<60, 5*time.Minute); err != nil || n != want {
			t.Fatalf("pass %d: downsampled %d blocks, err %v; want %d", pass, n, err, want)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if pass == 1 {
			derived = ents
		} else if !reflect.DeepEqual(ents, derived) {
			t.Fatalf("pass %d: store directory holds %v, want %v as after the first", pass, ents, derived)
		}
	}
	metas := store.BlockMetas()
	if len(metas) != 2 || metas[1].Resolution != (5*time.Minute).Milliseconds() || metas[1].Stats.NumSeries != 0 || metas[1].MinTime != 0 || metas[1].MaxTime != 300_000-1 {
		// The raw block ends at 585000, inside the second bucket, which waits.
		t.Fatalf("blocks %+v, want the raw one and a 5m one of no series over [0, 299999]", metas)
	}
	if got := store.metrics.downsampleSeconds.Count(); got != 1 {
		t.Fatalf("the stale-only range was decoded %d times in %d passes, want once", got, passes)
	}
}

func BenchmarkStoreSelect(b *testing.B) {
	src := tsdb.MustOpen(tsdb.DefaultOptions())
	for i := 0; i < 100; i++ {
		ls := labels.FromStrings(labels.MetricName, "m", "s", fmt.Sprintf("%d", i))
		for j := 0; j < 500; j++ {
			src.Append(ls, int64(j)*15000, float64(j))
		}
	}
	store, _ := NewStore("")
	for c := 0; c < 4; c++ {
		mustCut(b, store, src, int64(c)*1_875_000, int64(c+1)*1_875_000-1)
	}
	m := labels.MustMatcher(labels.MatchEqual, "s", "50")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.SelectWithHints(model.SelectHints{Start: 0, End: 1 << 60}, m)
	}
}

// The fan-in Querier must expose label metadata from both tiers so the
// promapi label endpoints work in front of it.
func TestQuerierLabelStore(t *testing.T) {
	cold := seedDB(t, 2, 10, 0) // series s=0,1 shipped to the store
	store, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	mustCut(t, store, cold, 0, 1<<60)
	hot := tsdb.MustOpen(tsdb.DefaultOptions())
	if err := hot.Append(labels.FromStrings(labels.MetricName, "m", "s", "9", "zone", "hot"), 5000, 1); err != nil {
		t.Fatal(err)
	}
	q := &Querier{Hot: hot, Cold: store}

	wantNames := []string{labels.MetricName, "s", "zone"}
	if got := q.LabelNames(); !equalStrings(got, wantNames) {
		t.Errorf("LabelNames = %v, want %v", got, wantNames)
	}
	wantS := []string{"0", "1", "9"}
	if got := q.LabelValues("s"); !equalStrings(got, wantS) {
		t.Errorf(`LabelValues("s") = %v, want %v`, got, wantS)
	}
	if got := q.LabelValues("zone"); !equalStrings(got, []string{"hot"}) {
		t.Errorf(`LabelValues("zone") = %v`, got)
	}
	if got := q.LabelValues("absent"); len(got) != 0 {
		t.Errorf(`LabelValues("absent") = %v`, got)
	}
	checkLabels(t, "after register", q, labelOracle(t, store, hot))
	checkLabels(t, "store after register", store, labelOracle(t, store, nil))

	if n, err := store.Downsample(1<<60, time.Minute); err != nil || n != 1 {
		t.Fatalf("Downsample = %d, %v; want one block", n, err)
	}
	checkLabels(t, "after downsampling", q, labelOracle(t, store, hot))

	more := tsdb.MustOpen(tsdb.DefaultOptions())
	if err := more.Append(labels.FromStrings(labels.MetricName, "m", "s", "5", "rack", "r1"), 200_000, 1); err != nil {
		t.Fatal(err)
	}
	mustCut(t, store, more, 0, 1<<60)
	last := tsdb.MustOpen(tsdb.DefaultOptions())
	if err := last.Append(labels.FromStrings(labels.MetricName, "m", "s", "6", "rack", "r2"), 300_000, 1); err != nil {
		t.Fatal(err)
	}
	mustCut(t, store, last, 0, 1<<60)
	if n, err := store.Compact(nil); err != nil || n != 1 {
		t.Fatalf("Compact = %d, %v; want one compaction", n, err)
	}
	checkLabels(t, "after compaction", q, labelOracle(t, store, hot))
	checkLabels(t, "store after compaction", store, labelOracle(t, store, nil))
}

// labelOracle lists labels the brute-force way: every label of every series
// of every block the store has registered, plus the head's when head is not
// nil, as value lists sorted and free of repeats, by name.
func labelOracle(t *testing.T, store *Store, head *tsdb.DB) map[string][]string {
	t.Helper()
	all := labels.MustMatcher(labels.MatchRegexp, labels.MetricName, ".+")
	var series []model.Series
	store.mu.RLock()
	for _, b := range store.blocks {
		bs, err := tsdb.Sources{Blocks: []*tsdb.PersistentBlock{b}}.Select(model.SelectHints{Start: math.MinInt64, End: math.MaxInt64}, all)
		if err != nil {
			t.Fatal(err)
		}
		series = append(series, bs...)
	}
	store.mu.RUnlock()
	if head != nil {
		hs, err := head.SelectWithHints(model.SelectHints{Start: math.MinInt64, End: math.MaxInt64}, all)
		if err != nil {
			t.Fatal(err)
		}
		series = append(series, hs...)
	}
	sets := map[string]map[string]bool{}
	for _, s := range series {
		for _, l := range s.Labels {
			if sets[l.Name] == nil {
				sets[l.Name] = map[string]bool{}
			}
			sets[l.Name][l.Value] = true
		}
	}
	out := map[string][]string{}
	for name, vs := range sets {
		out[name] = slices.Sorted(maps.Keys(vs))
	}
	return out
}

// checkLabels fails unless ls lists exactly the oracle's names and values.
func checkLabels(t *testing.T, when string, ls interface {
	LabelNames() []string
	LabelValues(name string) []string
}, want map[string][]string) {
	t.Helper()
	if got, names := ls.LabelNames(), slices.Sorted(maps.Keys(want)); !slices.Equal(got, names) {
		t.Errorf("%s: LabelNames = %v, the blocks and head carry %v", when, got, names)
	}
	for name, vs := range want {
		if got := ls.LabelValues(name); !slices.Equal(got, vs) {
			t.Errorf("%s: LabelValues(%q) = %v, the blocks and head carry %v", when, name, got, vs)
		}
	}
	if got := ls.LabelValues("absent"); len(got) != 0 {
		t.Errorf(`%s: LabelValues("absent") = %v`, when, got)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStoreLabelValuesForgetTombstonedSeries: once a compaction drops a
// tombstoned job's series, its uuid leaves the label listing at once — the
// running store answers what a store freshly opened on the directory does.
func TestStoreLabelValuesForgetTombstonedSeries(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	for _, uuid := range []string{"1", "2", "3"} {
		ls := labels.FromStrings(labels.MetricName, "m", "uuid", uuid, "only", "on"+uuid)
		for ts := int64(0); ts < 300; ts += 10 {
			if err := db.Append(ls, ts, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustCut(t, store, db, 0, 99)
	mustCut(t, store, db, 100, 199)
	mustCut(t, store, db, 200, 299)
	if got := store.LabelValues("uuid"); !equalStrings(got, []string{"1", "2", "3"}) {
		t.Fatalf(`LabelValues("uuid") before the delete = %v`, got)
	}
	checkLabels(t, "after register", store, labelOracle(t, store, nil))

	if _, err := db.Delete(299, labels.MustMatcher(labels.MatchEqual, "uuid", "2")); err != nil {
		t.Fatal(err)
	}
	if n, err := store.Compact(db.Tombstones()); err != nil || n != 1 {
		t.Fatalf("Compact = %d, %v; want one compaction", n, err)
	}
	if got := store.LabelValues("uuid"); !equalStrings(got, []string{"1", "3"}) {
		t.Errorf(`LabelValues("uuid") after compaction = %v, want [1 3]`, got)
	}
	checkLabels(t, "after compaction with tombstones", store, labelOracle(t, store, nil))
	if n, err := store.Downsample(1<<60, 100*time.Millisecond); err != nil || n != 1 {
		t.Fatalf("Downsample = %d, %v; want one block", n, err)
	}
	checkLabels(t, "after downsampling", store, labelOracle(t, store, nil))
	// A directory has one open store: read the lists, close, then reopen.
	names, values := store.LabelNames(), map[string][]string{}
	for _, name := range names {
		values[name] = store.LabelValues(name)
	}
	store.Close()
	fresh, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if want := fresh.LabelNames(); !equalStrings(names, want) {
		t.Errorf("LabelNames = %v, a fresh store on the directory says %v", names, want)
	}
	for _, name := range fresh.LabelNames() {
		if got, want := values[name], fresh.LabelValues(name); !equalStrings(got, want) {
			t.Errorf("LabelValues(%q) = %v, a fresh store on the directory says %v", name, got, want)
		}
	}
}

// TestQuerierSkipsColdSideOutsideBlocks: a window no block reaches is
// answered by the head alone — same result as the two tiers merged, and
// nothing spent on the cold side: no join, no sort up front, the head-only
// read allocates what the head does.
func TestQuerierSkipsColdSideOutsideBlocks(t *testing.T) {
	opts := tsdb.DefaultOptions()
	opts.Shards = 1 // a one-shard select allocates the same every time
	db := tsdb.MustOpen(opts)
	ls := labels.FromStrings(labels.MetricName, "m", "s", "0")
	for ts := int64(0); ts < 3000; ts += 10 {
		if err := db.Append(ls, ts, float64(ts)); err != nil {
			t.Fatal(err)
		}
	}
	store, _ := NewStore("")
	mustCut(t, store, db, 1000, 1999)
	q := &Querier{Hot: db, Cold: store}
	m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "m")

	for _, w := range []struct {
		name       string
		mint, maxt int64
		reaches    bool
	}{
		{"older than every block", 0, 999, false},
		{"newer than every block", 2000, 2999, false},
		{"touching the first sample", 0, 1000, true},
		{"touching the last sample", 1990, 2999, true},
		{"spanning", 0, 2999, true},
	} {
		hints := model.SelectHints{Start: w.mint, End: w.maxt}
		got, err := q.SelectWithHints(hints, m)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := store.SelectWithHints(hints, m)
		if err != nil {
			t.Fatal(err)
		}
		hot, err := db.SelectWithHints(hints, m)
		if err != nil {
			t.Fatal(err)
		}
		if want := model.MergeSeries([][]model.Series{cold, hot}); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: querier returns %v, the two sides merged give %v", w.name, got, want)
		}
		if (len(cold) > 0) != w.reaches {
			t.Errorf("%s: store returned %d series", w.name, len(cold))
		}
		if w.reaches {
			continue
		}
		viaQuerier := testing.AllocsPerRun(50, func() { q.SelectWithHints(hints, m) })
		headOnly := testing.AllocsPerRun(50, func() { db.SelectWithHints(hints, m) })
		if viaQuerier != headOnly {
			t.Errorf("%s: querier allocates %.0f times, the head alone %.0f", w.name, viaQuerier, headOnly)
		}
	}
}

// TestBlockStoreHasOneOwner: a second NewStore of a directory whose store
// is still open fails with an error naming the directory and leaves its
// blocks alone, and succeeds once the first is closed. The sweep at open
// passes over the lock file. An in-memory store takes no lock.
func TestBlockStoreHasOneOwner(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustCut(t, store, seedDB(t, 2, 50, 0), 0, 1<<60)
	if second, err := NewStore(dir); err == nil {
		second.Close()
		t.Fatal("a second NewStore of a live directory succeeded")
	} else if !strings.Contains(err.Error(), dir) {
		t.Errorf("second NewStore failed with %q, which does not name %s", err, dir)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store, err = NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore after Close: %v", err)
	}
	defer store.Close()
	if store.NumBlocks() != 1 {
		t.Errorf("reopened store holds %d blocks, want 1", store.NumBlocks())
	}
	for range 2 {
		mem, err := NewStore("")
		if err != nil {
			t.Fatalf("in-memory NewStore: %v", err)
		}
		defer mem.Close()
	}
}
