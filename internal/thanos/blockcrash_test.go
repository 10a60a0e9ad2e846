package thanos

// Crash harness for the block-store lifecycle, extending the WAL
// kill-at-any-byte methodology (internal/tsdb/walcrash_test.go) to block
// publication, compaction and downsampling. The contract under test:
// meta.json inside a non-.tmp directory is the commit point, so any crash
// leaves the store either without the new block (tmp swept, sources
// intact — the write was never acked) or with the complete block — and in
// every case a reopened store serves exactly the samples of the
// uncompacted oracle.

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb"
)

func crashMatchAll() *labels.Matcher {
	return labels.MustMatcher(labels.MatchNotEqual, labels.MetricName, "")
}

func storeSelectAll(t *testing.T, s *Store) []model.Series {
	t.Helper()
	got, err := s.SelectWithHints(model.SelectHints{Start: -1 << 60, End: 1 << 60}, crashMatchAll())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func assertStoreEqual(t *testing.T, got, want []model.Series, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d series, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !got[i].Labels.Equal(want[i].Labels) {
			t.Fatalf("%s: series %d labels %s, want %s", what, i, got[i].Labels, want[i].Labels)
		}
		if !reflect.DeepEqual(got[i].Samples, want[i].Samples) {
			t.Fatalf("%s: series %s: %d samples, want %d", what, got[i].Labels,
				len(got[i].Samples), len(want[i].Samples))
		}
	}
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// preserveOnFail copies the crash-state store directory into
// $BLOCKS_ARTIFACT_DIR when the test fails, so CI can upload the exact
// on-disk state that broke recovery. Best-effort: never fails the test.
func preserveOnFail(t *testing.T, state string) {
	dst := os.Getenv("BLOCKS_ARTIFACT_DIR")
	if dst == "" {
		return
	}
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		target := filepath.Join(dst, t.Name(), filepath.Base(state))
		_ = filepath.Walk(state, func(p string, info os.FileInfo, err error) error {
			if err != nil {
				return nil
			}
			rel, _ := filepath.Rel(state, p)
			out := filepath.Join(target, rel)
			if info.IsDir() {
				_ = os.MkdirAll(out, 0o755)
				return nil
			}
			data, err := os.ReadFile(p)
			if err == nil {
				_ = os.WriteFile(out, data, 0o644)
			}
			return nil
		})
		t.Logf("crash state preserved at %s", target)
	})
}

// seedStore builds a store directory holding nBlocks committed raw blocks
// over disjoint time ranges and returns its path plus the oracle: the full
// contents as served before any crash or compaction.
func seedStore(t *testing.T, nBlocks int) (string, []model.Series) {
	t.Helper()
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < nBlocks; b++ {
		db := seedDB(t, 4, 120, int64(b)*120*15000)
		mustCut(t, store, db, -1<<60, 1<<60)
	}
	oracle := storeSelectAll(t, store)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, oracle
}

// writeTruncatedTmp assembles `<ulid>.tmp` in dir from the donor block's
// files truncated at a global byte offset, in the exact order writeBlockDir
// produces them (chunks, then index, then meta.json): every crash point of
// the publication sequence before the rename.
func writeTruncatedTmp(t *testing.T, dir, donor string, offset int64) string {
	t.Helper()
	tmp := filepath.Join(dir, filepath.Base(donor)+".tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	remaining := offset
	for _, name := range []string{tsdb.ChunksFilename, tsdb.IndexFilename, tsdb.MetaFilename} {
		if remaining <= 0 {
			break
		}
		data, err := os.ReadFile(filepath.Join(donor, name))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(data)) > remaining {
			data = data[:remaining]
		}
		remaining -= int64(len(data))
		if err := os.WriteFile(filepath.Join(tmp, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return tmp
}

func donorSize(t *testing.T, donor string) int64 {
	t.Helper()
	var total int64
	for _, name := range []string{tsdb.ChunksFilename, tsdb.IndexFilename, tsdb.MetaFilename} {
		fi, err := os.Stat(filepath.Join(donor, name))
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// TestBlockPublishCrashAtAnyByte kills a block upload at every phase of the
// durable-write sequence: a .tmp directory truncated at a random byte (any
// prefix of chunks/index/meta.json), a byte-complete .tmp that never got
// renamed, and a fully renamed directory. Recovery must never serve partial
// data: tmp states are swept (the write was never acked — the shipper
// re-cuts it) and only the rename commits the block. The same holds in the
// middle of migrating an older build's store (crashMidMigration).
func TestBlockPublishCrashAtAnyByte(t *testing.T) {
	pristine, oracle := seedStore(t, 2)

	// Donor: an unrelated third block, fully written elsewhere.
	db := seedDB(t, 4, 120, 3*120*15000)
	scratch := t.TempDir()
	donorBlk, err := db.CutPersistentBlock(scratch, -1<<60, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	donor := donorBlk.Dir()
	donorBlk.Close()
	total := donorSize(t, donor)

	trials := 25
	if testing.Short() {
		trials = 6
	}
	rng := rand.New(rand.NewSource(0xC4A5))
	for trial := 0; trial < trials; trial++ {
		state := t.TempDir()
		copyTree(t, pristine, state)
		preserveOnFail(t, state)
		offset := rng.Int63n(total) // crash strictly inside the write
		tmp := writeTruncatedTmp(t, state, donor, offset)

		store, err := NewStore(state)
		if err != nil {
			t.Fatalf("trial %d (offset %d): reopen: %v", trial, offset, err)
		}
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatalf("trial %d: tmp dir survived recovery", trial)
		}
		if store.NumBlocks() != 2 {
			t.Fatalf("trial %d: %d blocks, want 2", trial, store.NumBlocks())
		}
		assertStoreEqual(t, storeSelectAll(t, store), oracle,
			fmt.Sprintf("trial %d offset %d", trial, offset))
		store.Close()
	}

	// Crash between the tmp-dir fsync and the rename: all bytes on disk,
	// commit never happened — still swept.
	t.Run("complete tmp never renamed", func(t *testing.T) {
		state := t.TempDir()
		copyTree(t, pristine, state)
		preserveOnFail(t, state)
		writeTruncatedTmp(t, state, donor, total)
		store, err := NewStore(state)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if store.NumBlocks() != 2 {
			t.Fatalf("%d blocks, want 2", store.NumBlocks())
		}
		assertStoreEqual(t, storeSelectAll(t, store), oracle, "complete tmp")
	})

	// Crash after the rename: the block is committed and must be served.
	t.Run("renamed dir is committed", func(t *testing.T) {
		state := t.TempDir()
		copyTree(t, pristine, state)
		preserveOnFail(t, state)
		dst := filepath.Join(state, filepath.Base(donor))
		copyTree(t, donor, dst)
		store, err := NewStore(state)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if store.NumBlocks() != 3 {
			t.Fatalf("%d blocks, want 3", store.NumBlocks())
		}
		got := storeSelectAll(t, store)
		var n int
		for _, sr := range got {
			n += len(sr.Samples)
		}
		var want int
		for _, sr := range oracle {
			want += len(sr.Samples)
		}
		if n != want+4*120 {
			t.Fatalf("%d samples, want %d", n, want+4*120)
		}
	})

	t.Run("migration cut short", crashMidMigration)
}

// crashMidMigration: a crash in the middle of migrating a store an older
// build wrote (TestDownsampleMigratesOldStore) — the open's deletion of its
// downsampled blocks cut short, or the re-derivation's publication cut at
// any byte after some of its blocks committed. Every state reopens,
// derives, and answers the probe's queries as the migration run to its end
// does.
func crashMidMigration(t *testing.T) {
	ref := t.TempDir()
	copyTree(t, splitBucketStore, ref)
	refStore, err := NewStore(ref)
	if err != nil {
		t.Fatal(err)
	}
	deriveAtProbeEnd(t, refStore)
	want := checkProbe(t, "migrated", refStore)
	var derived []string // in the order they were written: a ULID starts with its time
	for _, m := range refStore.BlockMetas() {
		if m.Resolution > 0 {
			derived = append(derived, m.ULID)
		}
	}
	refStore.Close()
	slices.Sort(derived)
	var old []string // the older build's downsampled blocks
	ents, err := os.ReadDir(splitBucketStore)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		pb, err := tsdb.OpenBlockDir(filepath.Join(splitBucketStore, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if pb.Meta().Resolution > 0 {
			old = append(old, e.Name())
		}
		pb.Close()
	}
	if len(old) == 0 || len(derived) == 0 {
		t.Fatalf("%d old and %d re-derived downsampled blocks", len(old), len(derived))
	}

	trials := 16
	if testing.Short() {
		trials = 4
	}
	rng := rand.New(rand.NewSource(0x319A))
	for trial := 0; trial < trials; trial++ {
		state := t.TempDir()
		copyTree(t, splitBucketStore, state)
		preserveOnFail(t, state)
		what := fmt.Sprintf("trial %d: deletion cut short", trial)
		for _, d := range old {
			if trial%2 == 1 || rng.Intn(2) == 0 {
				if err := os.RemoveAll(filepath.Join(state, d)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if trial%2 == 1 {
			k := rng.Intn(len(derived))
			for _, d := range derived[:k] {
				copyTree(t, filepath.Join(ref, d), filepath.Join(state, d))
			}
			donor := filepath.Join(ref, derived[k])
			offset := rng.Int63n(donorSize(t, donor))
			writeTruncatedTmp(t, state, donor, offset)
			what = fmt.Sprintf("trial %d: %d of %d re-derived blocks committed, the next cut at byte %d", trial, k, len(derived), offset)
		}
		store, err := NewStore(state)
		if err != nil {
			t.Fatalf("%s: reopen: %v", what, err)
		}
		deriveAtProbeEnd(t, store)
		sameAnswers(t, what, checkProbe(t, what, store), want)
		store.Close()
		if t.Failed() {
			t.FailNow()
		}
	}
}

// compactChild runs a real compaction in a scratch copy of the store and
// returns the path of the produced merged block directory.
func compactChild(t *testing.T, pristine string) string {
	t.Helper()
	work := t.TempDir()
	copyTree(t, pristine, work)
	store, err := NewStore(work)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.Compact(nil); err != nil {
		t.Fatal(err)
	}
	for _, m := range store.BlockMetas() {
		if m.Level > 1 {
			return filepath.Join(work, m.ULID)
		}
	}
	t.Fatal("compaction produced no merged block")
	return ""
}

// TestCompactCrashWindowRecovery walks the compaction publication windows:
// crash with a partial merged .tmp (sources intact), crash after the merged
// block committed but before any source was deleted, and crash mid-way
// through source deletion. Every window must reopen to the exact oracle —
// the merged block's Sources list lets recovery GC the leftovers.
func TestCompactCrashWindowRecovery(t *testing.T) {
	pristine, oracle := seedStore(t, 3)
	child := compactChild(t, pristine)

	sources := func(state string) []string {
		entries, err := os.ReadDir(state)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range entries {
			if e.IsDir() && e.Name() != filepath.Base(child) && !tsdb.IsTmpBlockDir(e.Name()) {
				out = append(out, e.Name())
			}
		}
		return out
	}

	t.Run("partial merged tmp", func(t *testing.T) {
		total := donorSize(t, child)
		rng := rand.New(rand.NewSource(0xC0FA))
		trials := 10
		if testing.Short() {
			trials = 3
		}
		for trial := 0; trial < trials; trial++ {
			state := t.TempDir()
			copyTree(t, pristine, state)
			preserveOnFail(t, state)
			writeTruncatedTmp(t, state, child, rng.Int63n(total))
			store, err := NewStore(state)
			if err != nil {
				t.Fatal(err)
			}
			if store.NumBlocks() != 3 {
				t.Fatalf("trial %d: %d blocks, want the 3 sources", trial, store.NumBlocks())
			}
			assertStoreEqual(t, storeSelectAll(t, store), oracle, fmt.Sprintf("trial %d", trial))
			store.Close()
		}
	})

	t.Run("merged committed, sources not yet deleted", func(t *testing.T) {
		state := t.TempDir()
		copyTree(t, pristine, state)
		preserveOnFail(t, state)
		copyTree(t, child, filepath.Join(state, filepath.Base(child)))
		store, err := NewStore(state)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if store.NumBlocks() != 1 {
			t.Fatalf("%d blocks, want 1 (sources GC'd via Sources list)", store.NumBlocks())
		}
		if got := sources(state); len(got) != 0 {
			t.Fatalf("source dirs survived recovery: %v", got)
		}
		assertStoreEqual(t, storeSelectAll(t, store), oracle, "post-GC")
	})

	t.Run("crash mid source deletion", func(t *testing.T) {
		state := t.TempDir()
		copyTree(t, pristine, state)
		preserveOnFail(t, state)
		copyTree(t, child, filepath.Join(state, filepath.Base(child)))
		srcs := sources(state)
		if len(srcs) != 3 {
			t.Fatalf("want 3 source dirs, have %v", srcs)
		}
		if err := os.RemoveAll(filepath.Join(state, srcs[0])); err != nil {
			t.Fatal(err)
		}
		store, err := NewStore(state)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if store.NumBlocks() != 1 {
			t.Fatalf("%d blocks, want 1", store.NumBlocks())
		}
		assertStoreEqual(t, storeSelectAll(t, store), oracle, "partial delete")
	})
}

// TestDownsampleCrashWindow: a crash while publishing a downsampled child
// leaves a .tmp that recovery sweeps, after which Downsample reproduces the
// child; a committed child makes Downsample a no-op while the raw parent —
// a different resolution — is never GC'd.
func TestDownsampleCrashWindow(t *testing.T) {
	pristine, oracle := seedStore(t, 1)

	// Produce the downsampled child in a scratch copy.
	work := t.TempDir()
	copyTree(t, pristine, work)
	ws, err := NewStore(work)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ws.Downsample(1<<60, 5*time.Minute); err != nil || n != 1 {
		t.Fatalf("downsample = %d, %v", n, err)
	}
	var child string
	for _, m := range ws.BlockMetas() {
		if m.Resolution != 0 {
			child = filepath.Join(work, m.ULID)
		}
	}
	ws.Close()
	if child == "" {
		t.Fatal("no downsampled block")
	}

	t.Run("partial child tmp swept, retry succeeds", func(t *testing.T) {
		state := t.TempDir()
		copyTree(t, pristine, state)
		preserveOnFail(t, state)
		writeTruncatedTmp(t, state, child, donorSize(t, child)/2)
		store, err := NewStore(state)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if store.NumBlocks() != 1 {
			t.Fatalf("%d blocks, want 1", store.NumBlocks())
		}
		if n, err := store.Downsample(1<<60, 5*time.Minute); err != nil || n != 1 {
			t.Fatalf("retry downsample = %d, %v", n, err)
		}
		assertStoreEqual(t, storeSelectAll(t, store), oracle, "raw after retry")
	})

	t.Run("committed child is idempotent, parent kept", func(t *testing.T) {
		state := t.TempDir()
		copyTree(t, pristine, state)
		preserveOnFail(t, state)
		copyTree(t, child, filepath.Join(state, filepath.Base(child)))
		store, err := NewStore(state)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if store.NumBlocks() != 2 {
			t.Fatalf("%d blocks, want raw parent + child", store.NumBlocks())
		}
		if n, err := store.Downsample(1<<60, 5*time.Minute); err != nil || n != 0 {
			t.Fatalf("re-downsample = %d, %v (want idempotent no-op)", n, err)
		}
		assertStoreEqual(t, storeSelectAll(t, store), oracle, "raw via committed child")
	})
}

// TestCompactLeavesNoRetiredBlockReachable: neither a compaction nor the
// open's garbage collection of a compaction's sources leaves a retired
// block in the store's block list past its length, where it and its
// resident index would stay reachable for as long as the list's array.
func TestCompactLeavesNoRetiredBlockReachable(t *testing.T) {
	pristine, _ := seedStore(t, 3)
	retired := func(s *Store) []*tsdb.PersistentBlock {
		var out []*tsdb.PersistentBlock
		for _, b := range s.blocks[len(s.blocks):cap(s.blocks)] {
			if b != nil {
				out = append(out, b)
			}
		}
		return out
	}
	work := t.TempDir()
	copyTree(t, pristine, work)
	store, err := NewStore(work)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := store.Compact(nil); err != nil || n != 1 {
		t.Fatalf("Compact = %d, %v; want one compaction", n, err)
	}
	if r := retired(store); len(r) > 0 {
		t.Errorf("after a compaction %d retired blocks are still in the list's array", len(r))
	}
	store.Close()

	state := t.TempDir()
	copyTree(t, pristine, state)
	child := compactChild(t, pristine)
	copyTree(t, child, filepath.Join(state, filepath.Base(child)))
	reopened, err := NewStore(state)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.NumBlocks() != 1 {
		t.Fatalf("%d blocks after the open, want the merged one", reopened.NumBlocks())
	}
	if r := retired(reopened); len(r) > 0 {
		t.Errorf("after the open's garbage collection %d retired blocks are still in the list's array", len(r))
	}
}
