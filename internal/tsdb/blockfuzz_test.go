package tsdb

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
)

// FuzzOpenBlockDir: a block directory of any meta.json, index and chunks
// bytes opens to an error or a block, never a panic; a block that opens
// reads every series of every stored aggregate to an error or samples; and
// the open and the reads together allocate in proportion to the bytes. The
// seeds are a cut, a compacted and a downsampled block, and the three v1
// blocks of testdata/blocks-v1.
func FuzzOpenBlockDir(f *testing.F) {
	parent := f.TempDir()
	cut := func(from int64) *PersistentBlock {
		db := MustOpen(Options{Shards: 2, MaxSamplesPerChunk: 50})
		for i := 0; i < 6; i++ {
			ls := labels.FromStrings(labels.MetricName, "blk", "s", fmt.Sprintf("%03d", i))
			for j := int64(0); j < 120; j++ {
				if err := db.Append(ls, from+j*1000, float64(j)); err != nil {
					f.Fatal(err)
				}
			}
		}
		pb, err := db.CutPersistentBlock(parent, -1<<60, 1<<60)
		if err != nil {
			f.Fatal(err)
		}
		return pb
	}
	a, b := cut(0), cut(60_000)
	compacted, err := CompactPersistentBlocks(parent, []*PersistentBlock{a, b}, nil)
	if err != nil {
		f.Fatal(err)
	}
	ds, err := downsampleWhole(parent, a, 10_000)
	if err != nil {
		f.Fatal(err)
	}
	for _, pb := range []*PersistentBlock{a, compacted, ds} {
		var files [3][]byte
		for i, name := range []string{MetaFilename, IndexFilename, ChunksFilename} {
			if files[i], err = os.ReadFile(filepath.Join(pb.Dir(), name)); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(files[0], files[1], files[2])
		if pb == a {
			// Its index as version 1, the first chunk claiming more
			// samples than a chunk holds.
			wide := [2]uint64{uint64(a.entries[0].length), math.MaxUint16 + 1}
			f.Add(files[0], encodeIndexV1Wide(a.seriesTable, &wide), files[2])
		}
		pb.Close()
	}
	b.Close()
	for name := range blocksV1Pinned {
		var files [3][]byte
		for i, file := range []string{MetaFilename, IndexFilename, ChunksFilename} {
			if files[i], err = os.ReadFile(filepath.Join(blocksV1Fixture, name, file)); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(files[0], files[1], files[2])
	}
	f.Fuzz(func(t *testing.T, meta, index, chunks []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{MetaFilename: meta, IndexFilename: index, ChunksFilename: chunks} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pb, err := OpenBlockDir(dir)
		if err == nil {
			for aggr := AggrRaw; aggr <= AggrMax; aggr++ {
				readBlock(pb, model.SelectHints{Start: math.MinInt64, End: math.MaxInt64}, aggr, matchAll())
			}
		}
		runtime.ReadMemStats(&after)
		if err == nil {
			pb.Close()
		}
		// A chunk byte holds at most 8 samples of 16 bytes each, read for
		// at most two of the five reads (a downsampled block serves a raw
		// read as sum/count); an index byte decodes to at most 128 (as
		// FuzzDecodeIndex holds). The constant covers the fuzz worker's own
		// allocations and the JSON decoder's.
		n := len(meta) + len(index) + len(chunks)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+1024*n); got > limit {
			t.Fatalf("opening and reading %d bytes allocated %d, limit %d", n, got, limit)
		}
	})
}
