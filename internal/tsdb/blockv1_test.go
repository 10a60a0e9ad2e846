package tsdb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/model"
)

// Index format v1 is read-only: the writer writes v2 and nothing else. Two
// things keep v1 reads honest without a v1 writer in the tree:
//
//   - testdata/blocks-v1 holds the three blocks TestBlockBytesPinned builds,
//     written by the last v1 writer (see its README). Their bytes are the
//     oracle no code in this repository can drift with.
//   - encodeIndexV1 renders an index as the retired writer did, so tests and
//     fuzz seeds can put a v1 index under any series set.

const blocksV1Fixture = "testdata/blocks-v1"

// blocksV1Pinned is the sha256 of index+chunks of each fixture block, as
// TestBlockBytesPinned pinned them while v1 was the written format.
var blocksV1Pinned = map[string]string{
	"cut":        "065806088258818e7dd53cfca8bf71f0151685c104bf95f50da46f019649cd0e",
	"downsample": "10f6f3dd5e8056ff4409a9e6d7c781e2b89460d47192160d17c301882a071b9a",
	"compact":    "bd4eda68444777e7e1495cada3d394ea770a246263cf9705e01fc95f2874c8de",
}

// encodeIndexV1 is the version-1 index writer (blockdir.go's package
// comment): labels inline, chunk bounds and offsets absolute.
func encodeIndexV1(t seriesTable) []byte { return encodeIndexV1Wide(t, nil) }

// encodeIndexV1Wide is encodeIndexV1 with, when wide is set, the first
// chunk's length and sample count replaced by wide's: widths no chunk entry
// of an open block holds, which no writer of this repository writes.
func encodeIndexV1Wide(t seriesTable, wide *[2]uint64) []byte {
	var buf bytes.Buffer
	buf.WriteString(indexMagic)
	buf.WriteByte(indexVersionV1)
	putU := func(u uint64) { buf.Write(binary.AppendUvarint(nil, u)) }
	putI := func(i int64) { buf.Write(binary.AppendVarint(nil, i)) }
	putStr := func(s string) {
		putU(uint64(len(s)))
		buf.WriteString(s)
	}
	putU(uint64(len(t.series)))
	for i, s := range tableSeries(t) {
		putU(uint64(len(s.lset)))
		for _, l := range s.lset {
			putStr(l.Name)
			putStr(l.Value)
		}
		putU(uint64(len(s.chunks)))
		for j, c := range s.chunks {
			buf.WriteByte(byte(c.aggr))
			putI(c.minT)
			putI(c.maxT)
			putU(c.off)
			if length, n := uint64(c.length), uint64(c.numSamples); wide == nil || i+j > 0 {
				putU(length)
				putU(n)
			} else {
				putU(wide[0])
				putU(wide[1])
			}
		}
	}
	return binary.LittleEndian.AppendUint32(buf.Bytes(), crc32.Checksum(buf.Bytes(), walCRC))
}

// tableSeries returns the series of a decoded table as a writer hands them
// to encodeIndex: label sets built from the pair ids, chunk entries placed
// and without payload.
func tableSeries(t seriesTable) []diskSeries {
	out := make([]diskSeries, len(t.series))
	for i := range out {
		out[i].lset = t.labelsOf(uint32(i))
		for _, c := range t.chunksOf(uint32(i)) {
			out[i].chunks = append(out[i].chunks, encodedChunk{diskChunk: c})
		}
	}
	return out
}

// pinnedBlocks builds TestBlockBytesPinned's three blocks under parent: a
// cut, its 5m derivation, and its compaction with a second cut.
func pinnedBlocks(t *testing.T, parent string) map[string]*PersistentBlock {
	t.Helper()
	a, err := blockSeedDB(t, 4, 20, 300, 0, 15_000).CutPersistentBlock(parent, -1<<60, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	b, err := blockSeedDB(t, 2, 30, 300, 300*15_000, 15_000).CutPersistentBlock(parent, -1<<60, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := downsampleWhole(parent, a, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := CompactPersistentBlocks(parent, []*PersistentBlock{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*PersistentBlock{"cut": a, "downsample": ds, "compact": merged}
}

// TestBlocksV1FixtureReadsBack: each v1 fixture block still holds the bytes
// pinned for it, its index re-encodes through encodeIndexV1 to those bytes,
// and it opens to the series, chunk bounds and samples of the same block
// written in v2 today, every aggregate read alike; the chunks files are the
// same bytes.
func TestBlocksV1FixtureReadsBack(t *testing.T) {
	fresh := pinnedBlocks(t, t.TempDir())
	for name, want := range blocksV1Pinned {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(blocksV1Fixture, name)
			var files [2][]byte
			for i, f := range []string{IndexFilename, ChunksFilename} {
				var err error
				if files[i], err = os.ReadFile(filepath.Join(dir, f)); err != nil {
					t.Fatal(err)
				}
			}
			index, chunks := files[0], files[1]
			if got := sha256.Sum256(append(slices.Clip(index), chunks...)); hex.EncodeToString(got[:]) != want {
				t.Fatalf("fixture index+chunks sha256 %x, pinned %s", got, want)
			}
			if index[len(indexMagic)] != indexVersionV1 {
				t.Fatalf("fixture index is version %d", index[len(indexMagic)])
			}
			old, err := OpenBlockDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer old.Close()
			if again := encodeIndexV1(old.seriesTable); !bytes.Equal(again, index) {
				t.Fatalf("decoded v1 index re-encodes to %d different bytes (file %d)", len(again), len(index))
			}
			cur := fresh[name]
			if now, err := os.ReadFile(filepath.Join(cur.Dir(), ChunksFilename)); err != nil || !bytes.Equal(now, chunks) {
				t.Fatalf("the v2 block's chunks file differs from the fixture's (err %v)", err)
			}
			if len(old.series) != len(cur.series) {
				t.Fatalf("%d series, the v2 block %d", len(old.series), len(cur.series))
			}
			for i := range old.series {
				o, c := old.labelsOf(uint32(i)), cur.labelsOf(uint32(i))
				oc, cc := old.chunksOf(uint32(i)), cur.chunksOf(uint32(i))
				if !o.Equal(c) || !slices.Equal(oc, cc) {
					t.Fatalf("series %d: %s with chunks %+v, the v2 block %s with %+v", i, o, oc, c, cc)
				}
			}
			for aggr := AggrRaw; aggr <= AggrAvg; aggr++ {
				hints := model.SelectHints{Start: -1 << 60, End: 1 << 60}
				got, gerr := readBlock(old, hints, aggr, matchAll())
				exp, werr := readBlock(cur, hints, aggr, matchAll())
				if gerr != nil || werr != nil || !reflect.DeepEqual(got, exp) {
					t.Fatalf("%s read: %d series (err %v), the v2 block %d (err %v)", aggr, len(got), gerr, len(exp), werr)
				}
			}
		})
	}
}
