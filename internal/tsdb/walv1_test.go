package tsdb

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
)

// WAL format v1 is replay-only: the head writes v2 and nothing else. Two
// things keep v1 replay honest without a v1 writer in the tree:
//
//   - testdata/wal-v1 holds a journal written by the last v1 writer (see its
//     README) with the head it must replay to. It is the oracle no code in
//     this repository can drift with.
//   - rewriteWALAsV1 turns a journal the head just wrote into the v1 files
//     the retired writer produced for the same commits, so the crash and
//     corruption harnesses keep a "compress=false" leg: v1 bytes on disk,
//     damaged at arbitrary offsets, replayed and then appended to in v2.

const walV1Fixture = "testdata/wal-v1"

// ---------------------------------------------------------------------------
// Test-local v1 writer
// ---------------------------------------------------------------------------

// encodeSamplesPayloadV1 is the v1 samples payload (wal.go, "samples :=").
func encodeSamplesPayloadV1(dst []byte, recs []walSampleRec) []byte {
	dst = appendUvarint(dst, uint64(len(recs)))
	for _, r := range recs {
		dst = appendUvarint(dst, r.ref)
		dst = binary.AppendVarint(dst, r.t)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.v))
	}
	return dst
}

// walV1Record is one record re-framed in format v1.
type walV1Record struct {
	typ   byte
	frame []byte
}

// walFileAsV1 decodes one undamaged v2 WAL file and returns its records in
// v1 framing: compressed payloads inflated, Gorilla samples re-encoded raw.
func walFileAsV1(t *testing.T, path string) []walV1Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		return nil
	}
	if !bytes.HasPrefix(data, walFileHeader[:]) {
		t.Fatalf("%s: not a v2 wal file", path)
	}
	dec := newWalV2Dec()
	var out []walV1Record
	for off := walFileHeaderLen; off < len(data); {
		typ := data[off]
		plen := int(binary.LittleEndian.Uint32(data[off+1 : off+5]))
		payload := data[off+walHeaderSize : off+walHeaderSize+plen]
		off += walHeaderSize + plen
		v1Type := walRawType[typ]
		if v1Type == 0 {
			t.Fatalf("%s: the v2 writer emitted record type %d", path, typ)
		}
		var raw []byte
		if typ == walRecSamplesV2 {
			recs, err := dec.decodeSamples(nil, payload)
			if err != nil {
				t.Fatal(err)
			}
			raw = encodeSamplesPayloadV1(nil, recs)
		} else if raw, err = walDecompress(payload); err != nil {
			t.Fatal(err)
		}
		out = append(out, walV1Record{typ: v1Type, frame: appendFramed(nil, v1Type, func(b []byte) []byte { return append(b, raw...) })})
	}
	return out
}

// rewriteWALAsV1 rewrites the closed v2 journal under walDir in format v1,
// byte for byte what the v1 writer left behind for the same commits: one
// headerless checkpoint.snap per shard, and segments rotated by the
// writer's rule — before a commit, once the open segment has reached
// segLimit (a commit being a series record with the samples record behind
// it, or any other record alone).
func rewriteWALAsV1(t *testing.T, walDir string, segLimit int64) {
	t.Helper()
	if segLimit <= 0 {
		segLimit = DefaultWALSegmentSize
	}
	shardDirs, err := listShardDirs(walDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sd := range shardDirs {
		if cp := filepath.Join(sd, walCheckpointFile); fileExists(cp) {
			var snap []byte
			for _, r := range walFileAsV1(t, cp) {
				snap = append(snap, r.frame...)
			}
			if err := os.WriteFile(cp, snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		segs, _ := filepath.Glob(filepath.Join(sd, "*.wal"))
		sort.Strings(segs)
		if len(segs) == 0 {
			continue
		}
		var recs []walV1Record
		for _, seg := range segs {
			recs = append(recs, walFileAsV1(t, seg)...)
			if err := os.Remove(seg); err != nil {
				t.Fatal(err)
			}
		}
		var index int
		fmt.Sscanf(filepath.Base(segs[0]), "%08d.wal", &index)
		var seg []byte
		for i, r := range recs {
			newCommit := !(r.typ == walRecSamples && i > 0 && recs[i-1].typ == walRecSeries)
			if newCommit && int64(len(seg)) >= segLimit {
				if err := os.WriteFile(walSegName(sd, index), seg, 0o644); err != nil {
					t.Fatal(err)
				}
				index++
				seg = nil
			}
			seg = append(seg, r.frame...)
		}
		if err := os.WriteFile(walSegName(sd, index), seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Committed v1 fixture
// ---------------------------------------------------------------------------

// walV1Golden loads the head the fixture journal must replay to.
func walV1Golden(t *testing.T) (series []model.Series, tombstones map[uint64][]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(walV1Fixture, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var gold struct {
		Series []struct {
			Labels  map[string]string `json:"labels"`
			Samples [][2]float64      `json:"samples"`
		} `json:"series"`
		Tombstones []struct {
			Seq      uint64   `json:"seq"`
			Matchers []string `json:"matchers"`
		} `json:"tombstones"`
	}
	if err := json.Unmarshal(data, &gold); err != nil {
		t.Fatal(err)
	}
	for _, gs := range gold.Series {
		s := model.Series{Labels: labels.FromMap(gs.Labels)}
		for _, p := range gs.Samples {
			s.Samples = append(s.Samples, model.Sample{T: int64(p[0]), V: p[1]})
		}
		series = append(series, s)
	}
	tombstones = map[uint64][]string{}
	for _, gt := range gold.Tombstones {
		tombstones[gt.Seq] = gt.Matchers
	}
	return series, tombstones
}

// openWALV1Fixture opens a scratch copy of the fixture journal. It asks for
// 16 shards; the journal's meta decides the head gets its 2.
func openWALV1Fixture(t *testing.T, segSize int64) (db *DB, walDir string) {
	t.Helper()
	walDir = filepath.Join(t.TempDir(), "wal")
	copyDir(t, filepath.Join(walV1Fixture, "wal"), walDir)
	db, err := Open(Options{Shards: 16, WALDir: walDir, WALSegmentSize: segSize})
	if err != nil {
		t.Fatalf("open over the v1 fixture: %v", err)
	}
	return db, walDir
}

// walFormatOf reports the format of a WAL file by its first bytes: 2 behind
// the magic, 1 without it, 0 for a file still empty (the writer's header
// travels with the first flushed record).
func walFormatOf(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case len(data) == 0:
		return 0
	case bytes.HasPrefix(data, walMagic):
		return walFormatV2
	}
	return walFormatV1
}

// TestWALV1FixtureReplaysToGolden: a journal written by the real v1 writer —
// checkpoint, segments, ref-level deletes and matcher tombstones in two
// shards — replays to exactly the head that writer held when it closed.
func TestWALV1FixtureReplaysToGolden(t *testing.T) {
	files, _ := filepath.Glob(filepath.Join(walV1Fixture, "wal", "shard-*", "*"))
	if len(files) < 6 {
		t.Fatalf("fixture has %d wal files, want 2 checkpoints + >= 4 segments", len(files))
	}
	for _, f := range files {
		if walFormatOf(t, f) != walFormatV1 {
			t.Fatalf("fixture file %s is not format v1", f)
		}
	}
	want, wantTombs := walV1Golden(t)
	db, _ := openWALV1Fixture(t, 0)
	defer db.Close()
	if n := db.NumShards(); n != 2 {
		t.Fatalf("2-shard fixture opened with %d shards", n)
	}
	assertSeriesEqual(t, selectAll(t, db), want, "v1 fixture replay vs golden")
	tombs := db.Tombstones()
	if len(tombs) != len(wantTombs) {
		t.Fatalf("replayed %d tombstones, want %d", len(tombs), len(wantTombs))
	}
	for _, tr := range tombs {
		var ms []string
		for _, m := range tr.Matchers {
			ms = append(ms, m.String())
		}
		if !reflect.DeepEqual(ms, wantTombs[tr.Seq]) {
			t.Fatalf("tombstone seq %d replayed as %v, want %v", tr.Seq, ms, wantTombs[tr.Seq])
		}
	}
	ws, _ := db.WALStats()
	if ws.Replay.TornRepairs != 0 || ws.Replay.Dropped != 0 {
		t.Fatalf("clean fixture replayed with repairs: %+v", ws.Replay)
	}
}

// TestWALV1FixtureTruncatedAtEveryByte: cut the fixture's last segment —
// shard 1's, which carries samples, a tombstone and a series registration
// behind it — at every byte; the head must recover exactly what the
// test-local decoder (walcrash_test.go) reads from the same damaged files.
func TestWALV1FixtureTruncatedAtEveryByte(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	copyDir(t, filepath.Join(walV1Fixture, "wal"), walDir)
	pristine := walFiles(t, walDir)
	keep := map[string]bool{}
	for _, f := range pristine {
		keep[f] = true
	}
	shardDirs, err := listShardDirs(walDir)
	if err != nil {
		t.Fatal(err)
	}
	target := pristine[len(pristine)-1] // replay order: last shard, last segment
	last, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for cut := 0; cut <= len(last); cut += stride {
		if err := os.WriteFile(target, last[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var want []model.Series
		for _, sd := range shardDirs {
			oracle := newOracle() // refs are per shard directory
			for _, f := range pristine {
				if filepath.Dir(f) == sd && oracle.decodeFile(t, f) {
					break
				}
			}
			want = append(want, oracle.expected()...)
		}
		sort.Slice(want, func(i, j int) bool { return labels.Compare(want[i].Labels, want[j].Labels) < 0 })
		db, err := Open(Options{Shards: 2, WALDir: walDir})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		assertSeriesEqual(t, selectAll(t, db), want, fmt.Sprintf("cut at byte %d", cut))
		db.Close()
		// Back to the fixture's file set: drop the segments this open added.
		for _, f := range walFiles(t, walDir) {
			if !keep[f] {
				os.Remove(f)
			}
		}
	}
}
