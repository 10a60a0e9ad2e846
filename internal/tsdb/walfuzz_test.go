package tsdb

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/labels"
)

// walFuzzSeries is series i of the journal FuzzWALRecord's seeds come from;
// the fuzz segment registers series 1-3 under refs 1-3 ahead of the fuzzed
// record, as the seed journal's first commit does.
func walFuzzSeries(i int) labels.Labels {
	return labels.FromStrings(labels.MetricName, "wal_fuzz", "s", strconv.Itoa(i))
}

type walRecord struct {
	typ     byte
	payload []byte
}

// walRecordsOf splits an undamaged WAL file, v1 or v2, into its records.
func walRecordsOf(tb testing.TB, path string) []walRecord {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	_, off, _, err := walSniffVersion(data)
	if err != nil {
		tb.Fatal(err)
	}
	var recs []walRecord
	for off < len(data) {
		plen := int(binary.LittleEndian.Uint32(data[off+1 : off+5]))
		recs = append(recs, walRecord{data[off], data[off+walHeaderSize : off+walHeaderSize+plen]})
		off += walHeaderSize + plen
	}
	return recs
}

// walFuzzSeeds writes a small journal — commits that register series, a
// delete and a ring-style tombstone — and returns every record of it.
func walFuzzSeeds(f *testing.F) []walRecord {
	dir := f.TempDir()
	db, err := Open(Options{Shards: 1, WALDir: dir})
	if err != nil {
		f.Fatal(err)
	}
	for step := int64(0); step < 4; step++ {
		app := db.Appender()
		for i := 1; i <= 3+int(step/2); i++ {
			app.Add(walFuzzSeries(i), step*15000, float64(step*int64(i))/4)
		}
		if _, err := app.Commit(); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := db.Delete(45000, labels.MustMatcher(labels.MatchEqual, "s", "3")); err != nil {
		f.Fatal(err)
	}
	if _, err := db.ApplyTombstone(TombstoneRec{Seq: 7, MaxT: 30000, Matchers: []*labels.Matcher{labels.MustMatcher(labels.MatchRegexp, "s", "[24]")}}); err != nil {
		f.Fatal(err)
	}
	if err := db.Close(); err != nil {
		f.Fatal(err)
	}
	var recs []walRecord
	files, _ := filepath.Glob(filepath.Join(walShardDir(dir, 0), "*.wal"))
	for _, p := range files {
		recs = append(recs, walRecordsOf(f, p)...)
	}
	return recs
}

// walInflated is how many bytes a compressed v2 payload inflates to, capped
// as walDecompress caps it: what the payload can hold once decoded.
func walInflated(typ byte, payload []byte) int {
	if (typ != walRecSeriesV2 && typ != walRecDeletesV2 && typ != walRecTombstoneV2) || len(payload) == 0 || payload[0] != 1 {
		return 0
	}
	n, _ := io.Copy(io.Discard, io.LimitReader(flate.NewReader(bytes.NewReader(payload[1:])), walMaxPayload+1))
	return int(n)
}

// FuzzWALRecord: one record of any type and payload, under a valid CRC in a
// one-segment shard directory, replays through Open to an error or a head,
// never a panic, and Open allocates in proportion to the bytes the record
// holds, inflated where it is compressed — no count or ref read from it
// sizes an allocation by itself. The seeds are the records the head writes
// and those of the committed fixtures, which hold every type only older
// builds wrote.
func FuzzWALRecord(f *testing.F) {
	types := map[byte]bool{}
	for _, r := range walFuzzSeeds(f) {
		types[r.typ] = true
		f.Add(r.typ, r.payload)
	}
	for _, fixture := range []string{walV1Fixture, walV2LegacyFixture} {
		files, _ := filepath.Glob(filepath.Join(fixture, "wal", "shard-*", "*"))
		for _, p := range files {
			if filepath.Ext(p) == ".json" {
				continue
			}
			for _, r := range walRecordsOf(f, p) {
				types[r.typ] = true
				f.Add(r.typ, r.payload)
			}
		}
	}
	for _, typ := range []byte{walRecSamplesV2, walRecSeriesV2, walRecDeletesV2, walRecTombstoneV2, walRecDelete} {
		if !types[typ] {
			f.Fatalf("the seeds hold no record of type %d", typ)
		}
	}
	f.Add(walRecSeries, binary.AppendUvarint([]byte{1, 1}, 1<<60))
	f.Add(walRecTombstone, binary.AppendUvarint([]byte{1}, 1<<60))
	f.Add(walRecDelete, binary.AppendUvarint(binary.AppendVarint([]byte{1}, 0), 1<<60))
	f.Add(walRecSamplesV2, newWalV2Enc().appendSamples(nil, []walSampleRec{{ref: walV2DenseRefs - 1}}))

	var enc walRecEncoder
	preamble := enc.appendSeriesRecord(bytes.Clone(walFileHeader[:]), []walSeriesRec{
		{1, walFuzzSeries(1)}, {2, walFuzzSeries(2)}, {3, walFuzzSeries(3)}})
	open := func(tb testing.TB, segment []byte) (db *DB, alloc uint64, err error) {
		dir := tb.TempDir()
		if err := os.MkdirAll(walShardDir(dir, 0), 0o755); err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(walSegName(walShardDir(dir, 0), 1), segment, 0o644); err != nil {
			tb.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		db, err = Open(Options{Shards: 1, WALDir: dir})
		runtime.ReadMemStats(&after)
		return db, after.TotalAlloc - before.TotalAlloc, err
	}
	db, base, err := open(f, preamble)
	if err != nil {
		f.Fatal(err)
	}
	db.Close()

	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		segment := appendFramed(bytes.Clone(preamble), typ, func(b []byte) []byte { return append(b, payload...) })
		db, got, err := open(t, segment)
		// 512 bytes per decoded byte covers the densest legal content: a
		// series registration of two bytes is a memSeries with its index
		// entries, a sample of three bits a decode record and its state.
		if limit := 2*base + 1<<16 + 512*uint64(len(payload)+walInflated(typ, payload)); got > limit {
			t.Fatalf("replaying a %d-byte record of type %d allocated %d bytes, limit %d", len(payload), typ, got, limit)
		}
		if err != nil {
			return
		}
		defer db.Close()
		for _, s := range selectAll(t, db) {
			for i := 1; i < len(s.Samples); i++ {
				if s.Samples[i].T <= s.Samples[i-1].T {
					t.Fatalf("%s: replayed samples out of order at %d", s.Labels, i)
				}
			}
		}
	})
}
