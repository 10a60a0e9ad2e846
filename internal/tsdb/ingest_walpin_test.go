package tsdb_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/expofmt"
	"repro/internal/labels"
	"repro/internal/remotewrite"
	"repro/internal/rules"
	"repro/internal/scrape"
	"repro/internal/tsdb"
)

// passFetcher serves each target the exposition of the current pass.
type passFetcher struct{ body func(target string) string }

func (f passFetcher) Fetch(_ context.Context, target string) (io.ReadCloser, error) {
	return io.NopCloser(strings.NewReader(f.body(target))), nil
}

// walPinJobs are the jobs a node runs at pass p: three at a time, one ending
// and one starting every other pass, so every edge churns its series.
func walPinJobs(node, p int) []string {
	var out []string
	for j := p / 2; j < p/2+3; j++ {
		out = append(out, fmt.Sprintf("n%d-j%d", node, j))
	}
	return out
}

// driveWALPin runs one fixed sequence of the three ingest edges into a
// WAL-backed head: per 15 s pass a scrape of three CPU nodes (one target at a
// time), one push of two GPU nodes' frames, and every other pass a rule group
// over both. Pass 12 deletes one job's series; pass 24 truncates the head,
// which checkpoints every shard and deletes the segments written so far. It
// returns the sha256 and the bytes of every segment file, those the
// truncate deletes under "pre/" and those left at the end, and the sha256
// of every checkpoint left at the end.
func driveWALPin(t *testing.T, shards int) (pins map[string]string, files map[string][]byte) {
	dir := t.TempDir()
	db, err := tsdb.Open(tsdb.Options{WALDir: dir, Shards: shards, WALSegmentSize: 4 << 10, MaxSamplesPerChunk: 2})
	if err != nil {
		t.Fatal(err)
	}
	const t0 = int64(1_700_000_000_000)
	pass := 0
	now := func() time.Time { return time.UnixMilli(t0 + int64(pass)*15_000) }
	fetch := passFetcher{func(target string) string {
		var node int
		fmt.Sscanf(target, "cpu%d", &node)
		var b strings.Builder
		fmt.Fprintf(&b, "ceems_node_power_watts %d\n", 200+node*10+pass%7)
		for i, uuid := range walPinJobs(node, pass) {
			fmt.Fprintf(&b, "ceems_unit_cpu_seconds_total{uuid=%q} %d\n", uuid, pass*(i+1)*3)
		}
		return b.String()
	}}
	mgr := &scrape.Manager{
		Fetcher: fetch, Now: now, Parallelism: 1,
		Groups:   []*scrape.TargetGroup{{JobName: "cpu", Targets: []string{"cpu0", "cpu1", "cpu2"}, Labels: map[string]string{"cluster": "c1"}}},
		NewBatch: func() scrape.Batch { return db.Appender() },
	}
	rcv := &remotewrite.Receiver{NewBatch: func() scrape.Batch { return db.Appender() }}
	group := &rules.Group{Name: "walpin", Rules: []rules.Rule{
		{Record: "instance:unit_cpu:rate1m", Expr: `sum by (instance) (rate(ceems_unit_cpu_seconds_total[1m]))`},
		{Record: "unit:gpu_power:double", Expr: `ceems_gpu_power_watts * 2`, Labels: map[string]string{"src": "rule"}},
	}}
	eng := rules.NewEngine(nil)

	pins, files = map[string]string{}, map[string][]byte{}
	hashSegments := func(prefix string) {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".wal") && !(prefix == "" && strings.HasSuffix(path, ".snap")) {
				return err
			}
			b, err := os.ReadFile(path)
			rel, _ := filepath.Rel(dir, path)
			name := prefix + filepath.ToSlash(rel)
			pins[name], files[name] = fmt.Sprintf("%x", sha256.Sum256(b)), b
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for pass = 0; pass < 36; pass++ {
		ts := now().UnixMilli()
		mgr.ScrapeAll(context.Background())

		var body bytes.Buffer
		enc := remotewrite.NewEncoder(&body, false)
		for node := 0; node < 2; node++ {
			f := &expofmt.Family{Name: "ceems_gpu_power_watts", Type: expofmt.TypeGauge}
			for i, uuid := range walPinJobs(10+node, pass) {
				ls := labels.FromStrings(labels.MetricName, f.Name, "instance", fmt.Sprintf("gpu%d", node), "uuid", uuid)
				f.Metrics = append(f.Metrics, expofmt.Metric{Labels: ls, Value: float64(100 + 10*i + pass%5), TS: ts})
			}
			if err := enc.WriteBatch([]*expofmt.Family{f}); err != nil {
				t.Fatal(err)
			}
		}
		w := httptest.NewRecorder()
		rcv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/write", &body))
		if w.Code != http.StatusOK {
			t.Fatalf("pass %d: push answered %d %s", pass, w.Code, w.Body)
		}
		if pass%2 == 1 {
			if err := eng.EvalGroup(group, db, db, now()); err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
		}
		switch pass {
		case 12:
			if n := db.DeleteSeries(labels.MustMatcher(labels.MatchEqual, "uuid", "n0-j6")); n == 0 {
				t.Fatal("pass 12: the delete matched no series")
			}
		case 24:
			hashSegments("pre/")
			if n, err := db.Truncate(ts - 60_000); err != nil || n == 0 {
				t.Fatalf("pass 24: truncate removed %d series, err %v", n, err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	hashSegments("")
	return pins, files
}

// walRecords splits an undamaged v2 WAL file into its records, each its
// type byte and its payload.
func walRecords(t *testing.T, data []byte) (recs [][]byte) {
	t.Helper()
	if !bytes.HasPrefix(data, []byte("CWAL\x02")) {
		t.Fatal("not a v2 WAL file")
	}
	for off := 5; off < len(data); {
		n := int(binary.LittleEndian.Uint32(data[off+1:]))
		recs = append(recs, append([]byte{data[off]}, data[off+9:off+9+n]...))
		off += 9 + n
	}
	return recs
}

// walPinDeleteRecord is the type-9 record pass 12's delete journals: seq 1,
// through the pass's time, uuid="n0-j6".
func walPinDeleteRecord() []byte {
	rec := []byte{9, 1}
	rec = binary.AppendVarint(rec, 1_700_000_000_000+12*15_000)
	rec = append(rec, 1, byte(labels.MatchEqual), 4)
	rec = append(rec, "uuid"...)
	return append(append(rec, 5), "n0-j6"...)
}

// TestIngestWALBytesPinned pins the WAL segments and checkpoints written by
// all three ingest edges — scrape passes, pushes and rule evaluations — into
// a head of 1 and of 4 shards, through churn, a delete and a truncate. How a
// producer finds its series in the head may change; what the head journals
// for the same ingest may not.
//
// The one segment of each layout that holds the delete was re-pinned when
// a delete became a time-bounded tombstone: testdata/walpin-ref-deletes
// holds what the build before wrote there (its sha256 the old pin), and the
// test shows the two differ in that record alone, a ref delete (type 6)
// become a tombstone (type 9).
//
// The checkpoints were re-pinned when truncation began to drop a series
// silent in its open chunk: the truncate's checkpoint lost the 26 series of
// the old pin whose newest sample is older than the truncation point, and
// held the other 68 as before. The test checks that a head opened from the
// checkpoints alone holds no such series.
func TestIngestWALBytesPinned(t *testing.T) {
	want := map[int]map[string]string{
		1: {
			"pre/shard-0000/00000001.wal": "b67855dfeb13effb44bff0daff621a9ba5271eaf95802f7e8b138208c4186f05",
			"pre/shard-0000/00000002.wal": "ec5c73f854320d2e56e5b5ad209c60c96e345e3baf019196fa39c2463e7bc023",
			"pre/shard-0000/00000003.wal": "fd08731556befe2a24e814c3584d4d380ab38d26da677f0055fcc8b0c23afe4b",
			"pre/shard-0000/00000004.wal": "340ecfc0c28ef86e8de589cc81bebbcf90325464459aa023abb018a500a740f7",
			"shard-0000/00000005.wal":     "4dcdfb11f1183a64051c9355167cd16bc23f00db4e2df7e325e895f7c4f677d0",
			"shard-0000/00000006.wal":     "8ea13bdcc0ece17b31627cadc5a5de6eb184ba0d9ddd41bb5f57def5507ded51",
			"shard-0000/checkpoint.snap":  "db88f9917e7b4b72e46ee9c0fec0b127f9d1c2a799648dfba787d4c0ca401697",
		},
		4: {
			"pre/shard-0000/00000001.wal": "ebc4172b32d80bc07d32395e664339b5a964872494577c8d0858c22d1e259d94",
			"pre/shard-0000/00000002.wal": "5aff3b57abbb2a41c2c4cfe7a83e66e03e951e4a098d19ae044f988850cffcfa",
			"pre/shard-0001/00000001.wal": "4f412446d0d779d509b1fec8b8d4fceb39fdc89b4fe7f5d056a56096ea8ee63d",
			"pre/shard-0001/00000002.wal": "96e17c43ce6185d6d4d47eb7f62bc837ec16481607b1272c6e28b789e82af4ec",
			"pre/shard-0002/00000001.wal": "aa7478d371839e634db69dbd86960223c615c4c1e97f9e740dd306ae719cb3f5",
			"pre/shard-0003/00000001.wal": "a4cfbf8455ce8b697ca0182c21251dff98d86af2c3dc74c3ee5fcc0455ade6ec",
			"pre/shard-0003/00000002.wal": "cc4cb331e671bb9dc83b8bbc4443e8d1e3d76852f9ea1abf7690de62b3c0d39b",
			"shard-0000/00000003.wal":     "701bc35e84d5aa6cb177c6d4d63dfbe351d466b5bccc30248a66ca2a00e02e1a",
			"shard-0001/00000003.wal":     "41ab6d04cb4f47d09d89c63854605b119d40943540e31d1a52c5d2c4a4d69bc1",
			"shard-0002/00000002.wal":     "23c8be3581cecffc7ebce9c03beb03f32108728455ddc45682e881499a9176d7",
			"shard-0003/00000003.wal":     "05e1b22a3421ca66ba970ffc7b5d105d043d21b2bb0b521a3e893df12af06e07",
			"shard-0000/checkpoint.snap":  "445ee070bc4d22ab4d7796aa5551fdd6e89c136ef35b0162be375dcc892b8ded",
			"shard-0001/checkpoint.snap":  "b6bd831b9e020a8b623a35730d8da8a5c93941a1dd1118aac4c3aaf2f0df11ed",
			"shard-0002/checkpoint.snap":  "069ab8239783f2696e32cb25a31a34b1023f0ea31f3ff47884e55584cbfe005d",
			"shard-0003/checkpoint.snap":  "fa9fe384f6beac309be8f0d86f74feeb91e825e0955d75ae60ce9f49acdda8d9",
		},
	}
	repinned := map[int]struct{ name, parent, parentSum string }{
		1: {"pre/shard-0000/00000002.wal", "shards-1/shard-0000-00000002.wal", "db510688a2660bb788ec5df007d2047f8dc29553880d4b8e101984f37a429f05"},
		4: {"pre/shard-0002/00000001.wal", "shards-4/shard-0002-00000001.wal", "d31d86de153762ff34cbbba82b85204e95c5b2c08cf34f31533d560a5016c4ef"},
	}
	for shards, pinned := range want {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			got, files := driveWALPin(t, shards)
			names := slices.Sorted(maps.Keys(got))
			if len(got) != len(pinned) {
				t.Errorf("%d segment files, pinned %d", len(got), len(pinned))
			}
			for _, name := range names {
				if got[name] != pinned[name] {
					t.Errorf("%q: %q,", name, got[name])
				}
			}
			if !strings.Contains(strings.Join(names, " "), "pre/") {
				t.Errorf("no segment was written before the truncate: %v", names)
			}
			checkpointHoldsNoSilentSeries(t, shards, files)

			for _, name := range names {
				if strings.HasSuffix(name, ".snap") && !bytes.Equal(walRecords(t, files[name])[0], walPinDeleteRecord()) {
					t.Errorf("%s does not start with the live tombstone", name)
				}
			}

			rp := repinned[shards]
			parent, err := os.ReadFile(filepath.Join("testdata", "walpin-ref-deletes", rp.parent))
			if err != nil {
				t.Fatal(err)
			}
			if sum := fmt.Sprintf("%x", sha256.Sum256(parent)); sum != rp.parentSum {
				t.Fatalf("%s: sha256 %s, the old pin is %s", rp.parent, sum, rp.parentSum)
			}
			old, now := walRecords(t, parent), walRecords(t, files[rp.name])
			if len(old) != len(now) {
				t.Fatalf("%s: %d records, the old segment %d", rp.name, len(now), len(old))
			}
			changed := 0
			for i := range old {
				if bytes.Equal(old[i], now[i]) {
					continue
				}
				changed++
				if old[i][0] != 6 || !bytes.Equal(now[i], walPinDeleteRecord()) {
					t.Errorf("%s: record %d is type %d %x, the old segment's type %d", rp.name, i, now[i][0], now[i][1:], old[i][0])
				}
			}
			if changed != 1 {
				t.Errorf("%s: %d records differ from the old segment's, want the delete alone", rp.name, changed)
			}
		})
	}
}

// checkpointHoldsNoSilentSeries opens a head from the checkpoints of files
// alone and fails when it holds a series silent since before driveWALPin's
// truncation point (pass 24's time less a minute), which the truncate drops.
func checkpointHoldsNoSilentSeries(t *testing.T, shards int, files map[string][]byte) {
	t.Helper()
	const cut = 1_700_000_000_000 + 24*15_000 - 60_000
	dir := t.TempDir()
	for name, b := range files {
		if !strings.HasSuffix(name, ".snap") {
			continue
		}
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := tsdb.Open(tsdb.Options{WALDir: dir, Shards: shards, MaxSamplesPerChunk: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	all, err := db.Select(math.MinInt64, math.MaxInt64, labels.MustMatcher(labels.MatchRegexp, labels.MetricName, ".+"))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("the checkpoints hold no series")
	}
	for _, s := range all {
		if last := s.Samples[len(s.Samples)-1].T; last < cut {
			t.Errorf("the checkpoints hold %s, silent since %d, before the truncation point %d", s.Labels, last, cut)
		}
	}
}
