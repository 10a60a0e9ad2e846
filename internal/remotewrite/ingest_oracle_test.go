package remotewrite

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/expofmt"
	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/scrape"
	"repro/internal/tsdb"
)

// referenceIngest is the receiver's frame loop as it was before it walked
// payloads with the tokenizer, kept as the oracle: Decoder.Next parses each
// frame into families, the families are walked in order of first appearance,
// and every frame gets a batch of its own.
func referenceIngest(newBatch func() scrape.Batch, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	dec := NewDecoder(bytes.NewReader(body))
	defer dec.Release()
	var appended, frames, decoded int
	for {
		fams, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			writeIngestErr(w, http.StatusBadRequest,
				fmt.Sprintf("frame %d: %v (%d frames committed)", frames, err, frames))
			return w
		}
		batch := newBatch()
		n := 0
		for _, f := range fams {
			for _, m := range f.Metrics {
				if m.TS == 0 {
					writeIngestErr(w, http.StatusBadRequest,
						fmt.Sprintf("frame %d: metric %s has no timestamp; remote write requires explicit timestamps (%d frames committed)", frames, f.Name, frames))
					return w
				}
				batch.Add(m.Labels, m.TS, m.Value)
				n++
			}
		}
		decoded += n
		got, err := batch.Commit()
		if err != nil {
			writeIngestErr(w, http.StatusServiceUnavailable,
				fmt.Sprintf("frame %d: commit: %v (%d frames committed)", frames, err, frames))
			return w
		}
		appended += got
		frames++
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(map[string]any{
		"status": "success",
		"data":   map[string]int{"frames": frames, "decoded": decoded, "appended": appended},
	})
	return w
}

// ingestGen draws random CRW1 streams: raw frames, and now and then a
// deflated one under flag 1, which both sides must refuse alike; families
// rendered by AppendFamily (contiguous, as every sender writes them) or, when
// interleave is set, sample and HELP/TYPE lines of several families shuffled
// together; label values that need escaping, repeated label names, NaN,
// staleness markers, ±Inf, out-of-order and duplicate timestamps; and now and
// then a sample without a timestamp, a malformed line or a frame whose CRC is
// wrong. A frame holds at most one sample without a timestamp: with two, in
// interleaved families, the receiver names the first in the payload and the
// old loop the first in family order.
type ingestGen struct {
	rng        *rand.Rand
	interleave bool
	now        int64 // advances one scrape interval per frame
}

var ingestNames = []string{"rw_power_watts", "rw_energy_joules_total", "rw_temp_celsius", "node:rw_share:ratio"}

var ingestValues = []string{`plain`, `back\slash`, `quo"te`, "new\nline", `C:\\dir`, `uni—code`, ``}

// value draws a sample value. The text format spells every NaN "NaN", so a
// staleness marker arrives as a plain NaN, on either side.
func (g *ingestGen) value() float64 {
	switch g.rng.Intn(12) {
	case 0:
		return math.NaN()
	case 1:
		return model.StaleNaN()
	case 2:
		return math.Inf(1 - 2*g.rng.Intn(2))
	case 3:
		return float64(g.rng.Intn(5))
	}
	return g.rng.NormFloat64() * 1e3
}

// ts draws a timestamp around the current frame's: mostly its own, sometimes
// behind it inside the out-of-order window, now and then too old for it.
func (g *ingestGen) ts() int64 {
	switch g.rng.Intn(10) {
	case 0:
		return g.now - 1 - g.rng.Int63n(50_000)
	case 1:
		return g.now - 200_000
	}
	return g.now
}

// labelSet draws a series of the family name: a repeated label name now and
// then (the last value wins, so two spellings can name one series).
func (g *ingestGen) labelSet(name string) labels.Labels {
	ls := labels.Labels{
		{Name: labels.MetricName, Value: name},
		{Name: "instance", Value: fmt.Sprintf("n%d", g.rng.Intn(4))},
	}
	if g.rng.Intn(2) == 0 {
		ls = append(ls, labels.Label{Name: "uuid", Value: ingestValues[g.rng.Intn(len(ingestValues))]})
	}
	if g.rng.Intn(8) == 0 {
		ls = append(ls, labels.Label{Name: "instance", Value: fmt.Sprintf("n%d", g.rng.Intn(4))})
	}
	return ls
}

// sampleLine renders a sample by hand, label order as drawn and white space
// varied, which AppendFamily never does.
func (g *ingestGen) sampleLine(b []byte, ls labels.Labels, v float64, ts int64) []byte {
	b = append(b, ls[0].Value...)
	b = append(b, '{')
	for i, l := range ls[1:] {
		if i > 0 {
			b = append(b, ","[:g.rng.Intn(2)]...)
			b = append(b, ' ')
		}
		b = append(b, l.Name...)
		b = append(b, `="`...)
		b = append(b, strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`).Replace(l.Value)...)
		b = append(b, '"')
	}
	b = append(b, "} "...)
	b = strconv.AppendFloat(b, v, 'g', -1, 64) // "NaN", "+Inf", "-Inf" parse back
	if ts != 0 {
		b = append(b, " \t"[g.rng.Intn(2)])
		b = strconv.AppendInt(b, ts, 10)
	}
	return append(b, '\n')
}

// payload draws one frame's exposition text.
func (g *ingestGen) payload() []byte {
	g.now += 15_000
	names := g.rng.Perm(len(ingestNames))[:1+g.rng.Intn(len(ingestNames))]
	unstamped := -1 // the sample that goes without a timestamp, if any
	if g.rng.Intn(10) == 0 {
		unstamped = g.rng.Intn(4)
	}
	var b []byte
	if !g.interleave || g.rng.Intn(3) == 0 {
		k := 0
		for _, i := range names {
			f := &expofmt.Family{Name: ingestNames[i], Type: expofmt.TypeGauge}
			if g.rng.Intn(2) == 0 {
				f.Help = "Help with a back\\slash\nand a newline."
			}
			for n := 1 + g.rng.Intn(6); n > 0; n-- {
				m := expofmt.Metric{Labels: g.labelSet(f.Name), Value: g.value(), TS: g.ts()}
				if k == unstamped {
					m.TS = 0
				}
				k++
				f.Metrics = append(f.Metrics, m)
			}
			b = expofmt.AppendFamily(b, f)
		}
	} else {
		var lines [][]byte
		for k := 2 + g.rng.Intn(12); k > 0; k-- {
			name := ingestNames[names[g.rng.Intn(len(names))]]
			ts := g.ts()
			if len(lines) == unstamped {
				ts = 0
			}
			lines = append(lines, g.sampleLine(nil, g.labelSet(name), g.value(), ts))
			if g.rng.Intn(4) == 0 {
				lines = append(lines, []byte(fmt.Sprintf("# %s %s %s\n", []string{"HELP", "TYPE"}[g.rng.Intn(2)], name, "gauge")))
			}
		}
		g.rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
		b = bytes.Join(lines, nil)
	}
	if g.rng.Intn(12) == 0 {
		// A malformed line somewhere: the frame must fail whole.
		lines := bytes.SplitAfter(b, []byte("\n"))
		at := g.rng.Intn(len(lines))
		lines = append(lines[:at], append([][]byte{[]byte("rw_broken{instance=\"n0\" 1\n")}, lines[at:]...)...)
		b = bytes.Join(lines, nil)
	}
	return b
}

// stream draws one request body of one to five frames.
func (g *ingestGen) stream() []byte {
	b := []byte(Magic)
	for n := 1 + g.rng.Intn(5); n > 0; n-- {
		payload, deflate := g.payload(), g.rng.Intn(16) == 0
		var crcFlip uint32
		if g.rng.Intn(25) == 0 {
			crcFlip = 1 << g.rng.Intn(32) // a bad CRC mid-stream
		}
		b = appendFrame(b, payload, deflate, crcFlip)
	}
	return b
}

// appendFrame appends a frame of payload to b, its CRC XORed with crcFlip:
// raw, or DEFLATE-compressed under flag 1 as senders once wrote it.
func appendFrame(b, payload []byte, deflate bool, crcFlip uint32) []byte {
	stored, flag := payload, byte(flagRaw)
	if deflate {
		var z bytes.Buffer
		fw, _ := flate.NewWriter(&z, flate.BestSpeed)
		fw.Write(payload)
		fw.Close()
		stored, flag = z.Bytes(), 1
	}
	b = append(b, flag)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(stored)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli)^crcFlip)
	return append(b, stored...)
}

// ingestDigest hashes every series of the head: labels, timestamps and value
// bits.
func ingestDigest(t *testing.T, db *tsdb.DB) (digest uint64, series, samples int) {
	t.Helper()
	all, err := db.Select(math.MinInt64, math.MaxInt64, labels.MustMatcher(labels.MatchRegexp, labels.MetricName, ".+"))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, sr := range all {
		fmt.Fprintf(h, "%q", sr.Labels)
		for _, s := range sr.Samples {
			h.Write(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, uint64(s.T)), math.Float64bits(s.V)))
		}
		samples += len(sr.Samples)
	}
	return h.Sum64(), len(all), samples
}

// walFiles reads every file under dir, keyed by its path below dir.
func walFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// ingestOutcomes are the ends a generated stream comes to, each of which
// TestIngestHeadIdentical must see.
var ingestOutcomes = []string{"success", "no timestamp", "parse frame payload", "checksum", "unknown frame flag"}

// TestIngestHeadIdentical is the push twin of TestScrapeCacheHeadIdentical:
// random streams POSTed through the receiver and through referenceIngest,
// each into a WAL-backed head of its own, must get the same status codes and
// bodies and leave heads with the same digest.
//
// With contiguous families the WAL segments must be byte-identical too: the
// payload order is the family order, so both stage the same samples in the
// same order. Interleaved families may legitimately differ there. The
// reference stages a frame family by family, in order of first appearance,
// and the receiver in payload order. Each series keeps its samples' order
// either way, and a commit judges every sample against the one watermark it
// started with, so the heads hold the same samples. But a head creates series
// in the order it meets them, so their WAL refs and registration records may
// come out in another order.
//
// The churn leg pushes the same small set of series over every request, and
// between requests deletes one instance's series from both heads or
// truncates both, so the receiver's entries keep handles on series the head
// has dropped. Its heads are compared before every truncate as well, and
// must also replay to the same digest; its WAL files are not compared, as a
// checkpoint writes the shard's series in map order.
func TestIngestHeadIdentical(t *testing.T) {
	streams := 150
	if testing.Short() {
		streams = 50
	}
	for _, leg := range []struct {
		name              string
		interleave, churn bool
	}{{"interleave=false", false, false}, {"interleave=true", true, false}, {"churn", false, true}} {
		t.Run(leg.name, func(t *testing.T) {
			opts := tsdb.Options{Shards: 4, OutOfOrderWindow: 60_000}
			if leg.churn {
				opts.MaxSamplesPerChunk = 4 // so that a truncate drops series
			}
			open := func(dir string) *tsdb.DB {
				opts := opts
				opts.WALDir = dir
				db, err := tsdb.Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				return db
			}
			refDir, dir := t.TempDir(), t.TempDir()
			refDB, db := open(refDir), open(dir)
			rcv := &Receiver{NewBatch: func() scrape.Batch { return db.Appender() }}
			refBatch := func() scrape.Batch { return refDB.Appender() }

			gen := &ingestGen{rng: rand.New(rand.NewSource(33)), interleave: leg.interleave, now: 1_700_000_000_000}
			outcomes := map[string]int{}
			dropped := 0
			// The most series and samples a digest comparison covered: a
			// truncate drops every series silent since its point, so the
			// heads are compared before each one as well as at the end.
			var peakSeries, peakSamples int
			compare := func(when string) {
				t.Helper()
				wantDigest, wantSeries, wantSamples := ingestDigest(t, refDB)
				gotDigest, gotSeries, gotSamples := ingestDigest(t, db)
				if gotDigest != wantDigest || gotSeries != wantSeries || gotSamples != wantSamples {
					t.Errorf("head %s: %d series, %d samples, digest %x; reference %d series, %d samples, digest %x",
						when, gotSeries, gotSamples, gotDigest, wantSeries, wantSamples, wantDigest)
				}
				peakSeries, peakSamples = max(peakSeries, wantSeries), max(peakSamples, wantSamples)
			}
			for i := 0; i < streams; i++ {
				body := gen.stream()
				want := referenceIngest(refBatch, body)
				got := postStream(t, rcv, body)
				if got.Code != want.Code || got.Body.String() != want.Body.String() {
					t.Fatalf("stream %d: %d %s, reference %d %s", i, got.Code, got.Body, want.Code, want.Body)
				}
				for _, o := range ingestOutcomes {
					if strings.Contains(want.Body.String(), o) {
						outcomes[o]++
					}
				}
				switch {
				case !leg.churn:
				case i%5 == 4:
					m := labels.MustMatcher(labels.MatchEqual, "instance", fmt.Sprintf("n%d", gen.rng.Intn(4)))
					n := refDB.DeleteSeries(m)
					if got := db.DeleteSeries(m); got != n {
						t.Fatalf("stream %d: delete removed %d series, reference %d", i, got, n)
					}
					dropped += n
				case i%9 == 8:
					compare(fmt.Sprintf("before the truncate after stream %d", i))
					n, err := refDB.Truncate(gen.now - 45_000)
					got, gerr := db.Truncate(gen.now - 45_000)
					if err != nil || gerr != nil || got != n {
						t.Fatalf("stream %d: truncate removed %d series (err %v), reference %d (err %v)", i, got, gerr, n, err)
					}
					dropped += n
				}
			}
			for _, o := range ingestOutcomes {
				if outcomes[o] < 3 {
					t.Errorf("only %d streams end in %q: %v", outcomes[o], o, outcomes)
				}
			}
			if leg.churn && dropped < 20 {
				t.Errorf("deletes and truncates dropped only %d series", dropped)
			}

			compare("at the end")
			if peakSeries < 20 || peakSamples < streams {
				t.Errorf("run too small to mean anything: at most %d series, %d samples compared", peakSeries, peakSamples)
			}
			if err := refDB.Close(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if leg.churn {
				refDB, db = open(refDir), open(dir)
				defer refDB.Close()
				defer db.Close()
				wantDigest, _, _ := ingestDigest(t, refDB)
				if gotDigest, _, _ := ingestDigest(t, db); gotDigest != wantDigest {
					t.Errorf("replayed head: digest %x, reference %x", gotDigest, wantDigest)
				}
				return
			}
			if leg.interleave {
				return
			}
			want, got := walFiles(t, refDir), walFiles(t, dir)
			if len(want) == 0 || len(got) != len(want) {
				t.Fatalf("WAL files: %d, reference %d", len(got), len(want))
			}
			for name, b := range want {
				if !bytes.Equal(got[name], b) {
					t.Errorf("WAL file %s: %d bytes differ from the reference's %d", name, len(got[name]), len(b))
				}
			}
		})
	}
}

// countedCommits counts the commits of a head's batch.
type countedCommits struct {
	*tsdb.Appender
	commits *int
}

func (c countedCommits) Commit() (int, error) {
	*c.commits++
	return c.Appender.Commit()
}

// TestIngestOneBatchPerRequest: the receiver takes one batch per request,
// however many frames the request holds, and commits it once per frame.
func TestIngestOneBatchPerRequest(t *testing.T) {
	db := tsdb.MustOpen(tsdb.Options{})
	made, commits := 0, 0
	rcv := &Receiver{NewBatch: func() scrape.Batch {
		made++
		return countedCommits{db.Appender(), &commits}
	}}
	rng := rand.New(rand.NewSource(8))
	for frames := 0; frames <= 6; frames++ {
		var batches [][]*expofmt.Family
		for i := 0; i < frames; i++ {
			batches = append(batches, randFamilies(rng, 2, 3))
		}
		body := []byte(Magic)
		if frames > 0 {
			body = encodeStream(t, frames%2 == 0, batches...)
		}
		madeBefore, commitsBefore := made, commits
		w := postStream(t, rcv, body)
		if w.Code != http.StatusOK {
			t.Fatalf("%d frames: %d %s", frames, w.Code, w.Body)
		}
		if made-madeBefore != 1 || commits-commitsBefore != frames {
			t.Errorf("%d frames: %d batches and %d commits, want 1 and %d", frames, made-madeBefore, commits-commitsBefore, frames)
		}
		if st := rcv.Stats(); st.Frames != uint64(frames*(frames+1)/2) {
			t.Errorf("after %d frames: %d frames committed in all", frames, st.Frames)
		}
	}
}
