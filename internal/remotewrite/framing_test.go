package remotewrite

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/expofmt"
	"repro/internal/labels"
)

// randFamilies builds a deterministic pseudo-random batch: a handful of
// families, each with several metrics carrying explicit timestamps and
// label sets of varying shape.
func randFamilies(rng *rand.Rand, nFam, nMetrics int) []*expofmt.Family {
	fams := make([]*expofmt.Family, 0, nFam)
	for f := 0; f < nFam; f++ {
		name := fmt.Sprintf("rw_metric_%d", f)
		fam := &expofmt.Family{Name: name, Type: expofmt.TypeGauge}
		for m := 0; m < nMetrics; m++ {
			lset := map[string]string{
				labels.MetricName: name,
				"instance":        fmt.Sprintf("node%d", rng.Intn(4)),
			}
			if rng.Intn(2) == 0 {
				lset["uuid"] = fmt.Sprintf("job-%d", rng.Intn(100))
			}
			fam.Metrics = append(fam.Metrics, expofmt.Metric{
				Labels: labels.FromMap(lset),
				Value:  rng.NormFloat64() * 1000,
				TS:     1_000_000 + rng.Int63n(1_000_000),
			})
		}
		fams = append(fams, fam)
	}
	return fams
}

// flatten reduces families to a comparable set of (labels, ts, value)
// strings, the only content the ingest path cares about.
func flatten(fams []*expofmt.Family) []string {
	var out []string
	for _, f := range fams {
		for _, m := range f.Metrics {
			out = append(out, fmt.Sprintf("%s %d %v", m.Labels, m.TS, m.Value))
		}
	}
	return out
}

// encodeStream frames the given batches into one wire stream. compress is
// NewEncoder's ignored parameter: either way the frames are raw.
func encodeStream(t testing.TB, compress bool, batches ...[]*expofmt.Family) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf, compress)
	for _, b := range batches {
		if err := enc.WriteBatch(b); err != nil {
			t.Fatalf("WriteBatch: %v", err)
		}
	}
	return buf.Bytes()
}

// TestRemoteWriteRoundTrip is the fuzz-shaped encode/decode property: many
// randomized batches, every sample must survive the wire byte-exact and the
// stream must end with a clean io.EOF. An encoder asked to compress writes
// the same raw bytes.
func TestRemoteWriteRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 50; trial++ {
				var sent [][]*expofmt.Family
				nBatches := 1 + rng.Intn(4)
				for i := 0; i < nBatches; i++ {
					sent = append(sent, randFamilies(rng, 1+rng.Intn(3), 1+rng.Intn(8)))
				}
				stream := encodeStream(t, compress, sent...)
				if raw := encodeStream(t, false, sent...); !bytes.Equal(stream, raw) {
					t.Fatalf("trial %d: %d-byte stream, raw %d bytes", trial, len(stream), len(raw))
				}

				dec := NewDecoder(bytes.NewReader(stream))
				var got []string
				frames := 0
				for {
					fams, err := dec.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatalf("trial %d frame %d: %v", trial, frames, err)
					}
					got = append(got, flatten(fams)...)
					frames++
				}
				dec.Release()
				if frames != nBatches {
					t.Fatalf("trial %d: decoded %d frames, want %d", trial, frames, nBatches)
				}
				var want []string
				for _, b := range sent {
					want = append(want, flatten(b)...)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d: %d samples decoded, want %d", trial, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d sample %d: got %q want %q", trial, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestRemoteWriteTruncatedStreams cuts a valid stream at EVERY byte offset:
// the decoder must deliver only complete frames and then fail with
// ErrTruncated (or report a clean EOF when the cut lands exactly on a frame
// boundary) — never garbage, never a panic.
func TestRemoteWriteTruncatedStreams(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			full := encodeStream(t, compress,
				randFamilies(rng, 2, 3), randFamilies(rng, 1, 5), randFamilies(rng, 3, 2))

			// Frame boundaries: offsets where a cut is a clean end of stream.
			boundaries := map[int]bool{len(full): true}
			off := len(Magic)
			boundaries[off] = true
			for off < len(full) {
				plen := int(binary.LittleEndian.Uint32(full[off+1 : off+5]))
				off += 9 + plen
				boundaries[off] = true
			}

			for cut := 0; cut < len(full); cut++ {
				dec := NewDecoder(bytes.NewReader(full[:cut]))
				var lastErr error
				for {
					_, err := dec.Next()
					if err != nil {
						lastErr = err
						break
					}
				}
				dec.Release()
				if boundaries[cut] && cut >= len(Magic) {
					if lastErr != io.EOF {
						t.Fatalf("cut at boundary %d: got %v, want io.EOF", cut, lastErr)
					}
				} else if !errors.Is(lastErr, ErrTruncated) {
					t.Fatalf("cut at %d: got %v, want ErrTruncated", cut, lastErr)
				}
			}
		})
	}
}

// TestRemoteWriteCorruption flips bytes and forges headers: each corruption
// class must surface as its own sentinel error.
func TestRemoteWriteCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fams := randFamilies(rng, 2, 4)

	decodeAll := func(stream []byte) ([]string, error) {
		dec := NewDecoder(bytes.NewReader(stream))
		defer dec.Release()
		var out []string
		for {
			fams, err := dec.Next()
			if err == io.EOF {
				return out, nil
			}
			if err != nil {
				return out, err
			}
			out = append(out, flatten(fams)...)
		}
	}

	t.Run("bad magic", func(t *testing.T) {
		stream := encodeStream(t, false, fams)
		stream[0] ^= 0xff
		if _, err := decodeAll(stream); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad flag", func(t *testing.T) {
		stream := encodeStream(t, false, fams)
		stream[4] = 0x7f // frame flag byte
		if _, err := decodeAll(stream); !errors.Is(err, ErrBadFlag) {
			t.Fatalf("got %v, want ErrBadFlag", err)
		}
	})
	t.Run("oversized frame", func(t *testing.T) {
		stream := encodeStream(t, false, fams)
		binary.LittleEndian.PutUint32(stream[5:9], MaxFrame+1)
		if _, err := decodeAll(stream); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("got %v, want ErrFrameTooLarge", err)
		}
	})
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("payload flip compress=%v", compress), func(t *testing.T) {
			stream := encodeStream(t, compress, fams, fams)
			if _, err := decodeAll(stream); err != nil {
				t.Fatal(err)
			}
			// Payload-data byte ranges (frame headers excluded: a flipped
			// header byte fails its own way — bad flag, truncation — while a
			// flipped payload byte must be caught by CRC-32C).
			payload := map[int]bool{}
			off := len(Magic)
			for off < len(stream) {
				plen := int(binary.LittleEndian.Uint32(stream[off+1 : off+5]))
				for i := off + 9; i < off+9+plen; i++ {
					payload[i] = true
				}
				off += 9 + plen
			}
			for i := len(Magic); i < len(stream); i++ {
				mut := append([]byte(nil), stream...)
				mut[i] ^= 0x01
				_, err := decodeAll(mut)
				if err == nil {
					t.Fatalf("flip at byte %d decoded silently", i)
				}
				if payload[i] && !errors.Is(err, ErrChecksum) {
					t.Fatalf("flip at byte %d: got %v, want ErrChecksum", i, err)
				}
			}
		})
	}
}

// TestRemoteWriteEncoderRejectsOversizedBatch: the encoder refuses to build
// a frame the decoder would reject.
func TestRemoteWriteEncoderRejectsOversizedBatch(t *testing.T) {
	big := &expofmt.Family{Name: "big", Type: expofmt.TypeGauge}
	huge := make([]byte, 1<<20)
	for i := range huge {
		huge[i] = 'a' + byte(i%26)
	}
	for i := 0; i < 5; i++ {
		big.Metrics = append(big.Metrics, expofmt.Metric{
			Labels: labels.FromMap(map[string]string{
				labels.MetricName: "big",
				"pad":             string(huge),
				"i":               fmt.Sprint(i),
			}),
			Value: 1, TS: 1000,
		})
	}
	var buf bytes.Buffer
	err := NewEncoder(&buf, false).WriteBatch([]*expofmt.Family{big})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

// TestRemoteWriteDecoderPoolReuse: a released decoder must come back clean.
func TestRemoteWriteDecoderPoolReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		fams := randFamilies(rng, 1, 3)
		stream := encodeStream(t, i%2 == 0, fams)
		dec := NewDecoder(bytes.NewReader(stream))
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if len(flatten(got)) != len(flatten(fams)) {
			t.Fatalf("iter %d: wrong sample count", i)
		}
		if _, err := dec.Next(); err != io.EOF {
			t.Fatalf("iter %d: want EOF, got %v", i, err)
		}
		dec.Release()
	}
}

// FuzzDecoder: any stream ends, frame by frame, in io.EOF or an error, never
// a panic, no frame makes the decoder hold more than MaxFrame bytes, and no
// frame with a flag other than 0 is accepted. Every frame it accepts is a
// differential between the receiver's reader and Next's: walking the payload
// with the Tokenizer must fail as Parse does, or give each series the same
// (labels, timestamp, value) sequence.
func FuzzDecoder(f *testing.F) {
	rng := rand.New(rand.NewSource(30))
	raw := encodeStream(f, false, randFamilies(rng, 2, 3))
	var payload []byte
	for _, fam := range randFamilies(rng, 3, 20) {
		payload = expofmt.AppendFamily(payload, fam)
	}
	deflated := appendFrame([]byte(Magic), payload, true, 0)
	multi := encodeStream(f, false, randFamilies(rng, 1, 4), randFamilies(rng, 2, 2), randFamilies(rng, 1, 30))
	firstLen := int(binary.LittleEndian.Uint32(multi[len(Magic)+1:]))
	flipped := bytes.Clone(deflated)
	flipped[len(Magic)+5] ^= 0x01 // the CRC
	oversized := bytes.Clone(raw)
	binary.LittleEndian.PutUint32(oversized[len(Magic)+1:], MaxFrame+1)
	// Flag 1, the DEFLATE frames senders once wrote, ends in ErrBadFlag: a
	// deflated batch, the same with a bad CRC, and a frame that would
	// inflate past MaxFrame.
	var bomb bytes.Buffer
	fw, _ := flate.NewWriter(&bomb, flate.BestCompression)
	fw.Write(bytes.Repeat([]byte("m 1 1\n"), MaxFrame/6+64))
	fw.Close()
	bombStream := append([]byte(Magic), 1)
	bombStream = binary.LittleEndian.AppendUint32(bombStream, uint32(bomb.Len()))
	bombStream = binary.LittleEndian.AppendUint32(bombStream, 0)
	bombStream = append(bombStream, bomb.Bytes()...)
	for _, s := range [][]byte{deflated, flipped, bombStream} {
		d := NewDecoder(bytes.NewReader(s))
		if _, err := d.frame(); !errors.Is(err, ErrBadFlag) {
			f.Fatalf("flag-1 stream: %v, want ErrBadFlag", err)
		}
		d.Release()
	}
	for _, s := range [][]byte{
		raw, deflated, multi,
		multi[:len(Magic)+9+firstLen], // cut at a frame boundary
		flipped, oversized, bombStream, {},
	} {
		f.Add(s)
	}
	interleaved := &ingestGen{rng: rand.New(rand.NewSource(31)), interleave: true}
	for i := 0; i < 4; i++ {
		f.Add(interleaved.stream())
	}
	f.Add(appendFrame([]byte(Magic), []byte("rw_a{x=\"1\"} 1 1\nrw_a 2\nrw_a{ 3\n"), false, 0)) // malformed third line
	f.Fuzz(func(t *testing.T, stream []byte) {
		d := NewDecoder(bytes.NewReader(stream))
		defer d.Release()
		off := len(Magic)
		for frames := 0; ; frames++ {
			payload, err := d.frame()
			if cap(d.stored) > MaxFrame {
				t.Fatalf("frame %d: holding %d bytes", frames, cap(d.stored))
			}
			if err != nil {
				return
			}
			if flag := stream[off]; flag != flagRaw {
				t.Fatalf("frame %d: flag 0x%02x accepted", frames, flag)
			}
			off += 9 + len(payload)
			if frames > len(stream)/9 {
				t.Fatalf("%d frames out of %d bytes", frames+1, len(stream))
			}
			checkTokenizerMatchesParse(t, payload)
		}
	})
}

// checkTokenizerMatchesParse walks payload with the Tokenizer, as the
// receiver does, and parses it into families, as Next does, and fails unless
// both fail alike or both give every series the same samples in the same
// order.
func checkTokenizerMatchesParse(t *testing.T, payload []byte) {
	t.Helper()
	type sample struct {
		ts   int64
		bits uint64
	}
	walked := map[string][]sample{}
	var tok expofmt.Tokenizer
	tok.Reset(payload)
	for tok.Next() {
		if tok.Meta == "" {
			_, ls := tok.Labels()
			key := fmt.Sprintf("%q", ls)
			walked[key] = append(walked[key], sample{tok.TS, math.Float64bits(tok.Value)})
		}
	}
	fams, err := expofmt.Parse(bytes.NewReader(payload))
	if fmt.Sprint(err) != fmt.Sprint(tok.Err()) {
		t.Fatalf("Parse: %v; Tokenizer: %v", err, tok.Err())
	}
	if err != nil {
		return // both failed alike; the walk's samples before the error are moot
	}
	parsed := map[string][]sample{}
	for _, f := range fams {
		for _, m := range f.Metrics {
			key := fmt.Sprintf("%q", m.Labels)
			parsed[key] = append(parsed[key], sample{m.TS, math.Float64bits(m.Value)})
		}
	}
	if fmt.Sprint(parsed) != fmt.Sprint(walked) {
		t.Fatalf("Parse: %v\nTokenizer: %v", parsed, walked)
	}
}

// TestRemoteWriteFrameBytesPinned pins the CRW1 wire bytes of a fixed batch:
// the raw stream's hash was recorded before the encoder moved from
// expofmt.Writer to expofmt.AppendFamily, and holds for an encoder asked to
// compress too, since every frame is raw.
func TestRemoteWriteFrameBytesPinned(t *testing.T) {
	batch := randFamilies(rand.New(rand.NewSource(18)), 6, 40)
	const want = "4e82ad1af9e90bf9eb39e94609490a9700995993f8c557857475c3823d5729f6"
	for _, compress := range []bool{false, true} {
		raw := encodeStream(t, compress, batch, batch[:2])
		if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want {
			t.Errorf("compress=%v: CRW1 stream changed: sha256 %s, want %s", compress, got, want)
		}
	}
}
