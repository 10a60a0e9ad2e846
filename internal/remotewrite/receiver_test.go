package remotewrite

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/expofmt"
	"repro/internal/labels"
	"repro/internal/scrape"
	"repro/internal/tsdb"
)

func postStream(t testing.TB, rcv *Receiver, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/write", bytes.NewReader(body))
	w := httptest.NewRecorder()
	rcv.ServeHTTP(w, req)
	return w
}

// TestIngestEndToEnd pushes frames into a real head and checks the samples
// land, the response accounts for them, and the status counters agree.
func TestIngestEndToEnd(t *testing.T) {
	db := tsdb.MustOpen(tsdb.Options{OutOfOrderWindow: 60_000})
	rcv := &Receiver{NewBatch: func() scrape.Batch { return db.Appender() }}

	rng := rand.New(rand.NewSource(1))
	b1 := randFamilies(rng, 2, 5)
	b2 := randFamilies(rng, 1, 5)
	w := postStream(t, rcv, encodeStream(t, true, b1, b2))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Status string `json:"status"`
		Data   struct {
			Frames   int `json:"frames"`
			Decoded  int `json:"decoded"`
			Appended int `json:"appended"`
		} `json:"data"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response: %v", err)
	}
	wantSamples := len(flatten(b1)) + len(flatten(b2))
	if resp.Status != "success" || resp.Data.Frames != 2 || resp.Data.Decoded != wantSamples {
		t.Fatalf("response %+v, want 2 frames / %d decoded", resp, wantSamples)
	}
	if resp.Data.Appended <= 0 || resp.Data.Appended > wantSamples {
		t.Fatalf("appended %d out of range (0, %d]", resp.Data.Appended, wantSamples)
	}

	// The head must actually hold the pushed series.
	m, err := labels.NewMatcher(labels.MatchEqual, labels.MetricName, b1[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	series, err := db.Select(0, int64(1)<<62, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) == 0 {
		t.Fatalf("no series %q in head after ingest", b1[0].Name)
	}

	st := rcv.Stats()
	if st.Requests != 1 || st.Frames != 2 || st.SamplesDecoded != uint64(wantSamples) {
		t.Fatalf("stats %+v", st)
	}
	if st.SamplesAppended != uint64(resp.Data.Appended) {
		t.Fatalf("stats appended %d, response said %d", st.SamplesAppended, resp.Data.Appended)
	}
}

// TestIngestRetryIdempotent resends an identical stream: with the
// out-of-order window on, the retry must append nothing and be reported as
// duplicates — the at-least-once push contract.
func TestIngestRetryIdempotent(t *testing.T) {
	db := tsdb.MustOpen(tsdb.Options{OutOfOrderWindow: 300_000})
	rcv := &Receiver{NewBatch: func() scrape.Batch { return db.Appender() }}

	fams := []*expofmt.Family{{Name: "push_total", Type: expofmt.TypeCounter}}
	for i := 0; i < 20; i++ {
		fams[0].Metrics = append(fams[0].Metrics, expofmt.Metric{
			Labels: labels.FromMap(map[string]string{
				labels.MetricName: "push_total",
				"instance":        fmt.Sprintf("n%d", i%4),
			}),
			Value: float64(i), TS: int64(1000 * (i + 1)),
		})
	}
	body := encodeStream(t, false, fams)

	first := postStream(t, rcv, body)
	if first.Code != http.StatusOK {
		t.Fatalf("first push: %d %s", first.Code, first.Body)
	}
	epoch := db.AppendEpoch()

	second := postStream(t, rcv, body)
	if second.Code != http.StatusOK {
		t.Fatalf("retry: %d %s", second.Code, second.Body)
	}
	var resp struct {
		Data struct {
			Appended int `json:"appended"`
		} `json:"data"`
	}
	if err := json.Unmarshal(second.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Data.Appended != 0 {
		t.Fatalf("retry appended %d samples, want 0", resp.Data.Appended)
	}
	if got := db.AppendEpoch(); got != epoch {
		t.Fatalf("retry moved the append epoch %d -> %d", epoch, got)
	}
	if st := rcv.Stats(); st.Duplicates != 20 {
		t.Fatalf("stats %+v, want 20 duplicates", st)
	}
}

// blockingBatch parks Commit until released, so a test can hold commit
// slots occupied deterministically.
type blockingBatch struct {
	n       int
	entered chan struct{}
	release chan struct{}
}

func (b *blockingBatch) Add(lset labels.Labels, t int64, v float64) { b.n++ }
func (b *blockingBatch) Commit() (int, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.n, nil
}

// TestIngestBackpressure429 saturates the commit slots and checks the next
// request is refused up front with 429 + Retry-After, then succeeds once a
// slot frees up.
func TestIngestBackpressure429(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	rcv := &Receiver{
		NewBatch:    func() scrape.Batch { return &blockingBatch{entered: entered, release: release} },
		MaxInflight: 2,
		RetryAfter:  3 * time.Second,
	}
	rng := rand.New(rand.NewSource(5))
	body := encodeStream(t, false, randFamilies(rng, 1, 3))

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = postStream(t, rcv, body).Code
		}(i)
	}
	// Both slow requests are inside Commit, holding both slots.
	<-entered
	<-entered

	w := postStream(t, rcv, body)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated push: status %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	var errResp struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &errResp); err != nil || errResp.Status != "error" {
		t.Fatalf("429 body %s (err %v)", w.Body, err)
	}

	close(release)
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("blocked request %d finished with %d", i, c)
		}
	}
	st := rcv.Stats()
	if st.Rejected429 != 1 {
		t.Fatalf("stats %+v, want 1 rejection", st)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight %d after drain, want 0", st.InFlight)
	}

	// Capacity is available again: a fresh push must not see 429. The
	// release channel is closed, so commits no longer block.
	for len(entered) > 0 {
		<-entered
	}
	if w := postStream(t, rcv, body); w.Code != http.StatusOK {
		t.Fatalf("post-drain push: status %d, want 200", w.Code)
	}
}

// TestIngestRejectsMissingTimestamp: scrape-style samples without explicit
// timestamps are a client error.
func TestIngestRejectsMissingTimestamp(t *testing.T) {
	db := tsdb.MustOpen(tsdb.Options{})
	rcv := &Receiver{NewBatch: func() scrape.Batch { return db.Appender() }}
	fams := []*expofmt.Family{{
		Name: "no_ts", Type: expofmt.TypeGauge,
		Metrics: []expofmt.Metric{{
			Labels: labels.FromMap(map[string]string{labels.MetricName: "no_ts"}),
			Value:  1, // TS zero: scrape-time semantics, invalid for push
		}},
	}}
	w := postStream(t, rcv, encodeStream(t, false, fams))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", w.Code)
	}
	if st := rcv.Stats(); st.BadRequests != 1 {
		t.Fatalf("stats %+v, want 1 bad request", st)
	}
}

// TestIngestBadStream: a garbage body is a 400, not a 500 or a hang.
func TestIngestBadStream(t *testing.T) {
	db := tsdb.MustOpen(tsdb.Options{})
	rcv := &Receiver{NewBatch: func() scrape.Batch { return db.Appender() }}
	for _, body := range [][]byte{
		[]byte("not a stream"),
		[]byte("CRW"),
		append([]byte(Magic), 0x02, 0, 0, 0, 0, 0, 0, 0, 0), // bad flag
	} {
		if w := postStream(t, rcv, body); w.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, w.Code)
		}
	}
	// A truncated tail after a committed frame still reports the error —
	// and tells the client how many frames landed.
	rng := rand.New(rand.NewSource(11))
	good := encodeStream(t, false, randFamilies(rng, 1, 2))
	torn := append(append([]byte(nil), good...), 0x00, 0x05)
	w := postStream(t, rcv, torn)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("torn tail: status %d, want 400", w.Code)
	}
	if !bytes.Contains(w.Body.Bytes(), []byte("1 frames committed")) {
		t.Fatalf("torn-tail error does not report committed frames: %s", w.Body)
	}
}

// TestIngestRefusesDeflatedFrame: a DEFLATE frame (flag 1) after two raw
// ones is a 400 that names frame 2; the raw frames are committed and nothing
// of frame 2 is.
func TestIngestRefusesDeflatedFrame(t *testing.T) {
	db := tsdb.MustOpen(tsdb.Options{})
	rcv := &Receiver{NewBatch: func() scrape.Batch { return db.Appender() }}
	rng := rand.New(rand.NewSource(17))
	b0, b1 := randFamilies(rng, 2, 3), randFamilies(rng, 1, 4)
	deflated := &expofmt.Family{Name: "rw_deflated", Type: expofmt.TypeGauge, Metrics: []expofmt.Metric{{
		Labels: labels.FromStrings(labels.MetricName, "rw_deflated", "instance", "n0"), Value: 1, TS: 1000,
	}}}
	body := appendFrame(encodeStream(t, false, b0, b1), expofmt.AppendFamily(nil, deflated), true, 0)
	w := postStream(t, rcv, body)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, w.Body)
	}
	for _, want := range []string{"frame 2: ", ErrBadFlag.Error(), "(2 frames committed)"} {
		if !bytes.Contains(w.Body.Bytes(), []byte(want)) {
			t.Errorf("body %s does not say %q", w.Body, want)
		}
	}
	if st := rcv.Stats(); st.Frames != 2 || st.SamplesDecoded != uint64(len(flatten(b0))+len(flatten(b1))) {
		t.Errorf("stats %+v, want 2 frames of %d samples", st, len(flatten(b0))+len(flatten(b1)))
	}
	got, err := db.Select(0, 1<<62, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "rw_deflated"))
	if err != nil || len(got) != 0 {
		t.Errorf("frame 2 in the head: %v (err %v)", got, err)
	}
}

type failingBatch struct{}

func (failingBatch) Add(lset labels.Labels, t int64, v float64) {}
func (failingBatch) Commit() (int, error)                       { return 0, errors.New("quorum lost") }

// TestIngestCommitFailure: storage-side commit errors are 503 (retryable),
// not 4xx.
func TestIngestCommitFailure(t *testing.T) {
	rcv := &Receiver{NewBatch: func() scrape.Batch { return failingBatch{} }}
	rng := rand.New(rand.NewSource(13))
	w := postStream(t, rcv, encodeStream(t, false, randFamilies(rng, 1, 2)))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if st := rcv.Stats(); st.Failed != 1 {
		t.Fatalf("stats %+v, want 1 failed commit", st)
	}
}

// TestIngestMethodNotAllowed: only POST is served.
func TestIngestMethodNotAllowed(t *testing.T) {
	rcv := &Receiver{NewBatch: func() scrape.Batch { return failingBatch{} }}
	req := httptest.NewRequest(http.MethodGet, "/api/v1/write", nil)
	w := httptest.NewRecorder()
	rcv.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", w.Code)
	}
	if allow := w.Header().Get("Allow"); allow != http.MethodPost {
		t.Fatalf("Allow = %q, want POST", allow)
	}
}
