package remotewrite

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expofmt"
	"repro/internal/labels"
	"repro/internal/scrape"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// DefaultRetryAfter is the Retry-After hint sent with 429 responses when
// the receiver has no configured value.
const DefaultRetryAfter = time.Second

// roundSpan is the longest round of the receiver's series cache, in ms of
// sample time or of wall time (see endRound): PromQL's default lookback,
// after which a series not pushed again reads as absent anyway.
const roundSpan = 5 * 60 * 1000

// commitStatser is the optional interface a Batch may implement to report
// the out-of-order/duplicate breakdown of its last Commit. *tsdb.Appender
// does; the cluster ring batch does not (quorum commits only report a
// landed-sample count).
type commitStatser interface {
	LastCommitStats() tsdb.CommitStats
}

// Receiver serves POST /api/v1/write. Each request is a framed stream (see
// the package comment); the receiver tokenizes and commits one frame at a
// time through the request's one Batch, so memory per request is bounded by
// one frame regardless of body size.
//
// Backpressure is explicit: at most MaxInflight requests hold commit slots
// at once. A request that cannot take a slot immediately — before its body
// is read at all — is answered 429 with a Retry-After header instead of
// queueing, so a storm of pushing agents backs off at the edge rather than
// buffering unboundedly in front of the shard commit path. A 200 response
// means every frame was committed (durably, under the node's WAL policy, or
// with W-quorum acks on the cluster ring); agents may retry any other
// response — the store's out-of-order window makes resends of partially
// committed batches idempotent.
type Receiver struct {
	// NewBatch returns a fresh commit batch: db.Appender() on a single
	// node, ring.NewBatch() on the cluster ring. One per request.
	NewBatch func() scrape.Batch
	// MaxInflight bounds concurrently committing requests; 0 picks
	// 2×GOMAXPROCS.
	MaxInflight int
	// RetryAfter is the backoff hint on 429 responses; 0 picks
	// DefaultRetryAfter.
	RetryAfter time.Duration
	// Telemetry, when set before the first request, exposes the ingest
	// counters as telemetry_remotewrite_* series; /api/v1/status/ingest
	// reads the same instruments. Nil keeps them private.
	Telemetry *telemetry.Registry

	once  sync.Once
	slots chan struct{}

	// series maps the exposed name{…} bytes of what was pushed lately to
	// its entry, as a scrape target's cache does, so a sample pushed again
	// is one map lookup and its commit finds the head's series by ref. It
	// is swept in rounds: see endRound. seriesMu guards it and the round's
	// clocks, and is held for one frame's resolves and stagings at a time.
	seriesMu sync.Mutex
	series   labels.SeriesCache
	newest   int64     // the newest sample committed in the open round, 0 for none
	swept    int64     // the newest sample of the round the last sweep closed
	sweptAt  time.Time // the wall-clock time of the last sweep
	// wallClock stands in for time.Now when set; tests set it.
	wallClock func() time.Time

	requests    *telemetry.Counter
	frames      *telemetry.Counter
	samples     *telemetry.Counter
	appended    *telemetry.Counter
	oooAccepted *telemetry.Counter
	duplicates  *telemetry.Counter
	tooOld      *telemetry.Counter
	rejected    *telemetry.Counter
	badRequests *telemetry.Counter
	failed      *telemetry.Counter
	inFlight    atomic.Int64
}

// IngestStats is the JSON shape served by /api/v1/status/ingest. The ingest
// rate is rate(telemetry_remotewrite_samples_appended_total[1m]) on /metrics.
type IngestStats struct {
	Requests        uint64 `json:"requests"`
	Frames          uint64 `json:"frames"`
	SamplesDecoded  uint64 `json:"samples_decoded"`
	SamplesAppended uint64 `json:"samples_appended"`
	OOOAccepted     uint64 `json:"ooo_accepted"`
	Duplicates      uint64 `json:"duplicates_skipped"`
	TooOld          uint64 `json:"ooo_too_old"`
	Rejected429     uint64 `json:"rejected_backpressure"`
	BadRequests     uint64 `json:"bad_requests"`
	Failed          uint64 `json:"failed_commits"`
	InFlight        int64  `json:"in_flight"`
	MaxInflight     int    `json:"max_inflight"`
}

func (rcv *Receiver) init() {
	rcv.once.Do(func() {
		n := rcv.MaxInflight
		if n <= 0 {
			n = 2 * runtime.GOMAXPROCS(0)
		}
		rcv.MaxInflight = n
		rcv.slots = make(chan struct{}, n)
		reg := rcv.Telemetry
		if reg == nil {
			reg = telemetry.NewRegistry()
		}
		rcv.requests = reg.Counter("telemetry_remotewrite_requests_total",
			"Remote-write POST requests received (including rejected ones).")
		rcv.frames = reg.Counter("telemetry_remotewrite_frames_total",
			"Frames decoded and committed.")
		rcv.samples = reg.Counter("telemetry_remotewrite_samples_decoded_total",
			"Samples decoded from frames before commit.")
		rcv.appended = reg.Counter("telemetry_remotewrite_samples_appended_total",
			"Samples the store accepted at commit.")
		rcv.oooAccepted = reg.Counter("telemetry_remotewrite_ooo_accepted_total",
			"Committed samples that landed through the out-of-order window.")
		rcv.duplicates = reg.Counter("telemetry_remotewrite_duplicates_total",
			"Exact duplicate samples silently skipped at commit.")
		rcv.tooOld = reg.Counter("telemetry_remotewrite_too_old_total",
			"Samples rejected for falling outside the out-of-order window.")
		rcv.rejected = reg.Counter("telemetry_remotewrite_rejected_total",
			"Requests answered 429 because every commit slot was taken.")
		rcv.badRequests = reg.Counter("telemetry_remotewrite_bad_requests_total",
			"Requests answered 400 (framing or validation errors).")
		rcv.failed = reg.Counter("telemetry_remotewrite_failed_commits_total",
			"Frames whose commit failed (WAL error, lost quorum).")
		reg.GaugeFunc("telemetry_remotewrite_in_flight",
			"Requests currently holding a commit slot.",
			func() float64 { return float64(rcv.inFlight.Load()) })
	})
}

// Stats snapshots the ingest counters.
func (rcv *Receiver) Stats() IngestStats {
	rcv.init()
	return IngestStats{
		Requests:        rcv.requests.Value(),
		Frames:          rcv.frames.Value(),
		SamplesDecoded:  rcv.samples.Value(),
		SamplesAppended: rcv.appended.Value(),
		OOOAccepted:     rcv.oooAccepted.Value(),
		Duplicates:      rcv.duplicates.Value(),
		TooOld:          rcv.tooOld.Value(),
		Rejected429:     rcv.rejected.Value(),
		BadRequests:     rcv.badRequests.Value(),
		Failed:          rcv.failed.Value(),
		InFlight:        rcv.inFlight.Load(),
		MaxInflight:     rcv.MaxInflight,
	}
}

func (rcv *Receiver) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rcv.init()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeIngestErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	rcv.requests.Add(1)
	// Take a commit slot before touching the body: when the commit path is
	// saturated the bytes stay in the client's socket, not in our heap.
	select {
	case rcv.slots <- struct{}{}:
	default:
		rcv.rejected.Add(1)
		ra := rcv.RetryAfter
		if ra <= 0 {
			ra = DefaultRetryAfter
		}
		secs := int(ra.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeIngestErr(w, http.StatusTooManyRequests, "ingest saturated; retry later")
		return
	}
	defer func() { <-rcv.slots }()
	rcv.inFlight.Add(1)
	defer rcv.inFlight.Add(-1)

	dec := NewDecoder(r.Body)
	defer dec.Release()
	// newest is the newest sample of the frames committed so far; the round
	// clock moves by what was committed only.
	var newest int64
	defer func() { rcv.endRound(newest) }()
	// One batch per request, as a scrape takes one per pass (Commit leaves it
	// reusable); a frame that fails validation ends the request uncommitted.
	batch := rcv.NewBatch()
	eb, _ := batch.(scrape.EntryBatch)
	var tok expofmt.Tokenizer
	var appended, frames, decoded int
	for {
		payload, err := dec.frame()
		if err == io.EOF {
			break
		}
		n, unstamped, frameNewest := 0, "", int64(0)
		if err == nil {
			tok.Reset(payload)
			rcv.seriesMu.Lock()
			for tok.Next() {
				if tok.Meta != "" {
					continue
				}
				if tok.TS == 0 {
					if unstamped == "" {
						unstamped = string(tok.Name)
					}
					continue
				}
				e := rcv.series.Get(tok.Series)
				if e == nil {
					// Labels copies: nothing cached aliases the pooled payload.
					e = rcv.series.Put(tok.Labels())
				}
				rcv.series.Stamp(e)
				scrape.Stage(batch, eb, e, tok.TS, tok.Value)
				frameNewest = max(frameNewest, tok.TS)
				n++
			}
			rcv.seriesMu.Unlock()
			if err = tok.Err(); err != nil {
				err = fmt.Errorf("remotewrite: parse frame payload: %w", err)
			} else if unstamped != "" {
				err = fmt.Errorf("metric %s has no timestamp; remote write requires explicit timestamps", unstamped)
			}
		}
		if err != nil {
			rcv.badRequests.Add(1)
			writeIngestErr(w, http.StatusBadRequest,
				fmt.Sprintf("frame %d: %v (%d frames committed)", frames, err, frames))
			return
		}
		decoded += n
		rcv.samples.Add(uint64(n))
		got, err := batch.Commit()
		if err != nil {
			rcv.failed.Add(1)
			// Commit failures (WAL write error, lost quorum) are the
			// store's fault, not the client's, and are retryable.
			writeIngestErr(w, http.StatusServiceUnavailable,
				fmt.Sprintf("frame %d: commit: %v (%d frames committed)", frames, err, frames))
			return
		}
		appended += got
		newest = max(newest, frameNewest)
		frames++
		rcv.frames.Add(1)
		rcv.appended.Add(uint64(got))
		if cs, ok := batch.(commitStatser); ok {
			st := cs.LastCommitStats()
			rcv.oooAccepted.Add(uint64(st.OOOAccepted))
			rcv.duplicates.Add(uint64(st.Duplicates))
			rcv.tooOld.Add(uint64(st.TooOld))
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(map[string]any{
		"status": "success",
		"data": map[string]int{
			"frames":   frames,
			"decoded":  decoded,
			"appended": appended,
		},
	})
}

// endRound closes the series cache's round at the end of a request that
// committed samples up to newest (0 for none). A round closes once the
// samples committed in it reach roundSpan past the newest of the round the
// last sweep closed, or, whatever the samples say, once roundSpan of wall
// time has passed since that sweep. A sweep evicts what its round did not
// stamp, so the cache holds what was pushed in the last two rounds, under
// 10 minutes of sample time or of wall time, however many agents push in
// turn and however their series churn; the head holds far more.
//
// The sample clock ends rounds as the pushes advance, as the head's
// out-of-order window does, so a count of samples cannot end one before
// every agent has pushed again, and a simulation that runs faster than the
// wall keeps the same bound. The wall clock ends them when the samples do
// not advance past the mark: one sample pushed far in the future makes the
// mark unreachable until the next sweep, which re-sets it from the samples
// of its own round. With no size knob, the entries of a series no one
// pushes any more, and the head series their handles hold, are gone within
// two rounds.
func (rcv *Receiver) endRound(newest int64) {
	now := time.Now
	if rcv.wallClock != nil {
		now = rcv.wallClock
	}
	wall := now()
	rcv.seriesMu.Lock()
	defer rcv.seriesMu.Unlock()
	rcv.newest = max(rcv.newest, newest)
	if rcv.newest-rcv.swept < roundSpan && wall.Sub(rcv.sweptAt) < roundSpan*time.Millisecond {
		return
	}
	rcv.series.Sweep(nil)
	if rcv.newest != 0 {
		rcv.swept = rcv.newest
	}
	rcv.newest, rcv.sweptAt = 0, wall
}

func writeIngestErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"status": "error", "error": msg})
}
