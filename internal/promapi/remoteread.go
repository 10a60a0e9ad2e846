package promapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
)

// Remote read: a JSON equivalent of Prometheus's remote-read protocol so a
// standalone CEEMS API server can use a remote TSDB as its promql
// Queryable. POST /api/v1/read with a readRequest returns full series.

// readRequest is the wire format of a remote Select.
type readRequest struct {
	MinTime  int64         `json:"min_time"`
	MaxTime  int64         `json:"max_time"`
	Matchers []readMatcher `json:"matchers"`
}

type readMatcher struct {
	Type  string `json:"type"` // "=", "!=", "=~", "!~"
	Name  string `json:"name"`
	Value string `json:"value"`
}

type readResponse struct {
	Series []readSeries `json:"series"`
	Error  string       `json:"error,omitempty"`
}

type readSeries struct {
	Labels  map[string]string `json:"labels"`
	Samples []readSample      `json:"samples"` // [unix_ms, "value"]
}

// readSample is one [unix_ms, "value"] pair. The value is written as a
// string, as the query API writes it, because JSON has no number for NaN or
// ±Inf and every staleness marker is a NaN; a marker is written as
// staleValue so it stays apart from an ordinary NaN. A value written as a
// number — the form of servers before the string one — reads as well.
type readSample model.Sample

// staleValue is a staleness marker's value on the wire.
const staleValue = "stale"

func (s readSample) MarshalJSON() ([]byte, error) {
	b := strconv.AppendInt(append(make([]byte, 0, 32), '['), s.T, 10)
	b = append(b, ',', '"')
	if model.IsStaleNaN(s.V) {
		b = append(b, staleValue...)
	} else {
		b = model.AppendFloat(b, s.V)
	}
	return append(b, '"', ']'), nil
}

func (s *readSample) UnmarshalJSON(data []byte) error {
	var pair [2]json.RawMessage
	if err := json.Unmarshal(data, &pair); err != nil {
		return err
	}
	var t float64
	if err := json.Unmarshal(pair[0], &t); err != nil {
		return err
	}
	s.T = int64(t)
	if len(pair[1]) == 0 || pair[1][0] != '"' {
		return json.Unmarshal(pair[1], &s.V)
	}
	var v string
	if err := json.Unmarshal(pair[1], &v); err != nil {
		return err
	}
	if v == staleValue {
		s.V = model.StaleNaN()
		return nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return fmt.Errorf("sample value %q: %w", v, err)
	}
	s.V = f
	return nil
}

// maxReadRequestBytes caps a remote read request body. A request is a time
// window and a few matchers; even a regexp listing thousands of job UUIDs
// fits with room to spare.
const maxReadRequestBytes = 1 << 20

// handleRead serves POST /api/v1/read. The request is checked before storage
// is touched: a body past maxReadRequestBytes is 413, one that does not
// decode, names a bad matcher or names none is 400. The read is budgeted
// like the query paths: the engine's MaxSamples caps how much one read
// request may materialize server-side, and blowing the budget returns 422.
// The response streams series by series — the handler never holds the full
// result set encoded in memory — and when Timeout is set it doubles as the
// response write deadline, so a stalled client cannot pin the connection
// forever.
func (h *Handler) handleRead(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req readRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxReadRequestBytes)).Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeReadErr(w, code, err.Error())
		return
	}
	if len(req.Matchers) == 0 {
		writeReadErr(w, http.StatusBadRequest, "remote read requires at least one matcher")
		return
	}
	ms := make([]*labels.Matcher, 0, len(req.Matchers))
	for _, rm := range req.Matchers {
		var t labels.MatchType
		switch rm.Type {
		case "=":
			t = labels.MatchEqual
		case "!=":
			t = labels.MatchNotEqual
		case "=~":
			t = labels.MatchRegexp
		case "!~":
			t = labels.MatchNotRegexp
		default:
			writeReadErr(w, http.StatusBadRequest, fmt.Sprintf("bad matcher type %q", rm.Type))
			return
		}
		m, err := labels.NewMatcher(t, rm.Name, rm.Value)
		if err != nil {
			writeReadErr(w, http.StatusBadRequest, err.Error())
			return
		}
		ms = append(ms, m)
	}
	series, err := h.Query.SelectWithHints(model.SelectHints{
		Start:       req.MinTime,
		End:         req.MaxTime,
		SampleLimit: int64(h.engine().MaxSamples),
	}, ms...)
	if err != nil {
		if errors.Is(err, model.ErrSampleLimit) {
			writeReadErr(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		writeReadErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	if h.Timeout > 0 {
		// Best effort: recorders and exotic ResponseWriters don't support
		// deadlines; real servers do.
		_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(h.Timeout))
	}
	// Stream the response: the envelope by hand, one readSeries encode per
	// series. The wire shape stays exactly readResponse, but peak memory is
	// one series, not the whole result set.
	w.Header().Set("Content-Type", "application/json")
	if _, err := io.WriteString(w, `{"series":[`); err != nil {
		h.logf("promapi: remote read: write response: %v", err)
		return
	}
	enc := json.NewEncoder(w)
	for i, sr := range series {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				h.logf("promapi: remote read: write response: %v", err)
				return
			}
		}
		out := readSeries{Labels: sr.Labels.Map(), Samples: make([]readSample, len(sr.Samples))}
		for j, s := range sr.Samples {
			out.Samples[j] = readSample(s)
		}
		if err := enc.Encode(out); err != nil {
			// Mid-stream failure: the status line is gone, all we can do
			// is log and drop the connection (the truncated JSON will fail
			// to parse client-side, which is the correct signal).
			h.logf("promapi: remote read: encode series %d/%d: %v", i+1, len(series), err)
			return
		}
	}
	if _, err := io.WriteString(w, `]}`); err != nil {
		h.logf("promapi: remote read: write response: %v", err)
	}
}

// logf routes handler-side I/O failures to Logf or the standard logger.
func (h *Handler) logf(format string, args ...any) {
	if h.Logf != nil {
		h.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

func writeReadErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(readResponse{Error: msg})
}

// DefaultRemoteReadMaxBody caps how much of a remote read response the
// client will buffer when RemoteQueryable.MaxBodyBytes is unset.
const DefaultRemoteReadMaxBody = 256 << 20

// RemoteQueryable is a promql.Queryable backed by a remote /api/v1/read
// endpoint; the standalone CEEMS API server uses it to aggregate against a
// separately-deployed TSDB.
type RemoteQueryable struct {
	BaseURL string
	Client  *http.Client
	Timeout time.Duration
	// MaxBodyBytes caps the response body read; 0 picks
	// DefaultRemoteReadMaxBody. A response past the cap fails rather than
	// exhausting memory.
	MaxBodyBytes int64
}

// SelectWithHints implements promql.Queryable over HTTP. The request carries
// the window (hints.Start, hints.End) and the matchers and no other hint:
// the remote store reads at full resolution under its own sample budget,
// and the engine charges what comes back against its own. Non-200 responses
// fail with the status code and a snippet of the body — a proxy's 502 HTML
// page is reported as such instead of surfacing as a JSON decode error — and
// the body read is capped either way.
func (rq *RemoteQueryable) SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	req := readRequest{MinTime: hints.Start, MaxTime: hints.End}
	for _, m := range ms {
		req.Matchers = append(req.Matchers, readMatcher{
			Type: m.Type.String(), Name: m.Name, Value: m.Value,
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	timeout := rq.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, rq.BaseURL+"/api/v1/read", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	client := rq.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("promapi: remote read: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Error bodies are small (or not ours at all — a proxy error
		// page); read just enough to be diagnostic.
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("promapi: remote read: unexpected status %s: %s",
			resp.Status, bytes.TrimSpace(snippet))
	}
	maxBody := rq.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultRemoteReadMaxBody
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > maxBody {
		return nil, fmt.Errorf("promapi: remote read: response body exceeds %d-byte cap", maxBody)
	}
	var rr readResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		return nil, fmt.Errorf("promapi: remote read decode: %w", err)
	}
	if rr.Error != "" {
		return nil, fmt.Errorf("promapi: remote read: %s", rr.Error)
	}
	out := make([]model.Series, len(rr.Series))
	for i, sr := range rr.Series {
		s := model.Series{Labels: labels.FromMap(sr.Labels)}
		for _, p := range sr.Samples {
			s.Samples = append(s.Samples, model.Sample(p))
		}
		out[i] = s
	}
	return out, nil
}
