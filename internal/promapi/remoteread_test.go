package promapi

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/tsdb"
)

func TestRemoteReadRoundTrip(t *testing.T) {
	h := testHandler(t)
	srv := httptest.NewServer(h.Mux())
	defer srv.Close()

	rq := &RemoteQueryable{BaseURL: srv.URL}
	series, err := rq.SelectWithHints(model.SelectHints{Start: 0, End: 1 << 60}, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "reqs_total"))
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if len(series) != 1 {
		t.Fatalf("series = %d", len(series))
	}
	if len(series[0].Samples) != 41 {
		t.Errorf("samples = %d, want 41", len(series[0].Samples))
	}
	if series[0].Labels.Name() != "reqs_total" {
		t.Errorf("labels = %v", series[0].Labels)
	}
	// Time bounds respected.
	series, _ = rq.SelectWithHints(model.SelectHints{Start: 0, End: 60_000}, labels.MustMatcher(labels.MatchEqual, labels.MetricName, "reqs_total"))
	if len(series[0].Samples) != 5 {
		t.Errorf("bounded samples = %d, want 5", len(series[0].Samples))
	}
}

// TestRemoteReadSpecialValues: every value a head holds crosses
// /api/v1/read and comes back out of RemoteQueryable as it went in — a
// staleness marker still a marker, an ordinary NaN still a NaN and not a
// marker, ±Inf and finite values bit for bit — and a body written with
// numbers, as servers before the string form wrote it, still reads.
func TestRemoteReadSpecialValues(t *testing.T) {
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	ls := labels.FromStrings(labels.MetricName, "odd", "instance", "n1")
	in := []float64{1.5, model.StaleNaN(), math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, -1e-300, 0.1, 1e21, 123456789.125}
	for i, v := range in {
		if err := db.Append(ls, int64(i)*15_000, v); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer((&Handler{Query: db}).Mux())
	defer srv.Close()
	m := labels.MustMatcher(labels.MatchEqual, labels.MetricName, "odd")
	got, err := (&RemoteQueryable{BaseURL: srv.URL}).SelectWithHints(model.SelectHints{Start: 0, End: 1 << 40}, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Labels.Equal(ls) || len(got[0].Samples) != len(in) {
		t.Fatalf("read back %v", got)
	}
	for i, s := range got[0].Samples {
		want := in[i]
		switch {
		case s.T != int64(i)*15_000:
			t.Errorf("sample %d at %d", i, s.T)
		case model.IsStaleNaN(want):
			if !model.IsStaleNaN(s.V) {
				t.Errorf("staleness marker came back as %x", math.Float64bits(s.V))
			}
		case math.IsNaN(want):
			if !math.IsNaN(s.V) || model.IsStaleNaN(s.V) {
				t.Errorf("NaN came back as %x", math.Float64bits(s.V))
			}
		case math.Float64bits(s.V) != math.Float64bits(want):
			t.Errorf("%v came back as %v", want, s.V)
		}
	}

	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `{"series":[{"labels":{"__name__":"odd"},"samples":[[15000,1.5],[30000,-2e-7]]}`+"\n"+`]}`)
	}))
	defer old.Close()
	got, err = (&RemoteQueryable{BaseURL: old.URL}).SelectWithHints(model.SelectHints{Start: 0, End: 1 << 40}, m)
	if err != nil {
		t.Fatal(err)
	}
	if want := []model.Sample{{T: 15000, V: 1.5}, {T: 30000, V: -2e-7}}; len(got) != 1 || !slices.Equal(got[0].Samples, want) {
		t.Errorf("number form read as %v, want %v", got, want)
	}
}

// The remote queryable must work as a PromQL backend end-to-end. It sends
// no sample budget over the wire, so the engine's own charge of what comes
// back is what holds its MaxSamples.
func TestRemoteQueryableWithEngine(t *testing.T) {
	h := testHandler(t)
	srv := httptest.NewServer(h.Mux())
	defer srv.Close()

	rq := &RemoteQueryable{BaseURL: srv.URL}
	eng := promql.NewEngine()
	v, err := eng.Instant(rq, `rate(reqs_total[2m])`, time.UnixMilli(600_000))
	if err != nil {
		t.Fatalf("Instant over remote: %v", err)
	}
	vec := v.(promql.Vector)
	if len(vec) != 1 || vec[0].V != 10 {
		t.Errorf("remote rate = %+v, want 10", vec)
	}

	// The 2m window holds 8 samples; a budget of 4 is blown after the read.
	eng.MaxSamples = 4
	if _, err := eng.Instant(rq, `rate(reqs_total[2m])`, time.UnixMilli(600_000)); !promql.IsLimitError(err) {
		t.Fatalf("over-budget Instant over remote: %v, want LimitError", err)
	}
}

// readsCounted counts the reads that reach the store it wraps.
type readsCounted struct {
	promql.Queryable
	reads int
}

func (s *readsCounted) SelectWithHints(hints model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	s.reads++
	return s.Queryable.SelectWithHints(hints, ms...)
}

// postRead sends body to h's /api/v1/read and decodes the answer, which must
// be a readResponse whatever the status.
func postRead(t testing.TB, h http.Handler, body []byte) (int, readResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/read", bytes.NewReader(body)))
	var resp readResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("status %d: body %q is not a readResponse: %v", rec.Code, rec.Body, err)
	}
	return rec.Code, resp
}

func TestRemoteReadErrors(t *testing.T) {
	h := testHandler(t)
	srv := httptest.NewServer(h.Mux())
	defer srv.Close()

	// GET rejected.
	resp, err := srv.Client().Get(srv.URL + "/api/v1/read")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("GET read = %d", resp.StatusCode)
	}
	// Unreachable server errors cleanly.
	dead := &RemoteQueryable{BaseURL: "http://127.0.0.1:1", Timeout: time.Second}
	if _, err := dead.SelectWithHints(model.SelectHints{Start: 0, End: 1}, labels.MustMatcher(labels.MatchEqual, "a", "b")); err == nil {
		t.Error("dead server Select succeeded")
	}

	// A request the client got wrong is a client error, answered before
	// storage is read: no matchers at all, or a body past the cap.
	store := &readsCounted{Queryable: h.Query}
	mux := (&Handler{Query: store}).Mux()
	for name, c := range map[string]struct {
		body []byte
		code int
		err  string
	}{
		"no matchers":   {[]byte(`{"min_time":0,"max_time":600000,"matchers":[]}`), 400, "at least one matcher"},
		"matchers null": {[]byte(`{"min_time":0,"max_time":600000}`), 400, "at least one matcher"},
		"oversized body": {
			[]byte(`{"matchers":[{"type":"=","name":"a","value":"` + strings.Repeat("x", maxReadRequestBytes) + `"}]}`),
			413, "too large",
		},
	} {
		code, resp := postRead(t, mux, c.body)
		if code != c.code || !strings.Contains(resp.Error, c.err) {
			t.Errorf("%s: %d %q, want %d carrying %q", name, code, resp.Error, c.code, c.err)
		}
	}
	if store.reads != 0 {
		t.Errorf("rejected requests read storage %d times", store.reads)
	}
}

// FuzzRemoteRead: whatever body a client posts to /api/v1/read, the handler
// answers 200, 400, 413 or 422 with a body that parses as readResponse —
// never a 500, never a panic.
func FuzzRemoteRead(f *testing.F) {
	roundTrip, _ := json.Marshal(readRequest{
		MinTime: 0, MaxTime: 1 << 60,
		Matchers: []readMatcher{{Type: "=", Name: labels.MetricName, Value: "reqs_total"}},
	})
	f.Add(roundTrip)
	for _, typ := range []string{"=", "!=", "=~", "!~"} {
		body, _ := json.Marshal(readRequest{
			MinTime: 60_000, MaxTime: 600_000,
			Matchers: []readMatcher{{Type: typ, Name: "instance", Value: "n.*"}},
		})
		f.Add(body)
	}
	f.Add([]byte(`{"min_time":0,"max_time":600000,"matchers":[]}`))
	f.Add(roundTrip[:len(roundTrip)/2])

	// A series holding what JSON has no number for: a staleness marker and
	// an ordinary NaN.
	flappyRead, _ := json.Marshal(readRequest{
		MinTime: 0, MaxTime: 600_000,
		Matchers: []readMatcher{{Type: "=~", Name: "instance", Value: "n.*"}},
	})
	f.Add(flappyRead)
	h := testHandler(f)
	flappy := labels.FromStrings(labels.MetricName, "flappy", "instance", "n1")
	for i, v := range []float64{1, math.NaN(), model.StaleNaN(), 2} {
		if err := h.Query.(*tsdb.DB).Append(flappy, int64(i)*15_000, v); err != nil {
			f.Fatal(err)
		}
	}
	mux := h.Mux()
	f.Fuzz(func(t *testing.T, body []byte) {
		switch code, _ := postRead(t, mux, body); code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("body %q: status %d", body, code)
		}
	})
}
