package promapi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/promql"
	"repro/internal/tsdb"
)

// TestParseSecondsAllMillis: every whole millisecond below 100 s, written as
// decimal seconds, reads back as exactly that many milliseconds, both as a
// time and as a step.
func TestParseSecondsAllMillis(t *testing.T) {
	bad := 0
	for ms := int64(0); ms < 100_000 && bad < 10; ms++ {
		s := fmt.Sprintf("%d.%03d", ms/1000, ms%1000)
		if got, err := parseTime(s); err != nil || got.UnixMilli() != ms {
			t.Errorf("parseTime(%q) = %d ms, %v", s, got.UnixMilli(), err)
			bad++
		}
		if got, err := parseStep(s); err != nil || got != time.Duration(ms)*time.Millisecond {
			t.Errorf("parseStep(%q) = %v, %v", s, got, err)
			bad++
		}
	}
	for _, s := range []string{"NaN", "+Inf", "-Inf", "1e300"} {
		if _, err := parseTime(s); err == nil {
			t.Errorf("parseTime(%q) accepted", s)
		}
		if _, err := parseStep(s); err == nil {
			t.Errorf("parseStep(%q) accepted", s)
		}
	}
}

// sameValue reports whether two instant answers are equal to the bit:
// the same type, and a vector's samples in the same order.
func sameValue(a, b promql.Value) bool {
	switch a := a.(type) {
	case promql.Scalar:
		b, ok := b.(promql.Scalar)
		return ok && a.T == b.T && math.Float64bits(a.V) == math.Float64bits(b.V)
	case promql.Vector:
		b, ok := b.(promql.Vector)
		if !ok || len(a) != len(b) {
			return false
		}
		for i := range a {
			if !a[i].Labels.Equal(b[i].Labels) || a[i].T != b[i].T ||
				math.Float64bits(a[i].V) != math.Float64bits(b[i].V) {
				return false
			}
		}
		return true
	}
	return false
}

// TestClientMatchesEngine: an instant query asked through Client answers
// what the engine answers over the store the server reads, vectors and
// scalars alike, at whole seconds and between them.
func TestClientMatchesEngine(t *testing.T) {
	h := testHandler(t)
	srv := httptest.NewServer(h.Mux())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	eng := promql.NewEngine()
	for _, q := range []string{`rate(reqs_total[2m])`, `{instance="n1"}`, `sum(up)`, `avg_over_time(up[599999ms])`, `2 * 3`, `time()`, `absent(nothing)`} {
		for _, ms := range []int64{600_000, 301_001, 45_999} {
			ts := time.UnixMilli(ms)
			want, err := eng.Instant(h.Query, q, ts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.InstantCtx(context.Background(), q, ts)
			if err != nil {
				t.Fatalf("%s at %d ms: %v", q, ms, err)
			}
			if !sameValue(got, want) {
				t.Errorf("%s at %d ms: client %v, engine %v", q, ms, got, want)
			}
		}
	}
}

// TestClientSpecialValues: NaN, ±Inf, -0 and the extremes of float64 cross
// the query API and come back as they went in.
func TestClientSpecialValues(t *testing.T) {
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	in := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, -1e-300, 0.1, 1e21, 123456789.125}
	for i, v := range in {
		ls := labels.FromStrings(labels.MetricName, "odd", "i", strconv.Itoa(i))
		if err := db.Append(ls, 15_000, v); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer((&Handler{Query: db}).Mux())
	defer srv.Close()
	got, err := (&Client{BaseURL: srv.URL}).InstantCtx(context.Background(), "odd", time.UnixMilli(30_000))
	if err != nil {
		t.Fatal(err)
	}
	vec, _ := got.(promql.Vector)
	if len(vec) != len(in) {
		t.Fatalf("read back %v", got)
	}
	for _, s := range vec {
		i, _ := strconv.Atoi(s.Labels.Get("i"))
		want := in[i]
		switch {
		case s.T != 30_000:
			t.Errorf("sample %d at %d ms", i, s.T)
		case math.IsNaN(want):
			if !math.IsNaN(s.V) {
				t.Errorf("NaN came back as %v", s.V)
			}
		case math.Float64bits(s.V) != math.Float64bits(want):
			t.Errorf("%v came back as %v", want, s.V)
		}
	}
}

// TestClientBackendErrorStatus: a proxy's 502 HTML page is an error that
// carries the status and the page, not a JSON decode failure.
func TestClientBackendErrorStatus(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.WriteHeader(http.StatusBadGateway)
		w.Write([]byte("<html><body><h1>502 Bad Gateway</h1></body></html>"))
	}))
	defer backend.Close()
	_, err := (&Client{BaseURL: backend.URL}).InstantCtx(context.Background(), "up", time.UnixMilli(0))
	if err == nil {
		t.Fatal("a query against a 502 backend succeeded")
	}
	if msg := err.Error(); !strings.Contains(msg, "502") || !strings.Contains(msg, "Bad Gateway") ||
		strings.Contains(msg, "invalid character") {
		t.Fatalf("error %q should carry the status and the page", msg)
	}
}

// writeVector streams a success answer of n one-sample series.
func writeVector(w io.Writer, n int) {
	io.WriteString(w, `{"status":"success","data":{"resultType":"vector","result":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			io.WriteString(w, ",")
		}
		fmt.Fprintf(w, `{"metric":{"i":"%d"},"value":[1.5,"2"]}`, i)
	}
	io.WriteString(w, `]}}`)
}

// TestClientBodyCap: an answer past maxAnswerBytes is refused instead of
// buffered; a smaller one of the same shape reads.
func TestClientBodyCap(t *testing.T) {
	const shortest = len(`{"metric":{"i":"0"},"value":[1.5,"2"]},`)
	over := maxAnswerBytes/shortest + 1
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("query") == "big" {
			writeVector(w, over)
			return
		}
		writeVector(w, 1000)
	}))
	defer backend.Close()
	c := &Client{BaseURL: backend.URL}
	if _, err := c.InstantCtx(context.Background(), "big", time.UnixMilli(0)); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("an answer of %d series: %v, want the cap's error", over, err)
	}
	got, err := c.InstantCtx(context.Background(), "small", time.UnixMilli(0))
	if vec, _ := got.(promql.Vector); err != nil || len(vec) != 1000 || vec[999].T != 1500 || vec[999].V != 2 {
		t.Fatalf("an answer under the cap: %v, %v", err, got)
	}
}

// TestClientSampleBudget: a query past the server's sample budget is the
// server's 422, surfaced as an error naming the budget; within the budget
// the same query answers.
func TestClientSampleBudget(t *testing.T) {
	h := testHandler(t)
	eng := promql.NewEngine()
	eng.MaxSamples = 4 // the 2m window holds 8 samples
	h.Engine = eng
	srv := httptest.NewServer(h.Mux())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	_, err := c.InstantCtx(context.Background(), `rate(reqs_total[2m])`, time.UnixMilli(600_000))
	if err == nil || !strings.Contains(err.Error(), "422") || !strings.Contains(err.Error(), "sample budget") {
		t.Fatalf("over-budget query: %v, want a 422 naming the sample budget", err)
	}
	eng.MaxSamples = 1 << 20
	if v, err := c.InstantCtx(context.Background(), `rate(reqs_total[2m])`, time.UnixMilli(600_000)); err != nil {
		t.Fatalf("in-budget query: %v", err)
	} else if vec := v.(promql.Vector); len(vec) != 1 || vec[0].V != 10 {
		t.Errorf("rate = %v, want 10", vec)
	}
}

// TestClientHonoursContext: a cancelled context ends the query with the
// context's error, and an address nothing listens on is an error.
func TestClientHonoursContext(t *testing.T) {
	srv := httptest.NewServer(testHandler(t).Mux())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&Client{BaseURL: srv.URL}).InstantCtx(ctx, "up", time.UnixMilli(0)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled query: %v, want context.Canceled", err)
	}
	if _, err := (&Client{BaseURL: "http://127.0.0.1:1"}).InstantCtx(context.Background(), "up", time.UnixMilli(0)); err == nil {
		t.Error("a query to a dead address succeeded")
	}
}

// endless is an answer that never ends.
type endless struct{}

func (endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// counted counts the bytes read through it.
type counted struct {
	r io.Reader
	n int64
}

func (c *counted) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// FuzzInstantResponse: whatever body a server answers, decodeInstant
// returns an error or a vector or scalar, never a panic; and followed by an
// endless tail, it reads at most limit+1 bytes and refuses the answer.
func FuzzInstantResponse(f *testing.F) {
	const limit = 4 << 10
	var b bytes.Buffer
	b.Write(appendVector(nil, promql.Vector{
		{Labels: labels.FromStrings("a", "x"), T: 1_500, V: math.NaN()},
		{Labels: labels.FromStrings("a", "y"), T: 1_501, V: math.Inf(1)},
		{Labels: labels.FromStrings("a", "z"), T: 1_999, V: math.Inf(-1)},
		{Labels: labels.FromStrings("a", "w"), T: 2_000, V: 0.1},
	}))
	vector := b.Bytes()
	f.Add(vector)
	f.Add(appendScalar(nil, promql.Scalar{T: 600_000, V: 3.25}))
	f.Add([]byte(`{"status":"error","errorType":"execution","error":"promql: query exceeds the sample budget of 4"}`))
	f.Add([]byte("<html><body><h1>502 Bad Gateway</h1></body></html>"))
	f.Add(vector[:len(vector)/2])
	f.Add([]byte(`{"status":"success","data":{"resultType":"matrix","result":[]}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		v, err := decodeInstant(bytes.NewReader(body), limit)
		if (err == nil) == (v == nil) {
			t.Fatalf("body %q: value %v and error %v", body, v, err)
		}
		r := &counted{r: io.MultiReader(bytes.NewReader(body), endless{})}
		if _, err := decodeInstant(r, limit); err == nil {
			t.Fatalf("body %q with an endless tail decoded", body)
		}
		if r.n > limit+1 {
			t.Fatalf("read %d bytes under a %d-byte limit", r.n, limit)
		}
	})
}
