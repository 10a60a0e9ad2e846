package promapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/querycache"
	"repro/internal/tsdb"
)

// --- the oracle: the reflection path the handlers used before encode.go ----

// vectorSample mirrors Prometheus's instant-vector JSON shape.
type vectorSample struct {
	Metric map[string]string `json:"metric"`
	Value  [2]any            `json:"value"` // [unix_seconds, "value"]
}

// matrixSeries mirrors the range-vector shape.
type matrixSeries struct {
	Metric map[string]string `json:"metric"`
	Values [][2]any          `json:"values"`
}

func formatVal(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func oracleEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func oracleOK(t testing.TB, typ string, result any) []byte {
	return oracleEncode(t, apiResponse{Status: "success", Data: apiData{ResultType: typ, Result: result}})
}

func oracleMatrix(t testing.TB, m promql.Matrix) []byte {
	out := make([]matrixSeries, len(m))
	for i, sr := range m {
		vals := make([][2]any, len(sr.Samples))
		for j, smp := range sr.Samples {
			vals[j] = [2]any{float64(smp.T) / 1000, formatVal(smp.V)}
		}
		out[i] = matrixSeries{Metric: sr.Labels.Map(), Values: vals}
	}
	return oracleOK(t, "matrix", out)
}

func oracleVector(t testing.TB, v promql.Vector) []byte {
	out := make([]vectorSample, len(v))
	for i, s := range v {
		out[i] = vectorSample{Metric: s.Labels.Map(), Value: [2]any{float64(s.T) / 1000, formatVal(s.V)}}
	}
	return oracleOK(t, "vector", out)
}

func oracleScalar(t testing.TB, s promql.Scalar) []byte {
	return oracleOK(t, "scalar", [2]any{float64(s.T) / 1000, formatVal(s.V)})
}

func oracleList(t testing.TB, list []string) []byte {
	if list == nil {
		list = []string{}
	}
	return oracleEncode(t, struct {
		Status string   `json:"status"`
		Data   []string `json:"data"`
	}{Status: "success", Data: list})
}

// body is what writeBody puts on the wire for one render.
func body(render func([]byte) []byte) []byte { return append(render(nil), '\n') }

// --- generators -------------------------------------------------------------

var nastyStrings = []string{
	"", "plain", `quo"te`, `back\slash`, "ctl\x00\x01\x1f\x7f", "\b\f\n\r\t",
	"<script>&amp;</script>", "bad\xff\xfeutf8", "trunc\xe2\x80", "\xc0\x80",
	"sep\u2028and\u2029", "\u2027\u202a", "héllo wörld", "日本語", "\U0001f600", "\ufffd",
	"a=b,c", "{}[]:", "/path/to.file",
}

var nastyValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, math.NaN(), model.StaleNaN(), math.Inf(1), math.Inf(-1),
	1e21, 1e20, 1e-7, 1e-6, 123456789.125, 5e-324, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1 << 53, 0.30000000000000004,
}

var nastyTimes = []int64{
	0, 1, 10, 100, 999, 1000, 1001, 1500, 1010, 1700000000000, 1700000000123, 1700000000120,
	999999999999999, 1e15, 1e15 + 1, 1e15 + 123, 1e18 + 7, math.MaxInt64, math.MaxInt64 - 1,
	-1, -999, -1000, -1500, -1700000000123, math.MinInt64, math.MinInt64 + 1,
}

func randString(rng *rand.Rand) string {
	if rng.Intn(3) > 0 {
		return nastyStrings[rng.Intn(len(nastyStrings))]
	}
	b := make([]byte, rng.Intn(12))
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b) + nastyStrings[rng.Intn(len(nastyStrings))]
}

func randLabels(rng *rand.Rand) labels.Labels {
	m := map[string]string{}
	for n := rng.Intn(6); n > 0; n-- {
		m[randString(rng)] = randString(rng)
	}
	ls := labels.FromMap(m)
	if len(ls) > 1 && rng.Intn(8) == 0 {
		// Break the sorted-unique invariant: the old path went through a
		// map, so order and repeats must still come out its way.
		ls = append(ls, ls[0])
		ls[0], ls[1] = ls[1], ls[0]
	}
	return ls
}

func randValue(rng *rand.Rand) float64 {
	switch rng.Intn(3) {
	case 0:
		return nastyValues[rng.Intn(len(nastyValues))]
	case 1:
		return math.Float64frombits(rng.Uint64())
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
}

func randTime(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return nastyTimes[rng.Intn(len(nastyTimes))]
	case 1:
		return int64(rng.Uint64())
	case 2:
		return rng.Int63n(2e15)
	}
	return 1.7e12 + rng.Int63n(1e9)
}

func randMatrix(rng *rand.Rand) promql.Matrix {
	m := make(promql.Matrix, rng.Intn(5))
	for i := range m {
		m[i].Labels = randLabels(rng)
		m[i].Samples = make([]model.Sample, rng.Intn(6))
		for j := range m[i].Samples {
			m[i].Samples[j] = model.Sample{T: randTime(rng), V: randValue(rng)}
			if j > 0 && rng.Intn(3) == 0 {
				m[i].Samples[j].V = m[i].Samples[j-1].V
			}
		}
	}
	return m
}

func randVector(rng *rand.Rand) promql.Vector {
	v := make(promql.Vector, rng.Intn(6))
	for i := range v {
		v[i] = promql.Sample{Labels: randLabels(rng), T: randTime(rng), V: randValue(rng)}
	}
	return v
}

// --- (a) differential test ---------------------------------------------------

func diff(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-60)
	t.Fatalf("%s differs from encoding/json at byte %d (lengths %d, %d):\n got ...%q\nwant ...%q",
		what, i, len(got), len(want), got[lo:min(len(got), i+60)], want[lo:min(len(want), i+60)])
}

func TestWriterMatchesEncodingJSON(t *testing.T) {
	// Every listed edge, exhaustively, before the random sweep.
	for _, s := range nastyStrings {
		ls := labels.FromStrings(s+"k", s)
		for _, ts := range nastyTimes {
			for _, v := range nastyValues {
				vec := promql.Vector{{Labels: ls, T: ts, V: v}}
				diff(t, "vector", body(func(b []byte) []byte { return appendVector(b, vec) }), oracleVector(t, vec))
			}
		}
	}
	for _, ts := range nastyTimes {
		sc := promql.Scalar{T: ts, V: 1.5}
		diff(t, "scalar", body(func(b []byte) []byte { return appendScalar(b, sc) }), oracleScalar(t, sc))
	}
	// Empty results of every shape, nil and non-nil.
	for _, m := range []promql.Matrix{nil, {}, {{}}, {{Labels: labels.Labels{}, Samples: []model.Sample{}}}} {
		diff(t, "empty matrix", body(func(b []byte) []byte { return appendMatrix(b, m) }), oracleMatrix(t, m))
	}
	for _, v := range []promql.Vector{nil, {}, {{}}} {
		diff(t, "empty vector", body(func(b []byte) []byte { return appendVector(b, v) }), oracleVector(t, v))
	}
	for _, l := range [][]string{nil, {}, {""}, nastyStrings} {
		diff(t, "list", body(func(b []byte) []byte { return appendList(b, l) }), oracleList(t, l))
	}
	// Runs of one value, whose later pairs copy the first one's bytes: +0
	// then -0 (equal, but not in bits), runs of NaN and of the staleness
	// marker, and a run of every listed value.
	held := promql.Matrix{{Labels: labels.FromStrings("job", "held")}}
	runs := append([]float64{0, math.Copysign(0, -1), 0, math.NaN(), model.StaleNaN(), math.NaN()}, nastyValues...)
	for _, v := range runs {
		for k := 0; k < 3; k++ {
			held[0].Samples = append(held[0].Samples, model.Sample{T: int64(len(held[0].Samples)) * 15000, V: v})
		}
	}
	diff(t, "held matrix", body(func(b []byte) []byte { return appendMatrix(b, held) }), oracleMatrix(t, held))

	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		m := randMatrix(rng)
		diff(t, "matrix", body(func(b []byte) []byte { return appendMatrix(b, m) }), oracleMatrix(t, m))
		v := randVector(rng)
		diff(t, "vector", body(func(b []byte) []byte { return appendVector(b, v) }), oracleVector(t, v))
		sc := promql.Scalar{T: randTime(rng), V: randValue(rng)}
		diff(t, "scalar", body(func(b []byte) []byte { return appendScalar(b, sc) }), oracleScalar(t, sc))
		l := make([]string, rng.Intn(5))
		for j := range l {
			l[j] = randString(rng)
		}
		diff(t, "list", body(func(b []byte) []byte { return appendList(b, l) }), oracleList(t, l))
	}
}

// TestAppendSecondsAllMillis sweeps the integer fast path across every
// millisecond residue at several magnitudes, up to both edges of its range.
func TestAppendSecondsAllMillis(t *testing.T) {
	for _, base := range []int64{0, 1000, 999000, 1700000000000, 99999999999000, 1e15 - 1000, 1e15, math.MaxInt64 - 2000, -5000} {
		for ms := base; ms < base+1000; ms++ {
			want := oracleEncode(t, float64(ms)/1000)
			if got := append(appendSeconds(nil, ms), '\n'); !bytes.Equal(got, want) {
				t.Fatalf("appendSeconds(%d) = %q, encoding/json %q", ms, got, want)
			}
		}
	}
}

// --- (b) fuzz target ----------------------------------------------------------

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range nastyStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s) // escapes HTML, like the Encoder the handlers used
		if err != nil {
			t.Fatal(err)
		}
		got := appendJSONString(nil, s)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %q, json.Marshal %q", s, got, want)
		}
		var back string
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("appendJSONString(%q) = %q does not decode: %v", s, got, err)
		}
		if utf8.ValidString(s) && back != s {
			t.Fatalf("round trip of %q gave %q", s, back)
		}
	})
}

// --- (c) golden: cold, hit and splice serve the oracle's bytes ----------------

// goldenHead seeds a head whose label values and sample values exercise
// the escaper and the float formats; the seed is fixed, so are the bodies.
func goldenHead(t testing.TB) *tsdb.DB {
	t.Helper()
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	rng := rand.New(rand.NewSource(5))
	for i, job := range []string{`a<b>&"c"`, "tab\there", "bad\xffutf8", "sep\u2028", "", "plain"} {
		ls := labels.FromStrings(labels.MetricName, "g", "job", job, "uuid", fmt.Sprint(1000+i))
		for step := int64(0); step <= 60; step++ {
			v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
			if err := db.Append(ls, step*15000+int64(i), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// edgeHead seeds the series behind TestGoldenColdHitSpliceBodies' splice
// shapes, on the 15 s grid from 0 to 900 s: edge_steady throughout,
// edge_late only from 760 s (inside the last window's tail), edge_gone
// only up to 300 s (in lookback until 600 s, so it leaves the tail), and
// edge_special cycling through the values whose text is least like the
// others'.
func edgeHead(t testing.TB) *tsdb.DB {
	t.Helper()
	db := tsdb.MustOpen(tsdb.DefaultOptions())
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e21, 5e-324}
	for i := int64(0); i <= 60; i++ {
		ts := i * 15000
		for _, s := range []struct {
			name string
			ok   bool
			v    float64
		}{
			{"edge_steady", true, float64(i) * 1.25},
			{"edge_late", ts >= 760_000, float64(i)},
			{"edge_gone", ts <= 300_000, float64(i) / 3},
			{"edge_special", true, special[i%int64(len(special))]},
		} {
			if !s.ok {
				continue
			}
			ls := labels.FromStrings(labels.MetricName, s.name, "job", "edge")
			if err := db.Append(ls, ts, s.v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func TestGoldenColdHitSpliceBodies(t *testing.T) {
	db := goldenHead(t)
	eng := promql.NewEngine()
	now := func() time.Time { return time.UnixMilli(900_000) }
	cold := (&Handler{Engine: eng, Query: db, Now: now}).Mux()
	cached := (&Handler{Engine: eng, Query: db, Now: now, Cache: querycache.New(querycache.Options{
		MaxBytes: 1 << 20, Head: db, Lookback: eng.LookbackDelta, Paranoid: true,
	})}).Mux()

	for _, q := range []string{"g", "sum%20by%20(job)%20(g)", "g%20*%202", "1%2B2"} {
		const window = "&start=100.5&end=850.5&step=15"
		path := "/api/v1/query_range?query=" + q + window
		// Prime the cache with a shorter window of the same grid, so the full
		// window is served as a splice and its repeat as a hit.
		if rec, _ := get(t, cached, "/api/v1/query_range?query="+q+"&start=100.5&end=700.5&step=15"); rec.Header().Get("X-Querycache") != "miss" {
			t.Fatalf("%s prime: X-Querycache = %q", q, rec.Header().Get("X-Querycache"))
		}
		bodies := map[string][]byte{}
		for _, c := range []struct {
			name, outcome string
			h             http.Handler
		}{{"cold", "", cold}, {"splice", "splice", cached}, {"hit", "hit", cached}} {
			rec, resp := get(t, c.h, path)
			if rec.Code != 200 || resp.Status != "success" {
				t.Fatalf("%s %s: %d %s", q, c.name, rec.Code, rec.Body)
			}
			if got := rec.Header().Get("X-Querycache"); got != c.outcome {
				t.Fatalf("%s %s: X-Querycache = %q", q, c.name, got)
			}
			bodies[c.name] = rec.Body.Bytes()
		}
		expr, err := promql.ParseExpr(mustUnescape(t, q))
		if err != nil {
			t.Fatal(err)
		}
		m, err := eng.RangeExpr(db, expr, time.UnixMilli(100_500), time.UnixMilli(850_500), 15*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleMatrix(t, m)
		for name, got := range bodies {
			diff(t, q+" "+name, got, want)
		}

		// The instant side: cold, miss and hit against the vector/scalar oracle.
		ipath := "/api/v1/query?query=" + q + "&time=600.25"
		val, err := eng.InstantExpr(db, expr, time.UnixMilli(600_250))
		if err != nil {
			t.Fatal(err)
		}
		var iwant []byte
		switch tv := val.(type) {
		case promql.Vector:
			iwant = oracleVector(t, tv)
		case promql.Scalar:
			iwant = oracleScalar(t, tv)
		}
		for _, c := range []struct {
			name string
			h    http.Handler
		}{{"cold", cold}, {"miss", cached}, {"hit", cached}} {
			rec, _ := get(t, c.h, ipath)
			diff(t, q+" instant "+c.name, rec.Body.Bytes(), iwant)
		}
	}

	// Splice shapes the loop above does not reach, over a head of their own:
	// each query is served for three windows of one grid (a miss, a splice
	// of the unrendered entry, a splice of that spliced and rendered entry)
	// and then once more as a hit, every body the oracle's.
	edb := edgeHead(t)
	ecold := (&Handler{Engine: eng, Query: edb, Now: now}).Mux()
	ecached := (&Handler{Engine: eng, Query: edb, Now: now, Cache: querycache.New(querycache.Options{
		MaxBytes: 1 << 20, Head: edb, Lookback: eng.LookbackDelta, Paranoid: true,
	})}).Mux()
	for _, c := range []struct{ name, q string }{
		{"second splice of a spliced entry", "edge_steady%20*%202"},
		{"series only in the tail", "edge_late"},
		{"series vanishing from the tail", "edge_gone"},
		{"NaN, ±Inf, -0, 1e21, 5e-324", "edge_special"},
	} {
		expr, err := promql.ParseExpr(mustUnescape(t, c.q))
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range []struct{ end, outcome string }{
			{"550.5", "miss"}, {"700.5", "splice"}, {"850.5", "splice"}, {"850.5", "hit"},
		} {
			path := "/api/v1/query_range?query=" + c.q + "&start=100.5&end=" + w.end + "&step=15"
			rec, _ := get(t, ecached, path)
			if got := rec.Header().Get("X-Querycache"); got != w.outcome {
				t.Fatalf("%s, request %d: X-Querycache = %q, want %q", c.name, i, got, w.outcome)
			}
			endMs, _ := strconv.ParseFloat(w.end, 64)
			m, err := eng.RangeExpr(edb, expr, time.UnixMilli(100_500), time.UnixMilli(int64(endMs*1000)), 15*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleMatrix(t, m)
			diff(t, fmt.Sprintf("%s, request %d (%s)", c.name, i, w.outcome), rec.Body.Bytes(), want)
			coldRec, _ := get(t, ecold, path)
			diff(t, fmt.Sprintf("%s, request %d cold", c.name, i), coldRec.Body.Bytes(), want)
		}
	}

	for path, list := range map[string][]string{
		"/api/v1/labels":              db.LabelNames(),
		"/api/v1/label/job/values":    db.LabelValues("job"),
		"/api/v1/label/absent/values": db.LabelValues("absent"),
	} {
		rec, _ := get(t, cold, path)
		diff(t, path, rec.Body.Bytes(), oracleList(t, list))
	}
}

// TestPooledBufferConcurrent serves different answers from many goroutines
// at once: a response buffer that went back to the pool while still being
// written, or came out of it shared, shows up as a body that is not its
// own oracle's (and as a report under -race).
func TestPooledBufferConcurrent(t *testing.T) {
	db := goldenHead(t)
	eng := promql.NewEngine()
	mux := (&Handler{Engine: eng, Query: db, Now: func() time.Time { return time.UnixMilli(900_000) }}).Mux()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		end := 300 + 60*g // each goroutine asks for a different window
		m, err := eng.Range(db, "g", time.UnixMilli(100_000), time.UnixMilli(int64(end)*1000), 15*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleMatrix(t, m)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/v1/query_range?query=g&start=100&end=%d&step=15", end), nil)
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, req)
				if !bytes.Equal(rec.Body.Bytes(), want) {
					t.Errorf("goroutine %d: body differs from its oracle", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// --- benchmarks -----------------------------------------------------------------

// benchMatrix is a dashboard panel's answer: nSeries series of 60 steps,
// each value held for hold steps (a rule's output read at a finer step).
func benchMatrix(nSeries, hold int) promql.Matrix {
	rng := rand.New(rand.NewSource(1))
	m := make(promql.Matrix, nSeries)
	for i := range m {
		m[i].Labels = labels.FromStrings(labels.MetricName, "ceems_compute_unit_cpu_user_seconds_total",
			"hostname", fmt.Sprintf("node-%03d", i%42), "manager", "slurm", "uuid", fmt.Sprint(100000+i))
		m[i].Samples = make([]model.Sample, 60)
		for j := range m[i].Samples {
			m[i].Samples[j] = model.Sample{T: 1700000000000 + int64(j)*15000, V: rng.Float64() * 1000}
			if j%hold != 0 {
				m[i].Samples[j].V = m[i].Samples[j-1].V
			}
		}
	}
	return m
}

var benchSink int

// BenchmarkWriteMatrix measures the response writer against the reflection
// path it replaced (the /oracle sub-benchmarks), on the same matrices.
func BenchmarkWriteMatrix(b *testing.B) {
	rec := &discardWriter{h: http.Header{}}
	write := func(m promql.Matrix) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				writeBody(rec, func(buf []byte) []byte { return appendMatrix(buf, m) })
			}
			benchSink += rec.n
		}
	}
	for _, n := range []int{1, 14, 200} {
		m := benchMatrix(n, 1)
		b.Run(fmt.Sprintf("series%d", n), write(m))
		b.Run(fmt.Sprintf("series%d/oracle", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec.Write(oracleMatrix(b, m))
			}
			benchSink += rec.n
		})
	}
	b.Run("series14_held", write(benchMatrix(14, 4)))
}

func BenchmarkWriteVector(b *testing.B) {
	m := benchMatrix(200, 1)
	v := make(promql.Vector, len(m))
	for i, s := range m {
		v[i] = promql.Sample{Labels: s.Labels, T: s.Samples[0].T, V: s.Samples[0].V}
	}
	rec := &discardWriter{h: http.Header{}}
	b.Run("series200", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeBody(rec, func(buf []byte) []byte { return appendVector(buf, v) })
		}
		benchSink += rec.n
	})
	b.Run("series200/oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.Write(oracleVector(b, v))
		}
		benchSink += rec.n
	})
}

// discardWriter is a ResponseWriter that counts bytes and keeps nothing.
type discardWriter struct {
	h http.Header
	n int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

func mustUnescape(t testing.TB, q string) string {
	t.Helper()
	s, err := url.QueryUnescape(q)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
