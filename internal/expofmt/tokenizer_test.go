package expofmt

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/labels"
)

// goldenPayloads are the inputs of every Parse test in expofmt_test.go plus
// the corners the oracle is pinned on: escapes, special floats, explicit
// timestamps, blank and comment lines, CRLF, odd label blocks, Unicode
// white space, and malformed lines of each kind.
func goldenPayloads(tb testing.TB) []string {
	body, err := os.ReadFile("testdata/exporter_body.txt")
	if err != nil {
		tb.Fatal(err)
	}
	return []string{
		string(body),
		"# HELP http_requests_total Requests.\n# TYPE http_requests_total counter\n" +
			"http_requests_total{method=\"get\",code=\"200\"} 1027 1395066363000\n" +
			"http_requests_total{method=\"post\",code=\"400\"} 3\n# TYPE temp gauge\ntemp 36.6\n",
		`m{path="C:\\dir",msg="line\nbreak",q="say \"hi\""} 1` + "\n",
		`m{a="\x",b="\\\\",c="tail\\"} 1` + "\n", // unknown escape kept, escaped backslashes
		`m{a="v\"} 1` + "\n",                     // the quote is escaped: value never ends
		`m{a="v\` + "\n",                         // backslash at end of line
		"a NaN\nb +Inf\nc -Inf\nd 1e9\ne Inf\nf nan\ng infinity\nh 0x1p-2\ni 1_000\n",
		"metric{a=\"b\" 1\n", "metric{a=b} 1\n", "metric 1 2 3\n", "metric{=\"v\"} 1\n",
		"m{a=\"v\"} notanum\n", "1metric 5\n", "m{a=\"v\"} 1 notatime\n",
		"\n# just a comment\n\nm 1\n",
		`m{ a="1" , b="2" } 3` + "\n",
		"m 1 1700000000000\nm 2 -5\nm 3 +7\nm 4 0\n",
		"m 1\r\nn{a=\"b\"} 2\r\n\r\n# TYPE n gauge\r\n",
		"m 1",                               // no trailing newline
		"m{}1\nm{,}2\nm{,,a=\"b\",,}3\n",    // empty blocks, stray commas, no space before value
		"m{a=\"1\"b=\"2\"} 1\n",             // no comma between labels
		"m{b=\"2\",a=\"1\",b=\"3\"} 1\n",    // unsorted, duplicate name: last wins
		"m{__name__=\"other\",Z=\"1\"} 1\n", // __name__ in the block, a name sorting before it
		"m{a=\"\"} 1\n",                     // empty value is kept
		"m {a=\"b\"} 1\n", "m\t1\n", "m\t\t1  \t 2\n",
		"m{a =\"b\"} 1\n", "m{a= \"b\"} 1\n", "m{a\u00a0=\"b\"} 1\n", "m{\u00a0=\"b\"} 1\n",
		"m\u00a01\n", "m 1\u00a02\n", "m 1\u20282\u3000\n", "m \u00851\n", "m 1\v2\f\n",
		"\u00a0m 1\u00a0\n", "m 1 \xc2\n", "m\xff 1\n", "m{a\xff=\"b\"} 1\n", "m{a=\"\xff\"} 1\n",
		"# HELP\n# HELP \n# HELP x\n# HELP  y\n# HELP x two  words\\nline\\\\n\n#HELP z t\n",
		"# TYPE\n# TYPE x\n# TYPE x  counter \n# TYPE x made up\n#TYPE y gauge\n#  TYPE  z gauge\n",
		"# HELP m h\nm 1\n# HELP m again\n# TYPE m counter\nm 2\n",
		"{a=\"b\"} 1\n", "m{a=\"b\"}\n", "m{a=\"b\"} \n", "m\n", "m{\n", "m{a\n", "m{a=\n", "m{a=\"\n",
		"ok 1\nbroken\nnever 2\n",
		"m{a=\"" + strings.Repeat("x", 1<<20) + "\"} 1\nn 2\n", // a 1 MiB line
	}
}

// sameFamilies reports the first difference between two Parse results:
// order, names, HELP, TYPE, label sets, timestamps and value bits.
func sameFamilies(got, want []*Family) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d families, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name || g.Help != w.Help || g.Type != w.Type {
			return fmt.Errorf("family %d: got %q/%q/%q, want %q/%q/%q", i, g.Name, g.Help, g.Type, w.Name, w.Help, w.Type)
		}
		if len(g.Metrics) != len(w.Metrics) {
			return fmt.Errorf("family %q: %d metrics, want %d", w.Name, len(g.Metrics), len(w.Metrics))
		}
		for j, wm := range w.Metrics {
			gm := g.Metrics[j]
			if !gm.Labels.Equal(wm.Labels) || gm.TS != wm.TS || math.Float64bits(gm.Value) != math.Float64bits(wm.Value) {
				return fmt.Errorf("family %q metric %d: got %v %v@%d, want %v %v@%d",
					w.Name, j, gm.Labels, gm.Value, gm.TS, wm.Labels, wm.Value, wm.TS)
			}
		}
	}
	return nil
}

// checkAgainstOracle is the differential property shared by the table test
// and the fuzzer: both error, or both return the same families.
func checkAgainstOracle(in []byte) error {
	want, wantErr := oracleParse(bytes.NewReader(in))
	got, gotErr := Parse(bytes.NewReader(in))
	if (gotErr != nil) != (wantErr != nil) {
		return fmt.Errorf("Parse error %v, oracle error %v", gotErr, wantErr)
	}
	if wantErr != nil {
		if got != nil {
			return fmt.Errorf("families returned alongside error %v", gotErr)
		}
		return nil
	}
	return sameFamilies(got, want)
}

func TestTokenizerMatchesOracle(t *testing.T) {
	for _, in := range goldenPayloads(t) {
		if err := checkAgainstOracle([]byte(in)); err != nil {
			t.Errorf("%.80q: %v", in, err)
		}
	}
	// Error text names the line, as the oracle's did.
	_, err := Parse(strings.NewReader("ok 1\n\nbroken\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %v does not name line 3", err)
	}
}

// The tokenizer itself: Series is the exposed bytes, slices alias the
// payload, and a walk over a well-formed payload allocates nothing.
func TestTokenizerTokens(t *testing.T) {
	in := []byte("# HELP m some\\ntext\n# TYPE m counter\n# other\n\nm{ b=\"2\", a=\"1\" }  7 99\nn 8\n")
	var tok Tokenizer
	tok.Reset(in)
	var got []string
	for tok.Next() {
		got = append(got, fmt.Sprintf("%s|%s|%s|%s|%v|%d", tok.Meta, tok.Name, tok.Text, tok.Series, tok.Value, tok.TS))
	}
	if err := tok.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		`HELP|m|some\ntext||0|0`, // Value/TS of a comment line are not meaningful; 0 here
		"TYPE|m|counter||0|0",
		`|m||m{ b="2", a="1" }|7|99`,
		"|n||n|8|0",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("tokens:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	body, _ := os.ReadFile("testdata/exporter_body.txt")
	n := 0
	allocs := testing.AllocsPerRun(20, func() {
		tok.Reset(body)
		for tok.Next() {
			n++
		}
	})
	if allocs != 0 || tok.Err() != nil || n == 0 {
		t.Errorf("walk: %v allocs/run, err %v, %d tokens", allocs, tok.Err(), n)
	}
}

func TestTokenizerLabelsShareSeriesString(t *testing.T) {
	var tok Tokenizer
	tok.Reset([]byte(`m{a="1",b="x\ny"} 1`))
	if !tok.Next() {
		t.Fatal(tok.Err())
	}
	series, ls := tok.Labels()
	if series != `m{a="1",b="x\ny"}` {
		t.Errorf("series = %q", series)
	}
	want := labels.FromStrings(labels.MetricName, "m", "a", "1", "b", "x\ny")
	if !ls.Equal(want) {
		t.Errorf("labels = %v, want %v", ls, want)
	}
	// One string for the series, one slice, one unescaped value.
	if allocs := testing.AllocsPerRun(20, func() { tok.Labels() }); allocs > 4 {
		t.Errorf("Labels: %v allocs", allocs)
	}
}

func oracleRender(fams []*Family) string {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, f := range fams {
		oracleWriteFamily(w, f)
	}
	w.Flush()
	return buf.String()
}

func TestAppendFamilyMatchesOracle(t *testing.T) {
	many := labels.Labels{}
	for i := 20; i > 0; i-- { // > 12 labels: past sort's insertion-sort cutoff
		many = append(many, labels.Label{Name: fmt.Sprintf("l%02d", i%7), Value: fmt.Sprint(i)})
	}
	fams := []*Family{
		{Name: "sorted", Help: "Plain help.", Type: TypeCounter, Metrics: []Metric{
			{Labels: labels.FromStrings("cpu", "0", "mode", "user"), Value: 12.5},
			{Labels: labels.FromStrings("cpu", "1", "mode", "user"), Value: 1e21, TS: 1700000000000},
			{Value: 0}, {Value: -0.0}, {Value: math.Copysign(0, -1)}, {Value: 1.0 / 3}, {Value: 5e-324}, {TS: -1},
		}},
		{Name: "unsorted", Type: TypeGauge, Metrics: []Metric{
			{Labels: labels.Labels{{Name: "z", Value: "1"}, {Name: "a", Value: "2"}, {Name: "m", Value: "3"}}, Value: 1},
			{Labels: labels.Labels{{Name: "a", Value: "1"}, {Name: "le", Value: "+Inf"}, {Name: "b", Value: "2"}}, Value: 2},
			{Labels: labels.Labels{{Name: "dup", Value: "1"}, {Name: "dup", Value: "2"}}, Value: 3},
			{Labels: many, Value: 4},
		}},
		{Name: "named", Type: TypeGauge, Metrics: []Metric{
			{Labels: labels.FromStrings(labels.MetricName, "named", "k", "v"), Value: 1},
			{Labels: labels.FromStrings(labels.MetricName, "named"), Value: 2},
			{Labels: labels.FromStrings("Z", "upper", labels.MetricName, "named", "k", "v"), Value: 3},
			{Labels: labels.Labels{{Name: "k", Value: "v"}, {Name: labels.MetricName, Value: "late"}}, Value: 4},
		}},
		{Name: "escapes", Help: "back\\slash and\nnewline and \"quote\"", Type: TypeGauge, Metrics: []Metric{
			{Labels: labels.FromStrings("path", `C:\dir`, "msg", "line\nbreak", "q", `say "hi"`, "all", "\\\"\n"), Value: 1},
			{Labels: labels.FromStrings("empty", "", "utf8", "héllo\u00a0"), Value: 2},
		}},
		{Name: "no_help", Help: "", Type: TypeCounter, Metrics: []Metric{{Value: 1}}},
		{Name: "untyped_family", Help: "h", Metrics: []Metric{{Value: math.NaN()}, {Value: math.Inf(1)}, {Value: math.Inf(-1)}}},
		{Name: "custom_type", Type: "histogram"},
		{Name: "empty"},
	}
	want := oracleRender(fams)
	var got []byte
	for _, f := range fams {
		got = AppendFamily(got, f)
	}
	if string(got) != want {
		t.Errorf("AppendFamily:\n%s\noracle:\n%s", got, want)
	}
	// Writer is AppendFamily behind an io.Writer.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, f := range fams {
		if err := w.WriteFamily(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil || buf.String() != want {
		t.Errorf("Writer (err %v):\n%s\noracle:\n%s", err, buf.String(), want)
	}
	// A rendered exporter body survives parse → render unchanged.
	body, _ := os.ReadFile("testdata/exporter_body.txt")
	parsed, err := Parse(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	for _, f := range parsed {
		got = AppendFamily(got, f)
	}
	if !bytes.Equal(got, body) || oracleRender(parsed) != string(body) {
		t.Errorf("exporter body did not round-trip:\n%s", got)
	}
}

// FuzzTokenizer is the differential fuzzer of the ingest edge's decoder of
// untrusted bytes: Parse (the tokenizer plus its adapter) and the oracle
// parser must both fail or both return the same families, Parse must not
// panic, and its allocation must stay linear in the input.
func FuzzTokenizer(f *testing.F) {
	for _, p := range goldenPayloads(f) {
		if len(p) < 1<<16 {
			f.Add([]byte(p))
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := checkAgainstOracle(in); err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		// O(len(input)): the payload copy, a string and a label slice per
		// line, a family per name. The densest input — one-letter families,
		// a line each — costs ~75 heap bytes per input byte; 256 leaves room
		// for the fuzz worker's own allocations, and still fails anything
		// that grows faster than the input.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Parse(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16+256*uint64(len(in)) {
			t.Fatalf("Parse of %d bytes allocated %d", len(in), grew)
		}
	})
}

func series1000() []byte {
	fam := &Family{Name: "ceems_compute_unit_cpu_usage_seconds_total", Type: TypeCounter, Help: "Total CPU time."}
	for i := 0; i < 1000; i++ {
		fam.Metrics = append(fam.Metrics, Metric{
			Labels: labels.FromStrings("manager", "slurm", "uuid", fmt.Sprint(100000+i), "instance", "jean-zay-intel-0001"),
			Value:  float64(i) * 1.5,
		})
	}
	return AppendFamily(nil, fam)
}

var benchSink int

func BenchmarkTokenizer(b *testing.B) {
	body, err := os.ReadFile("testdata/exporter_body.txt")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		in   []byte
	}{{"exporter_body", body}, {"1000_series", series1000()}} {
		// Parse is what a caller of the package gets; the oracle twin is
		// what it got before.
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(tc.in)))
			for i := 0; i < b.N; i++ {
				fams, err := Parse(bytes.NewReader(tc.in))
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(fams)
			}
		})
		b.Run(tc.name+"/oracle", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(tc.in)))
			for i := 0; i < b.N; i++ {
				fams, err := oracleParse(bytes.NewReader(tc.in))
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(fams)
			}
		})
		// The bare walk: what a scrape with a warm cache pays.
		b.Run(tc.name+"/walk", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(tc.in)))
			var tok Tokenizer
			for i := 0; i < b.N; i++ {
				tok.Reset(tc.in)
				for tok.Next() {
					benchSink++
				}
				if tok.Err() != nil {
					b.Fatal(tok.Err())
				}
			}
		})
	}
}

func BenchmarkAppendFamily(b *testing.B) {
	body, err := os.ReadFile("testdata/exporter_body.txt")
	if err != nil {
		b.Fatal(err)
	}
	fams, err := Parse(bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exporter_body", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			for _, f := range fams {
				buf = AppendFamily(buf, f)
			}
		}
		benchSink += len(buf)
	})
	b.Run("exporter_body/oracle", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			w := bufio.NewWriter(&buf)
			for _, f := range fams {
				oracleWriteFamily(w, f)
			}
			w.Flush()
		}
		benchSink += buf.Len()
	})
}
