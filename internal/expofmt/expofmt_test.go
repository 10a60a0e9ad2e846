package expofmt

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/labels"
)

func writeOne(t *testing.T, f *Family) string {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteFamily(f); err != nil {
		t.Fatalf("WriteFamily: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.String()
}

func TestWriteBasic(t *testing.T) {
	f := &Family{
		Name: "node_cpu_seconds_total",
		Help: "Total CPU time.",
		Type: TypeCounter,
		Metrics: []Metric{
			{Labels: labels.FromStrings("cpu", "0", "mode", "user"), Value: 12.5},
		},
	}
	out := writeOne(t, f)
	want := "# HELP node_cpu_seconds_total Total CPU time.\n" +
		"# TYPE node_cpu_seconds_total counter\n" +
		`node_cpu_seconds_total{cpu="0",mode="user"} 12.5` + "\n"
	if out != want {
		t.Errorf("got:\n%s\nwant:\n%s", out, want)
	}
}

func TestWriteNoLabelsAndTimestamp(t *testing.T) {
	f := &Family{Name: "up", Type: TypeGauge, Metrics: []Metric{{Value: 1, TS: 1700000000000}}}
	out := writeOne(t, f)
	if !strings.Contains(out, "up 1 1700000000000\n") {
		t.Errorf("missing timestamped sample: %s", out)
	}
}

func TestWriteSpecialValues(t *testing.T) {
	f := &Family{Name: "m", Metrics: []Metric{
		{Value: math.NaN()}, {Value: math.Inf(1)}, {Value: math.Inf(-1)},
	}}
	out := writeOne(t, f)
	for _, want := range []string{"m NaN", "m +Inf", "m -Inf"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %s", want, out)
		}
	}
}

func TestParseBasic(t *testing.T) {
	in := `# HELP http_requests_total Requests.
# TYPE http_requests_total counter
http_requests_total{method="get",code="200"} 1027 1395066363000
http_requests_total{method="post",code="400"} 3
# TYPE temp gauge
temp 36.6
`
	fams, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(fams) != 2 {
		t.Fatalf("want 2 families, got %d", len(fams))
	}
	f := fams[0]
	if f.Name != "http_requests_total" || f.Type != TypeCounter || f.Help != "Requests." {
		t.Errorf("family meta wrong: %+v", f)
	}
	if len(f.Metrics) != 2 {
		t.Fatalf("want 2 metrics, got %d", len(f.Metrics))
	}
	m := f.Metrics[0]
	if m.Value != 1027 || m.TS != 1395066363000 {
		t.Errorf("metric 0 = %+v", m)
	}
	if m.Labels.Get("method") != "get" || m.Labels.Name() != "http_requests_total" {
		t.Errorf("labels wrong: %v", m.Labels)
	}
	if fams[1].Metrics[0].Value != 36.6 {
		t.Errorf("gauge value wrong")
	}
}

func TestParseEscapes(t *testing.T) {
	in := `m{path="C:\\dir",msg="line\nbreak",q="say \"hi\""} 1` + "\n"
	fams, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ls := fams[0].Metrics[0].Labels
	if ls.Get("path") != `C:\dir` {
		t.Errorf("path = %q", ls.Get("path"))
	}
	if ls.Get("msg") != "line\nbreak" {
		t.Errorf("msg = %q", ls.Get("msg"))
	}
	if ls.Get("q") != `say "hi"` {
		t.Errorf("q = %q", ls.Get("q"))
	}
}

func TestParseSpecialFloats(t *testing.T) {
	in := "a NaN\nb +Inf\nc -Inf\nd 1e9\n"
	fams, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !math.IsNaN(fams[0].Metrics[0].Value) {
		t.Error("NaN not parsed")
	}
	if !math.IsInf(fams[1].Metrics[0].Value, 1) || !math.IsInf(fams[2].Metrics[0].Value, -1) {
		t.Error("Inf not parsed")
	}
	if fams[3].Metrics[0].Value != 1e9 {
		t.Error("scientific notation not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"metric{a=\"b\" 1\n",      // unterminated label block
		"metric{a=b} 1\n",         // unquoted value
		"metric 1 2 3\n",          // too many fields
		"metric{=\"v\"} 1\n",      // empty label name
		"m{a=\"v\"} notanum\n",    // bad value
		"1metric 5\n",             // bad metric name
		"m{a=\"v\"} 1 notatime\n", // bad timestamp
	}
	for _, in := range bad {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

func TestParseSkipsBlanksAndComments(t *testing.T) {
	in := "\n# just a comment\n\nm 1\n"
	fams, err := Parse(strings.NewReader(in))
	if err != nil || len(fams) != 1 {
		t.Fatalf("fams=%d err=%v", len(fams), err)
	}
}

func TestParseLabelBlockWithSpaces(t *testing.T) {
	in := `m{ a="1" , b="2" } 3` + "\n"
	fams, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ls := fams[0].Metrics[0].Labels
	if ls.Get("a") != "1" || ls.Get("b") != "2" {
		t.Errorf("labels = %v", ls)
	}
}

// Property: write→parse round-trips value and labels for well-formed input.
func TestRoundTripProperty(t *testing.T) {
	f := func(v float64, lv string, ts int64) bool {
		if ts < 0 {
			ts = -ts
		}
		fam := &Family{
			Name: "round_trip_metric",
			Type: TypeGauge,
			Metrics: []Metric{{
				Labels: labels.FromStrings("l", lv),
				Value:  v,
				TS:     ts,
			}},
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteFamily(fam); err != nil {
			return false
		}
		w.Flush()
		got, err := Parse(&buf)
		if err != nil || len(got) != 1 || len(got[0].Metrics) != 1 {
			return false
		}
		m := got[0].Metrics[0]
		if m.Labels.Get("l") != lv {
			return false
		}
		if m.TS != ts {
			return false
		}
		if math.IsNaN(v) {
			return math.IsNaN(m.Value)
		}
		return m.Value == v
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestValidNames(t *testing.T) {
	if !validName("node_rapl:energy_joules_total", inMetricName) {
		t.Error("colon should be valid in metric name")
	}
	if validName("with:colon", inLabelName) {
		t.Error("colon invalid in label name")
	}
	if validName("", inMetricName) || validName("", inLabelName) {
		t.Error("empty names invalid")
	}
	if validName("9lives", inMetricName) || validName("9lives", inLabelName) || !validName("l9", inLabelName) {
		t.Error("a digit is valid anywhere but first")
	}
}

// The differential oracle: the line parser and the writer this package
// shipped before the tokenizer and AppendFamily, kept verbatim (bufio.Scanner,
// map[string]string, strings.Builder, fmt) so the new code is pinned to the
// old behaviour, quirks included, by tokenizer_test.go.

func oracleWriteFamily(w *bufio.Writer, f *Family) {
	if f.Help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
	}
	typ := f.Type
	if typ == "" {
		typ = TypeUntyped
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, typ)
	for _, m := range f.Metrics {
		writeMetric(w, f.Name, m)
	}
}

func writeMetric(w *bufio.Writer, name string, m Metric) {
	w.WriteString(name)
	// Labels, excluding __name__, sorted.
	var ls labels.Labels
	for _, l := range m.Labels {
		if l.Name != labels.MetricName {
			ls = append(ls, l)
		}
	}
	sort.Sort(ls)
	if len(ls) > 0 {
		w.WriteByte('{')
		for i, l := range ls {
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteString(l.Name)
			w.WriteString(`="`)
			w.WriteString(escapeValue(l.Value))
			w.WriteByte('"')
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatValue(m.Value))
	if m.TS != 0 {
		w.WriteByte(' ')
		w.WriteString(strconv.FormatInt(m.TS, 10))
	}
	w.WriteByte('\n')
}

func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func oracleParse(r io.Reader) ([]*Family, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	fams := map[string]*Family{}
	var order []string
	lineNo := 0
	getFam := func(name string) *Family {
		f, ok := fams[name]
		if !ok {
			f = &Family{Name: name, Type: TypeUntyped}
			fams[name] = f
			order = append(order, name)
		}
		return f
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			rest := strings.TrimSpace(line[1:])
			switch {
			case strings.HasPrefix(rest, "HELP "):
				parts := strings.SplitN(rest[len("HELP "):], " ", 2)
				f := getFam(parts[0])
				if len(parts) == 2 {
					f.Help = unescapeHelp(parts[1])
				}
			case strings.HasPrefix(rest, "TYPE "):
				parts := strings.SplitN(rest[len("TYPE "):], " ", 2)
				f := getFam(parts[0])
				if len(parts) == 2 {
					f.Type = MetricType(strings.TrimSpace(parts[1]))
				}
			}
			continue
		}
		m, name, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("expofmt: line %d: %w", lineNo, err)
		}
		f := getFam(name)
		f.Metrics = append(f.Metrics, m)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]*Family, 0, len(order))
	for _, n := range order {
		out = append(out, fams[n])
	}
	return out, nil
}

func parseSample(line string) (Metric, string, error) {
	var m Metric
	// Metric name runs to '{' or whitespace.
	i := strings.IndexAny(line, "{ \t")
	if i < 0 {
		return m, "", fmt.Errorf("malformed sample %q", line)
	}
	name := line[:i]
	if name == "" || !oracleValidMetricName(name) {
		return m, "", fmt.Errorf("invalid metric name %q", name)
	}
	rest := line[i:]
	lset := map[string]string{labels.MetricName: name}
	if rest[0] == '{' {
		end, err := parseLabels(rest, lset)
		if err != nil {
			return m, "", err
		}
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return m, "", fmt.Errorf("bad value/timestamp in %q", line)
	}
	v, err := parseFloat(fields[0])
	if err != nil {
		return m, "", fmt.Errorf("bad value %q: %w", fields[0], err)
	}
	m.Value = v
	if len(fields) == 2 {
		ts, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return m, "", fmt.Errorf("bad timestamp %q: %w", fields[1], err)
		}
		m.TS = ts
	}
	m.Labels = labels.FromMap(lset)
	return m, name, nil
}

// parseLabels parses a {a="b",c="d"} block starting at s[0]=='{', filling
// into. It returns the index one past the closing '}'.
func parseLabels(s string, into map[string]string) (int, error) {
	i := 1 // past '{'
	for {
		// Skip whitespace and a single optional comma.
		for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == ',') {
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block in %q", s)
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		start := i
		for i < len(s) && s[i] != '=' && s[i] != '}' {
			i++
		}
		if i >= len(s) || s[i] != '=' {
			return 0, fmt.Errorf("missing '=' in label block %q", s)
		}
		name := strings.TrimSpace(s[start:i])
		if !oracleValidLabelName(name) {
			return 0, fmt.Errorf("invalid label name %q", name)
		}
		i++ // past '='
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label value must be quoted in %q", s)
		}
		i++
		var b strings.Builder
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					b.WriteByte('\n')
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				default:
					b.WriteByte('\\')
					b.WriteByte(s[i])
				}
			} else {
				b.WriteByte(s[i])
			}
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label value in %q", s)
		}
		i++ // past closing quote
		into[name] = b.String()
	}
}

func parseFloat(s string) (float64, error) {
	switch s {
	case "NaN":
		return math.NaN(), nil
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

func oracleValidMetricName(s string) bool {
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return len(s) > 0
}

func oracleValidLabelName(s string) bool {
	for i, c := range s {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return len(s) > 0
}
