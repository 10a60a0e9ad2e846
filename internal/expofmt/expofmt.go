// Package expofmt implements the Prometheus text exposition format
// (version 0.0.4): the wire format emitted by exporters and parsed by the
// scrape loop. It supports HELP/TYPE comments, label escaping, explicit
// timestamps and the counter/gauge metric kinds used by CEEMS.
//
// There is one reader and one writer. Tokenizer walks a payload held in
// memory without allocating; Parse is an adapter that materialises its
// tokens as families. AppendFamily renders a family into a byte slice;
// Writer is an adapter that hands those bytes to an io.Writer.
package expofmt

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/labels"
	"repro/internal/model"
)

// MetricType is the TYPE annotation of a metric family.
type MetricType string

const (
	TypeCounter MetricType = "counter"
	TypeGauge   MetricType = "gauge"
	TypeUntyped MetricType = "untyped"
)

// Metric is a single exposition line: a labelled value with optional
// timestamp (TS==0 means "no timestamp", as scrape time applies).
type Metric struct {
	Labels labels.Labels
	Value  float64
	TS     int64 // Unix ms; 0 = absent
}

// Family groups metrics sharing a name, HELP and TYPE.
type Family struct {
	Name    string
	Help    string
	Type    MetricType
	Metrics []Metric
}

// Writer serializes families in exposition format: AppendFamily into a
// scratch buffer, one Write per family.
type Writer struct {
	w   *bufio.Writer
	buf []byte
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// WriteFamily writes one metric family.
func (e *Writer) WriteFamily(f *Family) error {
	e.buf = AppendFamily(e.buf[:0], f)
	_, err := e.w.Write(e.buf)
	return err
}

// Flush flushes buffered output.
func (e *Writer) Flush() error { return e.w.Flush() }

// AppendFamily appends one metric family in exposition format to dst and
// returns the extended slice. It is the only renderer — Writer, the
// exporter's /metrics body and the remote-write frame payload all come out
// of it — so their bytes cannot drift apart.
func AppendFamily(dst []byte, f *Family) []byte {
	if f.Help != "" {
		dst = append(dst, "# HELP "...)
		dst = append(dst, f.Name...)
		dst = append(dst, ' ')
		dst = appendEscaped(dst, f.Help, false)
		dst = append(dst, '\n')
	}
	typ := f.Type
	if typ == "" {
		typ = TypeUntyped
	}
	dst = append(dst, "# TYPE "...)
	dst = append(dst, f.Name...)
	dst = append(dst, ' ')
	dst = append(dst, typ...)
	dst = append(dst, '\n')
	for i := range f.Metrics {
		m := &f.Metrics[i]
		dst = append(dst, f.Name...)
		dst = appendLabels(dst, m.Labels)
		dst = append(dst, ' ')
		dst = model.AppendFloat(dst, m.Value)
		if m.TS != 0 {
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, m.TS, 10)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// appendLabels appends the {a="b",...} block of ls: every label but
// __name__, by name. Label sets are sorted by contract, so the sort (and
// its copy) is paid only by the rare set that is not strictly ascending.
func appendLabels(dst []byte, ls labels.Labels) []byte {
	for i := 1; i < len(ls); i++ {
		if ls[i-1].Name >= ls[i].Name {
			ls = ls.Copy()
			sort.Sort(ls)
			break
		}
	}
	open := false
	for _, l := range ls {
		if l.Name == labels.MetricName {
			continue
		}
		if open {
			dst = append(dst, ',')
		} else {
			dst = append(dst, '{')
			open = true
		}
		dst = append(dst, l.Name...)
		dst = append(dst, '=', '"')
		dst = appendEscaped(dst, l.Value, true)
		dst = append(dst, '"')
	}
	if open {
		dst = append(dst, '}')
	}
	return dst
}

// appendEscaped appends s with backslash and newline escaped, plus the
// double quote when s is a quoted label value. A string with nothing to
// escape — nearly all of them — is one append.
func appendEscaped(dst []byte, s string, quoted bool) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch c := s[i]; {
		case c == '\\':
			esc = `\\`
		case c == '\n':
			esc = `\n`
		case c == '"' && quoted:
			esc = `\"`
		default:
			continue
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, esc...)
		start = i + 1
	}
	return append(dst, s[start:]...)
}

// maxLineBytes is the longest line the tokenizer accepts: the token limit
// of the bufio.Scanner the parser was first built on, kept so the verdict
// on an oversized line did not change.
const maxLineBytes = 16 << 20

// Tokenizer walks an exposition payload line by line without allocating.
// After Next returns true the exported fields describe the current line;
// the byte slices alias the payload and stay valid until it is modified.
//
//	var t expofmt.Tokenizer
//	t.Reset(body)
//	for t.Next() {
//		if t.Meta == "" { use(t.Series, t.Value, t.TS) }
//	}
//	if err := t.Err(); err != nil { ... }
//
// Blank lines and comments other than HELP/TYPE are skipped. The first
// malformed line ends the walk with an error naming its line number.
type Tokenizer struct {
	// Meta is "" on a sample line, "HELP" or "TYPE" on such a comment.
	Meta string
	// Name is the metric name of a sample, or the family a comment names.
	Name []byte
	// Text is the HELP text (still escaped) or the TYPE word; empty when
	// the comment carries none.
	Text []byte
	// Series is the sample's `name{labels}` part exactly as exposed, label
	// order and white space included. Equal bytes mean an equal label set,
	// which is what lets a scraper cache the decoded form under them.
	Series []byte
	Value  float64
	TS     int64 // Unix ms; 0 = absent

	buf   []byte
	pos   int
	line  int
	err   error
	spans []labelSpan
}

// labelSpan locates one label of the current sample inside Series.
type labelSpan struct {
	nameLo, nameHi int
	valLo, valHi   int  // between the quotes
	escaped        bool // the value holds a backslash escape
}

// Reset points the tokenizer at the start of payload.
func (t *Tokenizer) Reset(payload []byte) {
	*t = Tokenizer{buf: payload, spans: t.spans[:0]}
}

// Err returns the error that stopped Next, if any.
func (t *Tokenizer) Err() error { return t.err }

// Next advances to the next sample or HELP/TYPE line. It returns false at
// the end of the payload or on a malformed line; Err tells which.
func (t *Tokenizer) Next() bool {
	for t.err == nil && t.pos < len(t.buf) {
		line := t.buf[t.pos:]
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
		}
		t.pos += len(line) + 1
		t.line++
		if len(line) >= maxLineBytes {
			t.err = bufio.ErrTooLong
			return false
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if line[0] == '#' {
			if t.comment(line[1:]) {
				return true
			}
			continue
		}
		if err := t.sample(line); err != nil {
			t.err = fmt.Errorf("expofmt: line %d: %w", t.line, err)
			return false
		}
		return true
	}
	return false
}

var helpPrefix, typePrefix = []byte("HELP "), []byte("TYPE ")

// comment recognises "HELP name text" and "TYPE name word" after the '#'.
func (t *Tokenizer) comment(rest []byte) bool {
	rest = bytes.TrimSpace(rest)
	switch {
	case bytes.HasPrefix(rest, helpPrefix):
		t.Meta = "HELP"
	case bytes.HasPrefix(rest, typePrefix):
		t.Meta = "TYPE"
	default:
		return false
	}
	t.Series = nil
	t.Name, t.Text, _ = bytes.Cut(rest[len(helpPrefix):], []byte{' '})
	if t.Meta == "TYPE" {
		t.Text = bytes.TrimSpace(t.Text)
	}
	return true
}

// sample tokenizes `name{labels} value [timestamp]`. It validates the label
// block and notes where each label lies, but builds nothing: Labels does
// that, on demand, from the notes.
func (t *Tokenizer) sample(line []byte) error {
	// The metric name runs to '{' or white space.
	i := 0
	for i < len(line) && nameClass[line[i]]&inMetricName != 0 {
		i++
	}
	if i == len(line) {
		return fmt.Errorf("malformed sample %q", line)
	}
	// Every byte so far is a name byte; what is left to check is what ended
	// the name, that there is one, and that it does not start with a digit.
	if c := line[i]; (c != '{' && c != ' ' && c != '\t') || i == 0 || (line[0] >= '0' && line[0] <= '9') {
		return fmt.Errorf("invalid metric name in %q", line)
	}
	end := i
	t.spans = t.spans[:0]
	if line[i] == '{' {
		var err error
		if end, err = t.scanLabels(line, i); err != nil {
			return err
		}
	}
	val, rest := nextField(line[end:])
	ts, rest := nextField(rest)
	if extra, _ := nextField(rest); len(val) == 0 || len(extra) > 0 {
		return fmt.Errorf("bad value/timestamp in %q", line)
	}
	// strconv does not retain its argument, so the conversions stay on the
	// stack; it also reads NaN and ±Inf the way the format spells them.
	v, err := strconv.ParseFloat(string(val), 64)
	if err != nil {
		return fmt.Errorf("bad value %q: %w", val, err)
	}
	t.TS = 0
	if len(ts) > 0 {
		if t.TS, err = strconv.ParseInt(string(ts), 10, 64); err != nil {
			return fmt.Errorf("bad timestamp %q: %w", ts, err)
		}
	}
	t.Meta, t.Text = "", nil
	t.Name, t.Series, t.Value = line[:i], line[:end], v
	return nil
}

// scanLabels walks the {a="b",c="d"} block opening at s[i], recording a
// span per label. It returns the index one past the closing '}'. Commas
// are optional and repeatable, and a name may be padded with white space.
func (t *Tokenizer) scanLabels(s []byte, i int) (int, error) {
	i++ // past '{'
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == ',') {
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block in %q", s)
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		lo := i
		for i < len(s) && s[i] != '=' && s[i] != '}' {
			i++
		}
		if i >= len(s) || s[i] != '=' {
			return 0, fmt.Errorf("missing '=' in label block %q", s)
		}
		hi := i
		if !validName(s[lo:hi], inLabelName) {
			// Not valid as it stands: see whether trimming white space
			// (Unicode's, as the parser always has) leaves a valid name.
			left := bytes.TrimLeftFunc(s[lo:hi], unicode.IsSpace)
			lo = hi - len(left)
			hi = lo + len(bytes.TrimRightFunc(left, unicode.IsSpace))
			if !validName(s[lo:hi], inLabelName) {
				return 0, fmt.Errorf("invalid label name %q", s[lo:hi])
			}
		}
		i++ // past '='
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label value must be quoted in %q", s)
		}
		i++
		sp := labelSpan{nameLo: lo, nameHi: hi, valLo: i}
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' && i+1 < len(s) {
				sp.escaped = true
				i++
			}
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label value in %q", s)
		}
		sp.valHi = i
		t.spans = append(t.spans, sp)
		i++ // past the closing quote
	}
}

// Labels builds the label set of the current sample, __name__ included,
// sorted by name; a name given twice keeps its last value. It also returns
// Series as a string: label names and values are substrings of that one
// copy (an escaped value aside), so a caller that keeps both — a cache key
// and its label set — pays for the bytes once.
func (t *Tokenizer) Labels() (series string, ls labels.Labels) {
	series = string(t.Series)
	ls = make(labels.Labels, 1, len(t.spans)+1)
	ls[0] = labels.Label{Name: labels.MetricName, Value: series[:len(t.Name)]}
	sorted := true
	for _, sp := range t.spans {
		l := labels.Label{Name: series[sp.nameLo:sp.nameHi], Value: series[sp.valLo:sp.valHi]}
		if sp.escaped {
			l.Value = unquoteValue(l.Value)
		}
		sorted = sorted && ls[len(ls)-1].Name < l.Name
		ls = append(ls, l)
	}
	if sorted {
		return series, ls
	}
	sort.Stable(ls)
	out := ls[:0]
	for i, l := range ls {
		if i+1 == len(ls) || ls[i+1].Name != l.Name {
			out = append(out, l)
		}
	}
	return series, out
}

// unquoteValue undoes \n, \\ and \" in a label value; any other escape is
// kept as written.
func unquoteValue(s string) string {
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\\' && i+1 < len(s) {
			i++
			switch c = s[i]; c {
			case 'n':
				c = '\n'
			case '\\', '"':
			default:
				b = append(b, '\\')
			}
		}
		b = append(b, c)
	}
	return string(b)
}

// nextField splits the first white-space-separated field off b, with
// strings.Fields' notion of white space (Unicode's).
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) {
		n := spaceLen(b[i:])
		if n == 0 {
			break
		}
		i += n
	}
	j := i
	for j < len(b) && spaceLen(b[j:]) == 0 {
		j++
	}
	return b[i:j], b[j:]
}

// spaceLen returns the length of the white-space rune b starts with, or 0.
func spaceLen(b []byte) int {
	if c := b[0]; c < utf8.RuneSelf {
		if c == ' ' || (c >= '\t' && c <= '\r') {
			return 1
		}
		return 0
	}
	if r, n := utf8.DecodeRune(b); unicode.IsSpace(r) {
		return n
	}
	return 0
}

// Parse reads an entire exposition payload and returns the metric families
// in order of first appearance. Metric name is stored in the __name__ label
// of each metric as well.
func Parse(r io.Reader) ([]*Family, error) {
	var payload []byte
	if b, ok := r.(*bytes.Buffer); ok {
		payload = b.Next(b.Len()) // consumed like a read, minus the copy
	} else {
		var buf bytes.Buffer
		if l, ok := r.(interface{ Len() int }); ok {
			buf.Grow(l.Len() + bytes.MinRead)
		}
		if _, err := buf.ReadFrom(r); err != nil {
			return nil, err
		}
		payload = buf.Bytes()
	}
	var t Tokenizer
	t.Reset(payload)
	byName := map[string]*Family{}
	var out []*Family
	for t.Next() {
		f, ok := byName[string(t.Name)]
		if !ok {
			f = &Family{Name: string(t.Name), Type: TypeUntyped}
			byName[f.Name] = f
			out = append(out, f)
		}
		switch {
		case t.Meta == "":
			_, ls := t.Labels()
			if f.Metrics == nil {
				f.Metrics = make([]Metric, 0, 4) // skip append's 1-2-4 warm-up
			}
			f.Metrics = append(f.Metrics, Metric{Labels: ls, Value: t.Value, TS: t.TS})
		case len(t.Text) == 0:
		case t.Meta == "HELP":
			f.Help = unescapeHelp(string(t.Text))
		default:
			f.Type = MetricType(t.Text)
		}
	}
	if err := t.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func unescapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\n`, "\n")
	return strings.ReplaceAll(s, `\\`, `\`)
}

// nameClass marks the bytes a metric name (inMetricName) and a label name
// (inLabelName) may hold; a digit is marked too but may not come first.
var nameClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c == ':':
			t[c] = inMetricName
		case c == '_', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			t[c] = inMetricName | inLabelName
		}
	}
	return t
}()

const inMetricName, inLabelName = 1, 2

func validName[T string | []byte](s T, class uint8) bool {
	if len(s) == 0 || (s[0] >= '0' && s[0] <= '9') {
		return false
	}
	for i := 0; i < len(s); i++ {
		if nameClass[s[i]]&class == 0 {
			return false
		}
	}
	return true
}
