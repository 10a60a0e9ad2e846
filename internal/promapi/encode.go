package promapi

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/querycache"
)

// The hot response shapes — matrix, vector, scalar and the label lists —
// are rendered by appending into a pooled buffer instead of boxing every
// sample for encoding/json. The bytes are those json.NewEncoder(w).Encode
// produced for the same result (HTML-safe escaping, map keys in byte order,
// trailing newline); encode_test.go holds the old reflection path as the
// oracle and proves it. A range answer the query cache reused comes with its
// samples already rendered by appendSample, kept from an earlier response,
// and is written from those bytes (appendRange). Errors and the
// /api/v1/status/* endpoints carry arbitrary structs and stay on
// encoding/json.
//
// Sample values are written by model.AppendFloat, the one renderer of
// values, which exposition text and relstore keys also use; its bytes are
// strconv.AppendFloat(v, 'g', -1, 64)'s, and strconv stays as its test
// oracle. Within one series a value whose bits equal the previous
// sample's is copied from that sample's bytes rather than formatted again
// (appendValues): rules evaluated every minute and read at a 15 s step hold
// each value for several steps. Equal bits render equal bytes, so the rule
// changes no byte; +0 and -0, equal as floats, are not equal in bits.

const (
	envelopeOpen = `{"status":"success","data":{"resultType":"`
	// maxPooledBuf keeps one huge response from pinning its buffer forever.
	maxPooledBuf = 1 << 20
)

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// writeBody renders one success body into a pooled buffer and writes it to w
// in a single Write.
func writeBody(w http.ResponseWriter, render func([]byte) []byte) {
	bp := bufPool.Get().(*[]byte)
	b := append(render((*bp)[:0]), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
	if cap(b) <= maxPooledBuf {
		*bp = b
		bufPool.Put(bp)
	}
}

func appendMatrix(b []byte, m promql.Matrix) []byte {
	return appendRange(b, querycache.Range{Matrix: m})
}

// appendRange renders a matrix answer. A series the cache rendered is
// written as its kept bytes — appendSample's output, so its values array
// less the first comma — and any other series sample by sample.
func appendRange(b []byte, r querycache.Range) []byte {
	b = append(b, envelopeOpen+`matrix","result":[`...)
	for i, s := range r.Matrix {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(appendMetric(b, s.Labels), `,"values":[`...)
		if r.Rendered != nil {
			if vals := r.Rendered[i]; len(vals) > 0 {
				b = append(b, vals[1:]...)
			}
		} else {
			b = appendValues(b, s.Samples)
		}
		b = append(b, "]}"...)
	}
	return append(b, "]}}"...)
}

// appendValues renders a series' samples as the pairs of its values array.
// A value with the bits of the one before it — a rule's output read at a
// finer step than the rule runs — is copied from that one's bytes instead
// of formatted again.
func appendValues(b []byte, samples []model.Sample) []byte {
	var prev uint64
	var from, to int
	for j, smp := range samples {
		if j > 0 {
			b = append(b, ',')
		}
		b = appendPairHead(b, smp.T)
		if bits := math.Float64bits(smp.V); j > 0 && bits == prev {
			b = append(b, b[from:to]...)
		} else {
			from = len(b)
			b = model.AppendFloat(b, smp.V)
			to, prev = len(b), bits
		}
		b = append(b, '"', ']')
	}
	return b
}

// appendSample is the querycache.Render of a matrix sample: the pair with
// the comma that precedes it in a values array.
func appendSample(b []byte, t int64, v float64) []byte {
	return appendPair(append(b, ','), t, v)
}

func appendVector(b []byte, v promql.Vector) []byte {
	b = append(b, envelopeOpen+`vector","result":[`...)
	for i, s := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(appendMetric(b, s.Labels), `,"value":`...)
		b = append(appendPair(b, s.T, s.V), '}')
	}
	return append(b, "]}}"...)
}

func appendScalar(b []byte, s promql.Scalar) []byte {
	b = append(b, envelopeOpen+`scalar","result":`...)
	return append(appendPair(b, s.T, s.V), "}}"...)
}

// appendList renders the label-list envelope, which has no resultType
// wrapper.
func appendList(b []byte, list []string) []byte {
	b = append(b, `{"status":"success","data":[`...)
	for i, s := range list {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, s)
	}
	return append(b, "]}"...)
}

// appendMetric renders `{"metric":{...}` for one series. Label sets are
// sorted by name, which is the key order encoding/json gave the old
// map[string]string; one that is not (or repeats a name) goes through the
// same map so the output cannot differ.
func appendMetric(b []byte, ls labels.Labels) []byte {
	for i := 1; i < len(ls); i++ {
		if ls[i-1].Name >= ls[i].Name {
			ls = labels.FromMap(ls.Map())
			break
		}
	}
	b = append(b, `{"metric":{`...)
	for i, l := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(appendJSONString(b, l.Name), ':')
		b = appendJSONString(b, l.Value)
	}
	return append(b, '}')
}

// appendPair renders one `[unix_seconds,"value"]` sample.
func appendPair(b []byte, t int64, v float64) []byte {
	return append(model.AppendFloat(appendPairHead(b, t), v), '"', ']') // never needs escaping
}

// appendPairHead renders a pair up to its value: `[unix_seconds,"`.
func appendPairHead(b []byte, t int64) []byte {
	return append(appendSeconds(append(b, '['), t), ',', '"')
}

// appendSeconds renders float64(ms)/1000 the way encoding/json renders a
// float64. Its 'e' notation never applies: |ms/1000| is 0 or within
// [0.001, 9.3e15]. For 0 <= ms < 1e15 the quotient has at most 15
// significant digits, so its shortest round-trip decimal is the exact one
// and integer arithmetic produces it; anything else takes the float path.
func appendSeconds(b []byte, ms int64) []byte {
	if ms < 0 || ms >= 1e15 {
		return strconv.AppendFloat(b, float64(ms)/1000, 'f', -1, 64)
	}
	b = strconv.AppendInt(b, ms/1000, 10)
	frac := ms % 1000
	if frac == 0 {
		return b
	}
	b = append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	for b[len(b)-1] == '0' {
		b = b[:len(b)-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json does
// with HTML escaping on: `"` and `\` backslashed, \b \f \n \r \t short
// forms, other control bytes and < > & as \u00XX, each invalid UTF-8 byte as
// the six bytes \ufffd, U+2028/U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
			start = i + size
		case r == 0x2028 || r == 0x2029: // LINE / PARAGRAPH SEPARATOR
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	return append(append(b, s[start:]...), '"')
}
