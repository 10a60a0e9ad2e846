// Package labels implements immutable metric label sets, matchers and
// hashing, modelled after the Prometheus data model. A Labels value is a
// sorted list of name/value pairs; the metric name itself is carried under
// the reserved label name "__name__".
package labels

import (
	"fmt"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"weak"
)

// Inlined FNV-1a, byte-identical to hash/fnv's 64a variant. The stdlib
// hash.Hash64 interface forces a []byte conversion (an allocation) per
// Write; hashing label sets is on the append, query-merge and aggregation
// hot paths, so these helpers keep it allocation-free.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvAddString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

func fnvAddSep(h uint64) uint64 {
	h ^= 0xFF
	h *= fnvPrime64
	return h
}

// MetricName is the reserved label name holding the metric name.
const MetricName = "__name__"

// Label is a single name/value pair.
type Label struct {
	Name  string
	Value string
}

// Labels is a sorted (by name) set of labels. The zero value is the empty
// label set. Labels must be treated as immutable once built.
type Labels []Label

// New returns a sorted label set from the given pairs. Duplicate names keep
// the last value.
func New(ls ...Label) Labels {
	set := make(map[string]string, len(ls))
	for _, l := range ls {
		set[l.Name] = l.Value
	}
	return FromMap(set)
}

// FromMap builds a sorted Labels from a map.
func FromMap(m map[string]string) Labels {
	ls := make(Labels, 0, len(m))
	for n, v := range m {
		ls = append(ls, Label{Name: n, Value: v})
	}
	sort.Sort(ls)
	return ls
}

// FromStrings builds Labels from alternating name, value strings. It panics
// on an odd number of arguments; this is a programmer error.
func FromStrings(ss ...string) Labels {
	if len(ss)%2 != 0 {
		panic("labels.FromStrings: odd number of arguments")
	}
	ls := make(Labels, 0, len(ss)/2)
	for i := 0; i < len(ss); i += 2 {
		ls = append(ls, Label{Name: ss[i], Value: ss[i+1]})
	}
	sort.Sort(ls)
	return ls
}

func (ls Labels) Len() int           { return len(ls) }
func (ls Labels) Swap(i, j int)      { ls[i], ls[j] = ls[j], ls[i] }
func (ls Labels) Less(i, j int) bool { return ls[i].Name < ls[j].Name }

// Get returns the value of the label with the given name, or "".
func (ls Labels) Get(name string) string {
	// Binary search: labels are sorted by name.
	i := sort.Search(len(ls), func(i int) bool { return ls[i].Name >= name })
	if i < len(ls) && ls[i].Name == name {
		return ls[i].Value
	}
	return ""
}

// Has reports whether the label name is present.
func (ls Labels) Has(name string) bool {
	i := sort.Search(len(ls), func(i int) bool { return ls[i].Name >= name })
	return i < len(ls) && ls[i].Name == name
}

// Name returns the metric name (the __name__ label).
func (ls Labels) Name() string { return ls.Get(MetricName) }

// Map returns the labels as a fresh map.
func (ls Labels) Map() map[string]string {
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Name] = l.Value
	}
	return m
}

// Copy returns an independent copy of the label set.
func (ls Labels) Copy() Labels {
	out := make(Labels, len(ls))
	copy(out, ls)
	return out
}

// Equal reports whether two label sets are identical.
func (ls Labels) Equal(o Labels) bool {
	if len(ls) != len(o) {
		return false
	}
	for i := range ls {
		if ls[i] != o[i] {
			return false
		}
	}
	return true
}

// Compare orders label sets lexicographically.
func Compare(a, b Labels) int {
	l := len(a)
	if len(b) < l {
		l = len(b)
	}
	for i := 0; i < l; i++ {
		if a[i].Name != b[i].Name {
			if a[i].Name < b[i].Name {
				return -1
			}
			return 1
		}
		if a[i].Value != b[i].Value {
			if a[i].Value < b[i].Value {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

// Hash returns a stable 64-bit hash of the label set. Separator bytes 0xFF
// cannot appear in valid UTF-8 label content, which keeps the encoding
// unambiguous.
func (ls Labels) Hash() uint64 {
	h := uint64(fnvOffset64)
	for _, l := range ls {
		h = fnvAddSep(fnvAddString(h, l.Name))
		h = fnvAddSep(fnvAddString(h, l.Value))
	}
	return h
}

// Bytes appends to dst exactly the bytes Hash hashes: each name and value
// followed by a 0xFF separator. Two label sets of valid UTF-8, which never
// holds 0xFF, are equal if and only if their bytes are, so the result
// serves as a map key.
func (ls Labels) Bytes(dst []byte) []byte {
	for _, l := range ls {
		dst = append(dst, l.Name...)
		dst = append(dst, 0xFF)
		dst = append(dst, l.Value...)
		dst = append(dst, 0xFF)
	}
	return dst
}

// HashWithout hashes the label set ignoring the given names (used by
// aggregation "without").
func (ls Labels) HashWithout(names ...string) uint64 {
	h := uint64(fnvOffset64)
outer:
	for _, l := range ls {
		if l.Name == MetricName {
			continue
		}
		for _, n := range names {
			if l.Name == n {
				continue outer
			}
		}
		h = fnvAddSep(fnvAddString(h, l.Name))
		h = fnvAddSep(fnvAddString(h, l.Value))
	}
	return h
}

// HashFor hashes only the given label names (used by aggregation "by").
func (ls Labels) HashFor(names ...string) uint64 {
	sorted := names
	if !sort.StringsAreSorted(sorted) {
		sorted = append([]string(nil), names...)
		sort.Strings(sorted)
	}
	h := uint64(fnvOffset64)
	for _, n := range sorted {
		h = fnvAddSep(fnvAddString(h, n))
		h = fnvAddSep(fnvAddString(h, ls.Get(n)))
	}
	return h
}

// WithoutNames returns a copy dropping the given names plus __name__.
func (ls Labels) WithoutNames(names ...string) Labels {
	out := make(Labels, 0, len(ls))
outer:
	for _, l := range ls {
		if l.Name == MetricName {
			continue
		}
		for _, n := range names {
			if l.Name == n {
				continue outer
			}
		}
		out = append(out, l)
	}
	return out
}

// KeepNames returns a copy retaining only the given names.
func (ls Labels) KeepNames(names ...string) Labels {
	out := make(Labels, 0, len(names))
	for _, l := range ls {
		for _, n := range names {
			if l.Name == n {
				out = append(out, l)
				break
			}
		}
	}
	return out
}

// String renders the labels in the canonical {a="b", c="d"} form with the
// metric name, if any, prefixed.
func (ls Labels) String() string {
	var b strings.Builder
	name := ls.Name()
	b.WriteString(name)
	b.WriteByte('{')
	first := true
	for _, l := range ls {
		if l.Name == MetricName {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Builder incrementally constructs a label set, typically by modifying a
// base set. The last Set or Del of a name wins.
type Builder struct {
	base Labels
	ops  []Label // sorted by name, one per name; an empty Value deletes
}

// NewBuilder returns a Builder seeded with base.
func NewBuilder(base Labels) *Builder {
	return &Builder{base: base}
}

// Set adds or replaces a label. Setting an empty value deletes the label.
func (b *Builder) Set(name, value string) *Builder {
	i, found := slices.BinarySearchFunc(b.ops, name, func(l Label, name string) int {
		return strings.Compare(l.Name, name)
	})
	switch {
	case found:
		b.ops[i].Value = value
	case b.ops == nil:
		// Room for the one or two edits most callers make.
		b.ops = append(make([]Label, 0, 2), Label{Name: name, Value: value})
	default:
		b.ops = slices.Insert(b.ops, i, Label{Name: name, Value: value})
	}
	return b
}

// Del marks labels for deletion.
func (b *Builder) Del(names ...string) *Builder {
	for _, n := range names {
		b.Set(n, "")
	}
	return b
}

// Labels materializes the built label set: the sorted base and the sorted
// edits merged in one pass into a slice of exactly the result's length.
func (b *Builder) Labels() Labels {
	n := len(b.base)
	for _, op := range b.ops {
		switch has := b.base.Has(op.Name); {
		case has && op.Value == "":
			n--
		case !has && op.Value != "":
			n++
		}
	}
	out := make(Labels, 0, n)
	i := 0
	for _, op := range b.ops {
		for i < len(b.base) && b.base[i].Name < op.Name {
			out = append(out, b.base[i])
			i++
		}
		if i < len(b.base) && b.base[i].Name == op.Name {
			i++
		}
		if op.Value != "" {
			out = append(out, op)
		}
	}
	return append(out, b.base[i:]...)
}

// MatchType enumerates matcher operators.
type MatchType int

const (
	MatchEqual     MatchType = iota // =
	MatchNotEqual                   // !=
	MatchRegexp                     // =~
	MatchNotRegexp                  // !~
)

func (t MatchType) String() string {
	switch t {
	case MatchEqual:
		return "="
	case MatchNotEqual:
		return "!="
	case MatchRegexp:
		return "=~"
	case MatchNotRegexp:
		return "!~"
	}
	return "?"
}

// Matcher tests a single label against a value or anchored regexp.
type Matcher struct {
	Type  MatchType
	Name  string
	Value string
	re    *regexp.Regexp
	alts  []string // the distinct literal alternatives of a metacharacter-free regexp
}

// NewMatcher builds a matcher; regexp values are anchored (^...$) as in
// Prometheus. Matchers of one pattern share one compiled program
// (sharedProgram), =~ and !~ alike.
func NewMatcher(t MatchType, name, value string) (*Matcher, error) {
	m := &Matcher{Type: t, Name: name, Value: value}
	if t == MatchRegexp || t == MatchNotRegexp {
		re, err := sharedProgram(value)
		if err != nil {
			return nil, fmt.Errorf("labels: bad matcher regexp %q: %w", value, err)
		}
		m.re = re
		if t == MatchRegexp && !strings.ContainsAny(value, `\.+*?()[]{}^$`) {
			m.alts = strings.Split(value, "|")
			slices.Sort(m.alts)
			m.alts = slices.Compact(m.alts)
		}
	}
	return m, nil
}

// programs maps a pattern to the program its live matchers share. An entry
// holds its program weakly and goes when the program is collected, so the
// table holds only the patterns some matcher still uses: a cached query
// keeps its program, and the table needs no bound of its own.
var programs struct {
	mu sync.Mutex
	m  map[string]weak.Pointer[regexp.Regexp]
}

// sharedProgram returns the anchored program of pattern, compiling it only
// when no live matcher holds it already. A *regexp.Regexp is safe for
// concurrent use, so sharing it changes nothing a match sees.
func sharedProgram(pattern string) (*regexp.Regexp, error) {
	programs.mu.Lock()
	re := programs.m[pattern].Value()
	programs.mu.Unlock()
	if re != nil {
		return re, nil
	}
	re, err := regexp.Compile("^(?:" + pattern + ")$")
	if err != nil {
		return nil, err
	}
	programs.mu.Lock()
	defer programs.mu.Unlock()
	if live := programs.m[pattern].Value(); live != nil {
		return live, nil // compiled meanwhile by another caller
	}
	if programs.m == nil {
		programs.m = make(map[string]weak.Pointer[regexp.Regexp])
	}
	programs.m[pattern] = weak.Make(re)
	runtime.AddCleanup(re, dropProgram, pattern)
	return re, nil
}

// dropProgram removes pattern's entry once its program is collected, unless
// a program compiled since has taken the entry.
func dropProgram(pattern string) {
	programs.mu.Lock()
	defer programs.mu.Unlock()
	if wp, ok := programs.m[pattern]; ok && wp.Value() == nil {
		delete(programs.m, pattern)
	}
}

// MustMatcher is NewMatcher that panics on error, for static matchers.
func MustMatcher(t MatchType, name, value string) *Matcher {
	m, err := NewMatcher(t, name, value)
	if err != nil {
		panic(err)
	}
	return m
}

// Matches reports whether the value satisfies the matcher.
func (m *Matcher) Matches(v string) bool {
	switch m.Type {
	case MatchEqual:
		return v == m.Value
	case MatchNotEqual:
		return v != m.Value
	case MatchRegexp:
		return m.re.MatchString(v)
	case MatchNotRegexp:
		return !m.re.MatchString(v)
	}
	return false
}

// SetMatches returns the exact set of values a regexp matcher accepts when
// its pattern is a plain alternation of literals ("a|b|c" — what a
// multi-value dashboard variable expands to), sorted and free of repeats, so
// an index can look the values up instead of testing every value it holds.
// It returns nil for any other pattern.
func (m *Matcher) SetMatches() []string { return m.alts }

func (m *Matcher) String() string {
	return fmt.Sprintf("%s%s%q", m.Name, m.Type, m.Value)
}

// MatchLabels reports whether all matchers are satisfied by the label set.
// A matcher on an absent label sees the empty string, as in Prometheus.
func MatchLabels(ls Labels, ms ...*Matcher) bool {
	for _, m := range ms {
		if !m.Matches(ls.Get(m.Name)) {
			return false
		}
	}
	return true
}
