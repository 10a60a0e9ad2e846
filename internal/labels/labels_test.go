package labels

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestFromMapSorted(t *testing.T) {
	ls := FromMap(map[string]string{"z": "1", "a": "2", "m": "3"})
	if !sort.IsSorted(ls) {
		t.Fatalf("labels not sorted: %v", ls)
	}
	if got := ls.Get("a"); got != "2" {
		t.Errorf("Get(a) = %q, want 2", got)
	}
	if got := ls.Get("missing"); got != "" {
		t.Errorf("Get(missing) = %q, want empty", got)
	}
}

func TestFromStrings(t *testing.T) {
	ls := FromStrings(MetricName, "up", "job", "node")
	if ls.Name() != "up" {
		t.Errorf("Name() = %q, want up", ls.Name())
	}
	if ls.Get("job") != "node" {
		t.Errorf("Get(job) = %q", ls.Get("job"))
	}
}

func TestFromStringsPanicsOnOdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on odd arg count")
		}
	}()
	FromStrings("a")
}

func TestNewDeduplicates(t *testing.T) {
	ls := New(Label{"a", "1"}, Label{"a", "2"})
	if len(ls) != 1 || ls.Get("a") != "2" {
		t.Fatalf("New dedup failed: %v", ls)
	}
}

func TestEqualAndCompare(t *testing.T) {
	a := FromStrings("a", "1", "b", "2")
	b := FromStrings("a", "1", "b", "2")
	c := FromStrings("a", "1", "b", "3")
	if !a.Equal(b) {
		t.Error("a should equal b")
	}
	if a.Equal(c) {
		t.Error("a should not equal c")
	}
	if Compare(a, c) >= 0 {
		t.Error("a should sort before c")
	}
	if Compare(c, a) <= 0 {
		t.Error("c should sort after a")
	}
	if Compare(a, b) != 0 {
		t.Error("equal sets should compare 0")
	}
	d := FromStrings("a", "1")
	if Compare(d, a) >= 0 {
		t.Error("shorter prefix should sort first")
	}
}

func TestHashDistinguishes(t *testing.T) {
	a := FromStrings("a", "1", "b", "2")
	b := FromStrings("a", "12", "b", "") // would collide with naive concat
	if a.Hash() == b.Hash() {
		t.Error("hash collision between distinct label sets")
	}
	// Separator safety: {"a":"1b","":"2"} vs {"a":"1","b":"2"}.
	c := FromStrings("a", "1\xffb", "b", "2")
	if a.Hash() == c.Hash() {
		t.Error("hash collision via separator byte")
	}
}

func TestHashForWithout(t *testing.T) {
	a := FromStrings(MetricName, "m", "job", "x", "instance", "1")
	b := FromStrings(MetricName, "m2", "job", "x", "instance", "2")
	if a.HashFor("job") != b.HashFor("job") {
		t.Error("HashFor(job) should match for same job value")
	}
	if a.HashWithout("instance") != b.HashWithout("instance") {
		t.Error("HashWithout(instance) should ignore name and instance")
	}
	if a.HashFor("instance") == b.HashFor("instance") {
		t.Error("HashFor(instance) should differ")
	}
}

func TestWithoutKeepNames(t *testing.T) {
	a := FromStrings(MetricName, "m", "job", "x", "instance", "1")
	w := a.WithoutNames("instance")
	if w.Has("instance") || w.Has(MetricName) {
		t.Errorf("WithoutNames left names behind: %v", w)
	}
	if !w.Has("job") {
		t.Error("WithoutNames dropped job")
	}
	k := a.KeepNames("job")
	if len(k) != 1 || k.Get("job") != "x" {
		t.Errorf("KeepNames = %v", k)
	}
}

func TestBuilder(t *testing.T) {
	base := FromStrings("a", "1", "b", "2")
	ls := NewBuilder(base).Set("c", "3").Del("a").Set("b", "9").Labels()
	want := FromStrings("b", "9", "c", "3")
	if !ls.Equal(want) {
		t.Errorf("builder = %v, want %v", ls, want)
	}
	// Setting empty deletes.
	ls2 := NewBuilder(base).Set("a", "").Labels()
	if ls2.Has("a") {
		t.Error("Set(a, \"\") should delete a")
	}
	// Base unchanged.
	if !base.Equal(FromStrings("a", "1", "b", "2")) {
		t.Error("builder mutated base")
	}
}

func TestMatchers(t *testing.T) {
	cases := []struct {
		t       MatchType
		val     string
		in      string
		matches bool
	}{
		{MatchEqual, "x", "x", true},
		{MatchEqual, "x", "y", false},
		{MatchNotEqual, "x", "y", true},
		{MatchRegexp, "a.*", "abc", true},
		{MatchRegexp, "a.*", "zabc", false}, // anchored
		{MatchNotRegexp, "a.*", "zzz", true},
		{MatchRegexp, "", "", true},
		{MatchEqual, "", "", true}, // absent label matches empty
	}
	for _, c := range cases {
		m, err := NewMatcher(c.t, "l", c.val)
		if err != nil {
			t.Fatalf("NewMatcher: %v", err)
		}
		if got := m.Matches(c.in); got != c.matches {
			t.Errorf("%v on %q = %v, want %v", m, c.in, got, c.matches)
		}
	}
}

func TestMatcherBadRegexp(t *testing.T) {
	if _, err := NewMatcher(MatchRegexp, "l", "("); err == nil {
		t.Error("expected error for bad regexp")
	}
}

func TestMatchLabels(t *testing.T) {
	ls := FromStrings(MetricName, "up", "job", "node", "instance", "n1")
	ok := MatchLabels(ls,
		MustMatcher(MatchEqual, MetricName, "up"),
		MustMatcher(MatchRegexp, "instance", "n.+"),
	)
	if !ok {
		t.Error("expected match")
	}
	// Matcher on absent label sees "".
	if !MatchLabels(ls, MustMatcher(MatchEqual, "ghost", "")) {
		t.Error("absent label should match empty equality")
	}
	if MatchLabels(ls, MustMatcher(MatchEqual, "job", "other")) {
		t.Error("unexpected match")
	}
}

func TestStringFormat(t *testing.T) {
	ls := FromStrings(MetricName, "up", "job", "n")
	if got := ls.String(); got != `up{job="n"}` {
		t.Errorf("String() = %q", got)
	}
}

// Property: FromMap(ls.Map()) round-trips any label set.
func TestMapRoundTripProperty(t *testing.T) {
	f := func(m map[string]string) bool {
		ls := FromMap(m)
		return ls.Equal(FromMap(ls.Map()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Hash equality follows from Equal; Compare is antisymmetric.
func TestHashCompareProperty(t *testing.T) {
	f := func(a, b map[string]string) bool {
		la, lb := FromMap(a), FromMap(b)
		if la.Equal(lb) && la.Hash() != lb.Hash() {
			return false
		}
		if Compare(la, lb) != -Compare(lb, la) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Copy is independent of the original.
func TestCopyIndependent(t *testing.T) {
	a := FromStrings("a", "1", "b", "2")
	c := a.Copy()
	c[0].Value = "mutated"
	if a.Get("a") != "1" {
		t.Error("Copy shares backing array")
	}
}

func TestSetMatches(t *testing.T) {
	for _, tc := range []struct {
		typ   MatchType
		value string
		want  []string
	}{
		{MatchRegexp, "a|b|c", []string{"a", "b", "c"}},
		{MatchRegexp, "job-17", []string{"job-17"}},
		{MatchRegexp, "a|", []string{"", "a"}},
		{MatchRegexp, "a|a", []string{"a"}},
		{MatchRegexp, "c|a|c|b|a", []string{"a", "b", "c"}},
		{MatchRegexp, "a.*", nil},
		{MatchRegexp, "a|b.c", nil},
		{MatchRegexp, "(a|b)", nil},
		{MatchRegexp, `a\|b`, nil},
		{MatchNotRegexp, "a|b", nil},
		{MatchEqual, "a|b", nil},
	} {
		m := MustMatcher(tc.typ, "l", tc.value)
		got := m.SetMatches()
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: SetMatches = %q, want %q", m, got, tc.want)
		}
		// The set, when given, is exactly what the regexp accepts.
		for _, v := range append([]string{"", "a", "b", "c", "ab", "job-17", "a|b"}, got...) {
			inSet := false
			for _, g := range got {
				inSet = inSet || g == v
			}
			if got != nil && inSet != m.Matches(v) {
				t.Errorf("%s: SetMatches %q disagrees with Matches(%q) = %v", m, got, v, m.Matches(v))
			}
		}
	}
}
