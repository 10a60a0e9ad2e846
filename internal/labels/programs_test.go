package labels

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// programEntry reports whether the program table holds a live program for
// pattern.
func programEntry(pattern string) bool {
	programs.mu.Lock()
	defer programs.mu.Unlock()
	wp, ok := programs.m[pattern]
	return ok && wp.Value() != nil
}

// TestMatcherSharesProgram: matchers of one pattern, =~ and !~ alike, hold
// one compiled program; a matcher of another pattern holds its own, and each
// still matches as its type says.
func TestMatcherSharesProgram(t *testing.T) {
	const pattern = "uuid:share-test:.+"
	a := MustMatcher(MatchRegexp, MetricName, pattern)
	b := MustMatcher(MatchRegexp, "other", pattern)
	not := MustMatcher(MatchNotRegexp, MetricName, pattern)
	other := MustMatcher(MatchRegexp, MetricName, pattern+"x")
	if a.re != b.re || a.re != not.re {
		t.Fatalf("matchers of %q hold programs %p, %p and %p, want one", pattern, a.re, b.re, not.re)
	}
	if other.re == a.re {
		t.Fatalf("pattern %q shares the program of %q", other.Value, pattern)
	}
	if !a.Matches("uuid:share-test:1") || not.Matches("uuid:share-test:1") || a.Matches("xuuid:share-test:1") || !other.Matches("uuid:share-test:1x") {
		t.Fatal("a shared program changed what a matcher matches")
	}
	if !programEntry(pattern) {
		t.Fatalf("no table entry for %q while its matchers live", pattern)
	}
	runtime.KeepAlive([]*Matcher{a, b, not, other})
}

// TestMatcherProgramsDropped: once the matchers of a pattern are collected,
// its entry leaves the table, so the table is bounded by the live matchers.
func TestMatcherProgramsDropped(t *testing.T) {
	patterns := make([]string, 64)
	for i := range patterns {
		patterns[i] = fmt.Sprintf("uuid:drop-test-%d:.+", i)
		MustMatcher(MatchRegexp, MetricName, patterns[i]) // dropped at once
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		left := 0
		programs.mu.Lock()
		for _, p := range patterns {
			if _, ok := programs.m[p]; ok {
				left++
			}
		}
		programs.mu.Unlock()
		if left == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d patterns of collected matchers still in the table", left, len(patterns))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMatcherProgramsParallel: NewMatcher called from many goroutines at
// once, over a few patterns, with collections in between, gives every
// matcher of one pattern the same program while any of them lives.
func TestMatcherProgramsParallel(t *testing.T) {
	const workers, rounds = 8, 200
	got := make([][]*Matcher, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				typ := MatchRegexp
				if i%2 == 1 {
					typ = MatchNotRegexp
				}
				got[w] = append(got[w], MustMatcher(typ, MetricName, fmt.Sprintf("uuid:parallel-test-%d:.+", i%4)))
				MustMatcher(MatchRegexp, MetricName, fmt.Sprintf("uuid:parallel-churn-%d-%d:.+", w, i)) // collectable
				if i%50 == 0 {
					runtime.GC()
				}
			}
		}()
	}
	wg.Wait()
	first := map[string]*Matcher{}
	for _, ms := range got {
		for _, m := range ms {
			if f, ok := first[m.Value]; !ok {
				first[m.Value] = m
			} else if f.re != m.re {
				t.Fatalf("two live matchers of %q hold different programs", m.Value)
			}
		}
	}
	if len(first) != 4 {
		t.Fatalf("%d patterns, want 4", len(first))
	}
}
