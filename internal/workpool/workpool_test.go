package workpool

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

func TestDoCoversAll(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 7, 64} {
		const n = 100
		var hits [n]atomic.Int32
		Do(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, got)
			}
		}
	}
}

func TestDoEmpty(t *testing.T) {
	called := false
	Do(0, 4, func(int) { called = true })
	Do(-3, 4, func(int) { called = true })
	if called {
		t.Error("f called for n <= 0")
	}
}

func TestDoSequentialWhenOneWorker(t *testing.T) {
	// With workers=1 the calls must run on the caller's goroutine in order.
	var order []int
	Do(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("order = %v", order)
	}
}

func TestDoBoundsWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	var inflight, peak atomic.Int32
	Do(64, 4, func(int) {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		inflight.Add(-1)
	})
	if p := peak.Load(); p > 4 {
		t.Errorf("peak concurrency %d > 4 (GOMAXPROCS %d)", p, prev)
	}
}

// withProcs runs f with GOMAXPROCS forced to n.
func withProcs(t *testing.T, n int, f func()) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

func TestDoRangeCoversAll(t *testing.T) {
	const grain = 8
	for _, procs := range []int{1, 2, 4} {
		for _, n := range []int{0, 1, grain, 2*grain - 1, 2 * grain, 1000} {
			withProcs(t, procs, func() {
				hits := make([]atomic.Int32, n)
				var ranges atomic.Int32
				before := Spawns()
				DoRange(n, grain, func(lo, hi int) {
					ranges.Add(1)
					if hi-lo < grain && hi-lo != n {
						t.Errorf("procs=%d n=%d: range [%d,%d) is shorter than the grain", procs, n, lo, hi)
					}
					for i := lo; i < hi; i++ {
						hits[i].Add(1)
					}
				})
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Fatalf("procs=%d n=%d: index %d hit %d times", procs, n, i, got)
					}
				}
				want := int32(max(min(procs, n/grain), 1)) // n = 0 is fn(0, 0)
				if got := ranges.Load(); got != want {
					t.Errorf("procs=%d n=%d: %d ranges, want %d", procs, n, got, want)
				}
				if got := Spawns() - before; got != uint64(want-1) {
					t.Errorf("procs=%d n=%d: %d goroutines started for %d ranges", procs, n, got, want)
				}
			})
		}
	}
}

// TestDoRangeInlineBelowTwoGrains: the whole point of the grain — work that
// would not fill two ranges runs as one call on the caller's goroutine.
func TestDoRangeInlineBelowTwoGrains(t *testing.T) {
	withProcs(t, 4, func() {
		var calls []int // unsynchronised on purpose: the race detector checks "inline"
		before := Spawns()
		DoRange(15, 8, func(lo, hi int) { calls = append(calls, lo, hi) })
		if !slices.Equal(calls, []int{0, 15}) {
			t.Errorf("calls = %v, want the one call [0,15)", calls)
		}
		if got := Spawns() - before; got != 0 {
			t.Errorf("%d goroutines started for 15 items at grain 8", got)
		}
		var ranges atomic.Int32
		DoRange(100, 0, func(lo, hi int) { ranges.Add(1) }) // a grain below 1 counts as 1
		if got := ranges.Load(); got != 4 {
			t.Errorf("grain 0 over 100 items at GOMAXPROCS 4: %d ranges, want 4", got)
		}
	})
}

func TestDoRangePanicNotSwallowed(t *testing.T) {
	withProcs(t, 4, func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want the panic raised in fn", r)
			}
		}()
		DoRange(3, 8, func(lo, hi int) { panic("boom") })
		t.Error("DoRange returned after fn panicked")
	})
}
