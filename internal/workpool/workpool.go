// Package workpool holds the tree's two fan-outs. Do is for coarse jobs
// whose items are each worth a goroutine: scrape targets, replica and peer
// calls, WAL replay directories, per-shard truncate, cut, checkpoint, delete.
// DoRange is for per-item work on a read path — head series to copy, PromQL
// cells to fill — and alone decides whether such work fans out at all.
package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// tasks counts every f(i) invocation ever dispatched through Do. It exists
// so tests can assert that a code path really fanned out through the pool
// (the counting-pool pattern); one atomic add per task is noise next to the
// work each task performs.
var tasks atomic.Uint64

// Tasks returns the monotonic count of task invocations dispatched through
// Do since process start.
func Tasks() uint64 { return tasks.Load() }

var spawns atomic.Uint64 // goroutines DoRange ever started

// Spawns returns that count; tests assert a small read stayed on its caller.
func Spawns() uint64 { return spawns.Load() }

// DoRange runs fn over [0, n) and returns when every call has finished.
// grain is the least number of items worth a goroutine of their own: with
// n < 2*grain, or GOMAXPROCS 1, it is fn(0, n) on the caller's goroutine and
// nothing else; otherwise [0, n) is split into at most GOMAXPROCS contiguous
// ranges of at least grain items, the caller taking the first.
func DoRange(n, grain int, fn func(lo, hi int)) {
	parts := min(runtime.GOMAXPROCS(0), n/max(grain, 1))
	if parts <= 1 {
		fn(0, n)
		return
	}
	spawns.Add(uint64(parts - 1))
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	for p := 1; p < parts; p++ {
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(n*p/parts, n*(p+1)/parts)
	}
	fn(0, n/parts)
	wg.Wait()
}

// Do invokes f(i) for every i in [0, n) from at most `workers` goroutines
// (the caller's among them) and returns when all calls have finished. workers <= 0 means GOMAXPROCS;
// the pool is always clamped to n. With one worker (or n == 1) f runs
// inline on the caller's goroutine, preserving sequential semantics.
func Do(n, workers int, f func(i int)) {
	if n <= 0 {
		return
	}
	tasks.Add(uint64(n))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			f(i)
		}
	}
	// The caller is worker 0: it would otherwise only park until the others
	// finish, and a two-task fan-out then costs one goroutine start, not two.
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
