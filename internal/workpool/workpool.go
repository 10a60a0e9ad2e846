// Package workpool provides the bounded fan-out primitive shared by the
// TSDB shard querier and the scrape manager: run f(0..n-1) on a fixed pool
// of workers and wait for all of them.
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
