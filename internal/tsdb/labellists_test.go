package tsdb

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestKeptListConcurrentReadsAndChanges drives one keptList the way the
// head does: writers change a "shard" list under its lock and record the
// change there, while readers merge additions and rebuild. Every read must
// be sorted, hold every value added before it began and, after the last
// change, equal the shard list.
func TestKeptListConcurrentReadsAndChanges(t *testing.T) {
	var (
		kl    keptList
		mu    sync.RWMutex // the shard lock
		set   = map[string]bool{}
		done  atomic.Int64 // values whose add returned
		wg    sync.WaitGroup
		stop  = make(chan struct{})
		merge = func() []string {
			mu.RLock()
			defer mu.RUnlock()
			out := make([]string, 0, len(set))
			for v := range set {
				out = append(out, v)
			}
			slices.Sort(out)
			return out
		}
	)
	value := func(i int64) string { return fmt.Sprintf("v%06d", i) }
	const adds = 4000
	wg.Add(1)
	go func() { // the one minting writer: values v0, v1, ... in order
		defer wg.Done()
		for i := int64(0); i < adds; i++ {
			mu.Lock()
			set[value(i)] = true
			kl.add(value(i))
			mu.Unlock()
			done.Store(i + 1)
			if i%500 == 499 { // a removal: a value outside the minted range
				mu.Lock()
				set["x"] = !set["x"]
				if set["x"] {
					kl.add("x")
				} else {
					delete(set, "x")
					kl.drop()
				}
				mu.Unlock()
			}
		}
	}()
	var errs atomic.Int64
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := done.Load()
				got := kl.read(merge)
				if !strictlyAscending(got) {
					errs.Add(1)
					t.Error("read not strictly ascending")
					return
				}
				for i := int64(0); i < n; i++ {
					if _, ok := slices.BinarySearch(got, value(i)); !ok {
						errs.Add(1)
						t.Errorf("read begun after %d adds misses %s", n, value(i))
						return
					}
				}
			}
		}()
	}
	for done.Load() < adds && errs.Load() == 0 {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if got, want := kl.read(merge), merge(); !slices.Equal(got, want) {
		t.Fatalf("final read has %d values, the shard list %d", len(got), len(want))
	}
}

// TestInsertAll checks insertAll against a sort of the union on random
// lists and additions (repeats, values already listed, none at all), and
// that it leaves both inputs as they were.
func TestInsertAll(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; n++ {
		var list, added []string
		seen := map[string]bool{}
		for i := rng.Intn(40); i > 0; i-- {
			if v := fmt.Sprint(rng.Intn(60)); !seen[v] {
				seen[v] = true
				list = append(list, v)
			}
		}
		slices.Sort(list)
		for i := rng.Intn(12); i > 0; i-- {
			added = append(added, fmt.Sprint(rng.Intn(60)))
		}
		list0, added0 := slices.Clone(list), slices.Clone(added)
		want := slices.Compact(slices.Sorted(slices.Values(append(slices.Clone(list), added...))))
		if got := insertAll(list, added); !slices.Equal(got, want) {
			t.Fatalf("insertAll(%q, %q) = %q, want %q", list, added, got, want)
		}
		if !slices.Equal(list, list0) || !slices.Equal(added, added0) {
			t.Fatalf("insertAll wrote its inputs: %q %q, were %q %q", list, added, list0, added0)
		}
	}
}
