package main

import (
	"math"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// The sandbox this benchmark runs in is a small VM on a shared host. Other
// tenants take the vCPUs away (steal) and slow down the cycles that are left
// (shared cores and caches), in bursts that last minutes: the same binary
// measured 2–5× apart on wall time and 1.3–1.6× apart on CPU time between
// two runs. Both effects hit everything the process does at that moment by
// about the same factor, so every timed operation is divided by the factor
// measured at that moment: the CPU time a fixed reference kernel takes now,
// over what it takes on the quiet machine (refNominal). Reported times are
// therefore CPU time at reference speed. A change to the stack cannot move
// the reference kernel — it is harness code — so before/after ratios are
// untouched, and what is left of the machine's mood is a few percent.
//
// The slowdown is one of compute. Measured side by side over minutes, the
// kernel swung between 155 and 290 µs while a no-op HTTP round trip on
// loopback stayed within 150–175 µs of CPU: system calls, wake-ups and
// scheduling follow another mood. That is why the stack's HTTP hops go
// through handlerTransport and not through sockets: with the kernel's share
// gone, everything timed is user-space compute and one factor fits.

// refNominal is the reference kernel's CPU time on the quiet calibration
// machine.
const refNominal = 150 * time.Microsecond

// refEvery is how stale the newest reference sample may be when an
// operation starts.
const refEvery = 10 * time.Millisecond

// refWindow is how many recent samples the slowdown is the median of: one
// sample of a ~0.1 ms kernel is itself noisy.
const refWindow = 15

// calibrator tracks the machine's current slowdown. One per process: the
// harness keeps one operation in flight at a time.
type calibrator struct {
	recent  []float64 // CPU seconds of the latest reference samples
	factors []float64 // every slowdown computed, for the report
	// bits holds the current slowdown, median(recent) / refNominal, as
	// float64 bits: span ends on server goroutines read it.
	bits    atomic.Uint64
	last    time.Time
	keys    []string
	scratch map[string]uint64
	sink    uint64
}

var cal = &calibrator{scratch: map[string]uint64{}}

// slowdown is how much slower than the reference machine this one runs
// right now; 1 before the first sample.
func (c *calibrator) slowdown() float64 {
	if b := c.bits.Load(); b != 0 {
		return math.Float64frombits(b)
	}
	return 1
}

// refKernel is a fixed piece of work shaped like the stack's own — format
// numbers, hash strings, fill and read a map — that allocates nothing, so
// the collector's state does not leak into it.
func (c *calibrator) refKernel() {
	if c.keys == nil {
		for i := 0; i < 512; i++ {
			c.keys = append(c.keys, "instance-"+strconv.Itoa(i*7919))
		}
	}
	var buf [48]byte
	for round := 0; round < 3; round++ {
		for i, key := range c.keys {
			num := strconv.AppendFloat(buf[:0], float64(i+round)*1.0001, 'g', -1, 64)
			h := uint64(14695981039346656037) // FNV-1a over key and number
			for j := 0; j < len(key); j++ {
				h = (h ^ uint64(key[j])) * 1099511628211
			}
			for _, b := range num {
				h = (h ^ uint64(b)) * 1099511628211
			}
			c.scratch[key] = h
		}
		for k, v := range c.scratch {
			c.sink += v ^ uint64(len(k))
		}
		clear(c.scratch)
	}
}

// refresh takes a reference sample if the newest is stale. Called between
// operations, never inside one.
func (c *calibrator) refresh() {
	if len(c.recent) > 0 && time.Since(c.last) < refEvery {
		return
	}
	rounds := 1
	if len(c.recent) == 0 {
		rounds = refWindow // first use: fill the window
	}
	for r := 0; r < rounds; r++ {
		// The operation before left the caches full of its own data; one
		// untimed pass warms the kernel's small working set, so the sample
		// measures the machine's speed, not the previous operation's
		// footprint.
		c.refKernel()
		start := cpuTime()
		c.refKernel()
		c.recent = append(c.recent, (cpuTime() - start).Seconds())
	}
	if len(c.recent) > refWindow {
		c.recent = c.recent[len(c.recent)-refWindow:]
	}
	sorted := append([]float64(nil), c.recent...)
	sort.Float64s(sorted)
	f := sorted[len(sorted)/2] / refNominal.Seconds()
	c.bits.Store(math.Float64bits(f))
	c.factors = append(c.factors, f)
	c.last = time.Now()
}
