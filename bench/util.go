package main

import (
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/model"
)

// vclock is the stack's virtual clock. The tick loop advances it; the
// scrape manager, the query API, the LB cache and the HTTP handlers read it
// from other goroutines, hence the atomic.
type vclock struct{ ms atomic.Int64 }

func (c *vclock) now() time.Time      { return time.UnixMilli(c.ms.Load()).UTC() }
func (c *vclock) set(t time.Time)     { c.ms.Store(t.UnixMilli()) }
func (c *vclock) add(d time.Duration) { c.ms.Add(d.Milliseconds()) }

// timings collects per-operation wall times of one kind, in seconds.
type timings []float64

func (t *timings) add(d time.Duration) { *t = append(*t, d.Seconds()) }

func (t timings) sum() float64 {
	s := 0.0
	for _, v := range t {
		s += v
	}
	return s
}

// quantile returns the q-quantile (nearest rank on the sorted copy); 0 for
// an empty set.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// ratio is a/b, 0 when b is 0 (an inert layer reports 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// dirBytes sums the sizes of all regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	if os.IsNotExist(err) {
		return 0, nil
	}
	return n, err
}

// seriesDigest hashes a Select result — labels, timestamps and value bits —
// so two heads can be compared byte for byte without holding both.
func seriesDigest(series []model.Series) (digest uint64, samples int) {
	h := fnv.New64a()
	var buf [16]byte
	for _, sr := range series {
		for _, l := range sr.Labels {
			h.Write([]byte(l.Name))
			h.Write([]byte{0})
			h.Write([]byte(l.Value))
			h.Write([]byte{0})
		}
		for _, smp := range sr.Samples {
			t, v := uint64(smp.T), math.Float64bits(smp.V)
			for i := 0; i < 8; i++ {
				buf[i] = byte(t >> (8 * i))
				buf[8+i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
		samples += len(sr.Samples)
	}
	return h.Sum64(), samples
}

// stopwatch times one operation: the process CPU time it consumed, user
// plus system over every thread, brought to reference speed (see calib.go).
// The harness keeps one operation in flight at a time, so an operation's CPU
// time is what its wall time would be on an idle machine plus the GC work
// that would overlap it on the second core.
type stopwatch struct{ cpu time.Duration }

func startWatch() stopwatch {
	cal.refresh()
	return stopwatch{cpuTime()}
}

// stop returns the CPU time at reference speed since the watch started.
func (w stopwatch) stop() time.Duration {
	return time.Duration(float64(cpuTime()-w.cpu) / cal.slowdown())
}

// seconds is stop in seconds, for the probes.
func (w stopwatch) seconds() float64 { return w.stop().Seconds() }
