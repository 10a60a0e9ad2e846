package thanos

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb"
)

// TestDownsampleCoversUpToCutoffRandom runs random ship and maintenance
// schedules — scrape interval, cadence, the time between passes, extra ships
// between them, outages and series that come and go with staleness markers —
// into directory and in-memory stores. After every pass each whole 5m bucket
// from the first raw block's to the last one before both the pass's 5m
// cutoff and the newest raw block's end is held by exactly one 5m block, and
// likewise each 1h bucket over the 5m blocks up to the 1h cutoff; no derived
// block lies outside that range.
func TestDownsampleCoversUpToCutoffRandom(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(0xC0FE + trial)))
		dir := ""
		if trial%2 == 0 {
			dir = t.TempDir()
		}
		store, err := NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		var (
			scrape  = time.Duration(5+rng.Intn(56)) * time.Second
			cadence = time.Duration(5+rng.Intn(56)) * time.Minute
			start   = time.UnixMilli(1_700_000_000_000 + rng.Int63n(3_600_000))
			end     = start.Add(time.Duration(8+rng.Intn(17)) * time.Hour)
			db      = tsdb.MustOpen(tsdb.DefaultOptions())
			sc      = &Sidecar{DB: db, Store: store, HeadRetention: 2 * cadence}
			series  = make([]labels.Labels, 1+rng.Intn(3))
			live    = make([]bool, len(series))
			outage  time.Time // no scrape lands before it
			pass    = start.Add(time.Duration(rng.Int63n(int64(cadence))))
			ship    = time.Time{}
			what    = fmt.Sprintf("trial %d (scrape %v, cadence %v, dir %v)", trial, scrape, cadence, dir != "")
		)
		for i := range series {
			series[i] = labels.FromStrings(labels.MetricName, "cov", "s", fmt.Sprint(i))
			live[i] = true
		}
		for now := start; now.Before(end); now = now.Add(scrape) {
			if rng.Intn(500) == 0 {
				outage = now.Add(time.Duration(rng.Int63n(int64(3 * cadence))))
			}
			for i, lset := range series {
				if now.Before(outage) {
					break
				}
				v := float64(now.Unix() % 3600)
				if live[i] && rng.Intn(200) == 0 {
					live[i], v = false, model.StaleNaN()
				} else if !live[i] {
					if live[i] = rng.Intn(50) == 0; !live[i] {
						continue
					}
				}
				if err := db.Append(lset, now.UnixMilli(), v); err != nil {
					t.Fatal(err)
				}
			}
			if !ship.IsZero() && !now.Before(ship) {
				if err := sc.Ship(now); err != nil {
					t.Fatal(err)
				}
				ship = time.Time{}
			}
			if now.Before(pass) {
				continue
			}
			if _, _, err := sc.Maintain(now, cadence); err != nil {
				t.Fatalf("%s: pass at %v: %v", what, now, err)
			}
			checkCoverage(t, store, now.Add(-2*cadence).UnixMilli(), now.Add(-10*cadence).UnixMilli(), fmt.Sprintf("%s: pass at %v", what, now.Sub(start)))
			next := time.Duration(int64(cadence)/2 + rng.Int63n(int64(cadence)*3/2))
			pass = now.Add(next)
			if rng.Intn(3) == 0 {
				ship = now.Add(time.Duration(rng.Int63n(int64(next))))
			}
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// checkCoverage fails unless the store's 5m blocks tile the whole 5m buckets
// of its raw blocks up to cut5 exactly once, and its 1h blocks those of its
// 5m blocks up to cut1h.
func checkCoverage(t *testing.T, store *Store, cut5, cut1h int64, what string) {
	t.Helper()
	byRes := map[int64][]tsdb.BlockMeta{}
	for _, m := range store.BlockMetas() {
		byRes[m.Resolution] = append(byRes[m.Resolution], m)
	}
	m5, h1 := (5 * time.Minute).Milliseconds(), time.Hour.Milliseconds()
	for _, rung := range []struct {
		src, res, cutoff int64
	}{{0, m5, cut5}, {m5, h1, cut1h}} {
		res, srcs, derived := rung.res, byRes[rung.src], byRes[rung.res]
		if len(srcs) == 0 {
			if len(derived) > 0 {
				t.Fatalf("%s: %d %dms blocks and no source", what, len(derived), res)
			}
			continue
		}
		lo, end := int64(math.MaxInt64), int64(math.MinInt64)
		for _, m := range srcs {
			lo, end = min(lo, m.MinTime), max(end, m.MaxTime+1)
		}
		lo -= floorMod(lo, res)
		hi := min(end, rung.cutoff)
		hi -= floorMod(hi, res)
		for _, d := range derived {
			if d.MinTime < lo || d.MaxTime >= hi || floorMod(d.MinTime, res) != 0 || floorMod(d.MaxTime+1, res) != 0 {
				t.Fatalf("%s: %dms block [%d, %d] is not whole buckets inside [%d, %d)", what, res, d.MinTime, d.MaxTime, lo, hi)
			}
		}
		for bs := lo; bs+res <= hi; bs += res {
			held := 0
			for _, d := range derived {
				if d.MinTime <= bs && bs+res-1 <= d.MaxTime {
					held++
				}
			}
			if held != 1 {
				t.Fatalf("%s: %dms bucket at %d held by %d blocks, want 1 (sources end %d, cutoff %d)", what, res, bs, held, end, rung.cutoff)
			}
		}
	}
}
