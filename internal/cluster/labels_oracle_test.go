package cluster

import (
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/labels"
	"repro/internal/tsdb"
)

// TestRingLabelListsOracle drives random creates, appends, deletes,
// truncates and member WAL reopens (Kill, then Rejoin) against a 3-member
// ring of WAL-backed heads, on 1 and 16 shards, while one goroutine appends
// series of a label it mints a new value of at every turn, and another
// reads the ring's label lists throughout. After every step the ring's
// label names and values must equal the oracle's live series: every value
// minted before the read began, and none not yet begun.
func TestRingLabelListsOracle(t *testing.T) {
	for _, shards := range []int{1, 16} {
		t.Run(fmt.Sprintf("%d_shards", shards), func(t *testing.T) { ringLabelListsOracle(t, shards) })
	}
}

func ringLabelListsOracle(t *testing.T, shards int) {
	rng := rand.New(rand.NewSource(int64(shards)))
	dir := t.TempDir()
	ring, err := NewRingDB(2, 2, 0, func(name string) (*tsdb.DB, error) {
		opts := tsdb.DefaultOptions()
		opts.Shards, opts.WALDir, opts.MaxSamplesPerChunk = shards, filepath.Join(dir, name), 2
		return tsdb.Open(opts)
	}, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.RWMutex // truncates and reopens exclude the appender
		minted  atomic.Int64
		tokens  = make(chan struct{}, 8)
		stop    = make(chan struct{})
		bg      sync.WaitGroup
		mintedT = int64(1) << 40 // past every step: never truncated
	)
	halt := sync.OnceFunc(func() {
		close(stop)
		bg.Wait()
		ring.Close()
	})
	t.Cleanup(halt)
	bg.Add(2)
	go func() {
		defer bg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			case <-tokens:
			}
			mu.RLock()
			err := ring.Append(labels.FromStrings(labels.MetricName, "bg", "minted", ringMinted(i)), mintedT+i, 1)
			mu.RUnlock()
			if err != nil {
				t.Errorf("minting append %d: %v", i, err)
				return
			}
			minted.Store(i + 1)
		}
	}()
	go func() {
		defer bg.Done()
		names := []string{labels.MetricName, "minted", "job", "uuid"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mu.RLock()
			for _, read := range []func() ([]string, error){ring.LabelNames, func() ([]string, error) { return ring.LabelValues(names[i%len(names)]) }} {
				if list, err := read(); err != nil {
					t.Errorf("concurrent label read: %v", err)
				} else if !slices.IsSorted(list) || len(slices.Compact(slices.Clone(list))) != len(list) {
					t.Errorf("concurrent label read not strictly ascending: %q", list)
				}
			}
			mu.RUnlock()
			runtime.Gosched()
		}
	}()
	tokens <- struct{}{}
	for minted.Load() == 0 {
		runtime.Gosched()
	}

	live := map[string]labels.Labels{}
	lastT := map[string]int64{}
	now := int64(1000)
	for step := 0; step < 100; step++ {
		for range 3 {
			select {
			case tokens <- struct{}{}:
			default:
			}
		}
		now += 10
		where := fmt.Sprintf("step %d", step)
		switch op := rng.Intn(12); {
		case op < 8:
			lset := labels.FromStrings(labels.MetricName, fmt.Sprintf("m%d", rng.Intn(3)),
				"job", fmt.Sprintf("j%d", rng.Intn(6)), "uuid", fmt.Sprintf("u%02d", rng.Intn(30)))
			now++
			if err := ring.Append(lset, now, 1); err != nil {
				t.Fatalf("%s: append %s: %v", where, lset, err)
			}
			live[lset.String()], lastT[lset.String()] = lset, now
			where += " append"
		case op == 8:
			ms := []*labels.Matcher{labels.MustMatcher(labels.MatchRegexp, labels.MetricName, "m.*"),
				labels.MustMatcher(labels.MatchEqual, "job", fmt.Sprintf("j%d", rng.Intn(6)))}
			for k, lset := range live {
				if labels.MatchLabels(lset, ms...) {
					delete(live, k)
				}
			}
			if _, err := ring.DeleteSeriesQuorum(ms...); err != nil {
				t.Fatalf("%s: delete: %v", where, err)
			}
			where += " delete"
		case op == 9 || op == 10:
			mint := now - int64(rng.Intn(200))
			for k := range live {
				if lastT[k] < mint {
					delete(live, k)
				}
			}
			mu.Lock()
			ring.Truncate(mint)
			mu.Unlock()
			where += " truncate"
		default:
			name := []string{"a", "b", "c"}[rng.Intn(3)]
			mu.Lock()
			err := ring.Kill(name)
			if err == nil {
				_, _, err = ring.Rejoin(name)
			}
			mu.Unlock()
			if err != nil {
				t.Fatalf("%s: reopen %s: %v", where, name, err)
			}
			where += " reopen " + name
		}

		sets := map[string]map[string]bool{labels.MetricName: {"bg": true}, "minted": {}}
		for _, lset := range live {
			for _, l := range lset {
				if sets[l.Name] == nil {
					sets[l.Name] = map[string]bool{}
				}
				sets[l.Name][l.Value] = true
			}
		}
		checkRingLabels(t, where, ring, sets, &minted)
		if t.Failed() {
			t.FailNow()
		}
	}
	halt()
}

func ringMinted(i int64) string { return fmt.Sprintf("%06d", i) }

// checkRingLabels holds the ring's label lists to want, whose minted entry
// only names the label: its values must hold every value minted when the
// read began and none the appender had not begun.
func checkRingLabels(t *testing.T, when string, ring *RingDB, want map[string]map[string]bool, minted *atomic.Int64) {
	t.Helper()
	lo := minted.Load()
	got, err := ring.LabelValues("minted")
	hi := minted.Load() + 1
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	for i := int64(0); i < lo; i++ {
		if _, ok := slices.BinarySearch(got, ringMinted(i)); !ok {
			t.Errorf("%s: minted value %q missing, the appender had minted %d", when, ringMinted(i), lo)
			break
		}
	}
	if len(got) > 0 && got[len(got)-1] >= ringMinted(hi) {
		t.Errorf("%s: minted value %q listed, the appender had begun %d", when, got[len(got)-1], hi)
	}
	names, err := ring.LabelNames()
	if want := slices.Sorted(maps.Keys(want)); err != nil || !slices.Equal(names, want) {
		t.Errorf("%s: LabelNames = %v, %v; the oracle has %v", when, names, err, want)
	}
	for name, vs := range want {
		if name == "minted" {
			continue
		}
		got, err := ring.LabelValues(name)
		if want := slices.Sorted(maps.Keys(vs)); err != nil || !slices.Equal(got, want) {
			t.Errorf("%s: LabelValues(%q) = %v, %v; the oracle has %v", when, name, got, err, want)
		}
	}
}
