package labels

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
)

// TestSeriesCacheMatchesOracle drives the cache the way its producers do —
// Get, Put on a miss, Stamp, Sweep — through random rounds and checks every
// sweep against a brute-force rule: it reports exactly the stored sets the
// last successful round produced and this one does not, each once. Several
// keys spell one stored set, some rounds fail (they may Put but stamp and
// sweep nothing, as a scrape whose parse failed), some succeed empty (as a
// scrape target's rebase), and half the runs force every hash equal so that
// only Labels.Equal can tell entries apart.
func TestSeriesCacheMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		forced := seed%2 == 0
		t.Run(fmt.Sprintf("seed=%d/forced=%v", seed, forced), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			sets := make([]Labels, 2+rng.Intn(6))
			for i := range sets {
				sets[i] = FromStrings(MetricName, "m", "k", fmt.Sprint(i))
			}
			keys := make([]string, 2+rng.Intn(12))
			spells := map[string]Labels{}
			for i := range keys {
				keys[i] = fmt.Sprintf("key%d", i)
				spells[keys[i]] = sets[rng.Intn(len(sets))]
			}
			var c SeriesCache
			last := map[string]bool{} // the sets of the last successful round
			for round := 0; round < 60; round++ {
				var produced []string
				if rng.Intn(8) > 0 {
					for _, k := range keys {
						if rng.Intn(3) > 0 {
							produced = append(produced, k)
						}
					}
				}
				var entries []*CacheEntry
				for _, k := range produced {
					e := c.Get([]byte(k))
					if e == nil {
						e = c.Put(k, spells[k])
					}
					if !e.Labels.Equal(spells[k]) {
						t.Fatalf("round %d: key %s resolves to %s, want %s", round, k, e.Labels, spells[k])
					}
					entries = append(entries, e)
				}
				if forced {
					for _, e := range c.entries {
						e.hash = 42
					}
				}
				if rng.Intn(5) == 0 {
					continue // failed: nothing stamped, nothing swept
				}
				for _, e := range entries {
					c.Stamp(e)
				}
				var got []string
				c.Sweep(func(ls Labels) { got = append(got, ls.String()) })

				now := map[string]bool{}
				for _, k := range produced {
					now[spells[k].String()] = true
				}
				var want []string
				for s := range last {
					if !now[s] {
						want = append(want, s)
					}
				}
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("round %d: sweep reported %q, want %q", round, got, want)
				}
				if n := c.Len(); n != len(produced) {
					t.Fatalf("round %d: cache holds %d keys after the sweep, want the %d produced", round, n, len(produced))
				}
				last = now
			}
		})
	}
}

// Bytes is what Hash hashes, so a key built from it and the hash agree on
// which label sets are one.
func TestHashIsFNVOfBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"", "a", "b", "__name__", "instance", "é", "x y", "0"}
	for i := 0; i < 2000; i++ {
		m := map[string]string{}
		for n := rng.Intn(6); n > 0; n-- {
			m[alphabet[rng.Intn(len(alphabet))]+fmt.Sprint(rng.Intn(3))] = alphabet[rng.Intn(len(alphabet))]
		}
		ls := FromMap(m)
		h := fnv.New64a()
		h.Write(ls.Bytes(nil))
		if got, want := ls.Hash(), h.Sum64(); got != want {
			t.Fatalf("%s: Hash %x, FNV-1a of Bytes %x", ls, got, want)
		}
	}
}
