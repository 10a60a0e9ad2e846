package labels

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// SeriesCache maps what a producer emits, spelled as key bytes, to the label
// set it is stored under, and tells the producer which stored sets it
// stopped producing. A scrape target keys it by the exposed `name{…}` bytes,
// a recording rule by its result set's Bytes (docs/ARCHITECTURE.md, "One
// series cache").
//
// It is used in rounds. A successful round stamps the entry of every series
// it produced and then calls Sweep. A failed round stamps nothing and does
// not sweep, so the next sweep still reports against the last round that
// succeeded. Sweep evicts what its round did not stamp, which bounds the
// cache by what the producer emitted in its last two rounds.
//
// A SeriesCache is not safe for concurrent use. The zero value is empty.
type SeriesCache struct {
	entries map[string]*CacheEntry
	swept   uint64        // rounds swept; the open round is swept+1
	live    int           // entries the open round stamped
	dead    []*CacheEntry // Sweep's scratch, kept for the next sweep
}

// CacheEntry is one key resolved to its stored label set. Labels is
// immutable: a producer hands it to storage as is, round after round.
//
// An entry also carries a handle that storage publishes on it: the series
// Labels resolved to, so that the next append of that series finds it
// without hashing, looking up or comparing Labels (docs/ARCHITECTURE.md,
// "One series cache"). The handle is opaque here. Labels, Hash and the
// handle may be read, and the handle published, from any goroutine; the
// rest of an entry belongs to its cache.
type CacheEntry struct {
	Labels Labels
	hash   uint64 // Labels.Hash()
	round  uint64 // the last round that stamped it, 0 for none
	handle atomic.Value
}

// NewCacheEntry returns an entry for ls that no cache holds: a series a
// producer owns outright, such as a scrape target's up.
func NewCacheEntry(ls Labels) *CacheEntry {
	return &CacheEntry{Labels: ls, hash: ls.Hash()}
}

// Hash returns Labels.Hash(), computed once when the entry was made.
func (e *CacheEntry) Hash() uint64 { return e.hash }

// Handle returns the handle last published on e, or nil.
func (e *CacheEntry) Handle() any { return e.handle.Load() }

// SetHandle publishes h, which must not be nil, as e's handle. Every handle
// published on any entry must have one concrete type, as atomic.Value
// requires: only the head publishes them.
func (e *CacheEntry) SetHandle(h any) { e.handle.Store(h) }

// Get returns the entry cached under key, or nil.
func (c *SeriesCache) Get(key []byte) *CacheEntry { return c.entries[string(key)] }

// Put caches ls under key, which must not be cached yet, and returns the
// entry, unstamped.
func (c *SeriesCache) Put(key string, ls Labels) *CacheEntry {
	if c.entries == nil {
		c.entries = map[string]*CacheEntry{}
	}
	e := NewCacheEntry(ls)
	c.entries[key] = e
	return e
}

// Stamp records that the open round produced e.
func (c *SeriesCache) Stamp(e *CacheEntry) {
	if e.round != c.swept+1 {
		e.round = c.swept + 1
		c.live++
	}
}

// Len returns the number of cached keys.
func (c *SeriesCache) Len() int { return len(c.entries) }

// Sweep closes the open round. It evicts every entry the round did not
// stamp, and calls stale once for each stored set that the previous round
// produced and no surviving entry still produces: vanished bytes are not a
// vanished series, as one set may be spelled by several keys. A nil stale
// asks for no report. When the round stamped every entry it returns without
// walking the cache.
func (c *SeriesCache) Sweep(stale func(Labels)) {
	c.swept++
	round := c.swept
	if c.live == len(c.entries) {
		c.live = 0
		return
	}
	c.live = 0
	dead := c.dead[:0]
	for key, e := range c.entries {
		if e.round == round {
			continue
		}
		if stale != nil && e.round != 0 && e.round == round-1 {
			dead = append(dead, e)
		}
		delete(c.entries, key)
	}
	if len(dead) == 0 {
		return
	}
	// Match the survivors against the dead by hash, then by labels; a dead
	// entry a survivor still produces is restamped and so not reported.
	slices.SortFunc(dead, func(a, b *CacheEntry) int { return cmp.Compare(a.hash, b.hash) })
	for _, e := range c.entries {
		i, _ := slices.BinarySearchFunc(dead, e.hash, func(d *CacheEntry, h uint64) int { return cmp.Compare(d.hash, h) })
		for ; i < len(dead) && dead[i].hash == e.hash; i++ {
			if dead[i].Labels.Equal(e.Labels) {
				dead[i].round = round
			}
		}
	}
	for i, d := range dead {
		if d.round != round && !reported(dead[:i], d) {
			stale(d.Labels)
		}
	}
	clear(dead)
	c.dead = dead[:0]
}

// reported reports whether an entry of the hash-sorted prefix spells d's
// set, so that a set that vanished under two keys is reported once.
func reported(prefix []*CacheEntry, d *CacheEntry) bool {
	for j := len(prefix) - 1; j >= 0 && prefix[j].hash == d.hash; j-- {
		if prefix[j].Labels.Equal(d.Labels) {
			return true
		}
	}
	return false
}
