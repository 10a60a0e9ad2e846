// Package querycache is the range-query result cache of the promapi front
// end — the stack's only response cache; the CEEMS load balancer in front
// of it authorizes and proxies, and caches nothing. Grafana dashboards
// re-issue the same PromQL range queries every refresh against a head that
// advanced only a few scrape intervals; this package turns that repeat
// traffic from O(window) re-evaluation into O(1) lookups (exact repeats) or
// O(delta) incremental work (overlapping windows, see RangeQuery's splice
// path).
//
// # Structure
//
// The cache is lock-striped like the TSDB head: a power-of-two number of
// shards, each an independent mutex + map + cost-based LRU list, with
// entries routed by FNV-1a hash of their key. The total byte budget is
// divided evenly across shards; inserting over budget evicts from that
// shard's LRU tail. Two entry kinds share the striping:
//
//   - range entries: immutable promql.Matrix results on a step grid,
//     reusable incrementally (RangeQuery),
//   - negative entries: the engine limit error a range window tripped,
//     replayed under the same staleness contract (RangeQuery).
//
// Instant queries are not cached: a dashboard's stat panel asks at a new
// time=now on every refresh, so an entry keyed by its timestamp would
// almost never be asked for again.
//
// # Staleness contract
//
// PromQL entries record the head's append progress at fill time: the
// MaxTime watermark, the AppendEpoch sample counter and the MutationGen
// destructive-op counter (see Head). A cached step at time t is served
// only when it is provably unchanged:
//
//   - gen mismatch (a DeleteSeries ran): the entry is dropped entirely;
//   - epoch unchanged (no sample landed since fill): every cached step is
//     valid, including steps that were still mutable at fill;
//   - epoch advanced: only steps with t strictly below the fill-time
//     MaxTime are served — their read windows were complete when
//     evaluated. The step AT the watermark is mutable: appends can land at
//     MaxTime itself (the scrape pass commits metric samples and then
//     synthetics at the same timestamp, and parallel targets can share a
//     millisecond), so a fill racing between two same-timestamp commits
//     may hold a partial boundary step. Mutable steps are re-evaluated,
//     never served stale.
//
// The settled rule assumes appends never land strictly behind the global
// MaxTime watermark; landing AT the watermark is fine, per the strict
// inequality above. The scrape pipeline satisfies this (timestamps are
// non-decreasing: each scrape batch carries one timestamp >= every
// earlier one). Heads that accept bounded out-of-order appends declare it
// by implementing OutOfOrderWindow() int64 (tsdb.DB and the cluster ring
// do): the cache widens the mutable tail by that window, serving only
// steps strictly below fillMax − window. That is sound because an
// accepted out-of-order sample must land above (head MaxTime − window) at
// commit time, and the fill-time watermark is never ahead of the
// commit-time one. Deployments appending behind even that window (bulk
// backfill) should disable the cache or accept staleness bounded by the
// lag.
// Entries also never serve steps whose padded read
// window reaches below the head's pruned watermark (PrunedThrough), so
// results cannot resurrect data that retention already removed.
//
// # Shared, read-only answers
//
// Cached PromQL results are shared, not copied. A miss stores the
// evaluator's matrix as it is and returns it; a hit returns the entry's own
// arrays; a splice merges into one new sample slab, keeps the parts' label
// sets, stores the result and returns it. Everything an answer
// reaches — samples, label sets, renderings — is read-only for every caller.
// Paranoid mode enforces this: put checksums each entry and every lookup
// re-checks it, so a caller's write fails the next query on that entry
// instead of being silently served.
//
// A range entry is rendered on its first reuse (RangeQuery's render): each
// series keeps its samples' wire bytes next to its matrix, one offset per
// sample. A hit writes the kept bytes; a splice copies the bytes of the steps
// it keeps and renders only the steps it evaluated. A cold miss renders
// nothing, so a query asked once costs what it did uncached.
package querycache

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"sync"
	"time"

	"repro/internal/labels"
	"repro/internal/promql"
	"repro/internal/telemetry"
)

// Head reports the head's append progress; *tsdb.DB implements it. The
// cache uses it to decide which cached steps are still provably correct.
type Head interface {
	// MaxTime returns the latest appended timestamp, or false when empty.
	MaxTime() (int64, bool)
	// PrunedThrough returns the highest retention cutoff ever applied —
	// samples below it may be gone, samples at or above it are untouched —
	// or false when nothing was ever pruned.
	PrunedThrough() (int64, bool)
	// AppendEpoch returns a counter that advances on every appended sample.
	AppendEpoch() uint64
	// MutationGen returns a counter that advances on destructive operations
	// (series deletion); any change invalidates every PromQL entry.
	MutationGen() uint64
}

// DefaultMaxBytes is the byte budget used when Options.MaxBytes is unset.
const DefaultMaxBytes = 64 << 20

// Options configure a Cache.
type Options struct {
	// MaxBytes is the total byte budget across all shards; <= 0 picks
	// DefaultMaxBytes.
	MaxBytes int64
	// Shards is the number of lock stripes, rounded up to a power of two;
	// <= 0 picks 16.
	Shards int
	// Head supplies append progress. Required: without it RangeQuery
	// evaluates every request cold and stores nothing.
	Head Head
	// Lookback must match the evaluating engine's LookbackDelta; it is part
	// of every PromQL key and of the padding used for the retention floor.
	Lookback time.Duration
	// MaxSteps must match the evaluating engine's MaxSteps; range requests
	// beyond it bypass the cache so the engine's step guardrail fires
	// exactly as it would uncached — splicing must never assemble a window
	// the engine would refuse to evaluate. 0 picks promql.DefaultMaxSteps.
	// (Oversized results are additionally bounded by the byte budget: an
	// entry larger than one shard's share is never stored.)
	MaxSteps int
	// Paranoid re-runs the cold evaluation after every splice and fails the
	// query if the spliced result or its rendering is not byte-identical,
	// and checksums every PromQL entry at put and re-checks it at every
	// lookup, failing the query when a caller wrote to a shared answer — the
	// always-on test oracle. Production paths leave it off.
	Paranoid bool
	// Clock is never read: no entry expires on a clock.
	//
	// Deprecated: kept for bench/ until T2 (ROADMAP U).
	Clock func() time.Time
	// Telemetry, when set, registers the cache's counters and occupancy
	// gauges on this registry; the /api/v1/status/querycache JSON and the
	// /metrics exposition then read the very same instruments and can never
	// disagree. Nil keeps the counters private to Stats().
	Telemetry *telemetry.Registry
	// Name labels the telemetry series (`cache="<name>"`) so multiple
	// caches in one process stay distinguishable; empty picks "default".
	Name string
}

// Outcome classifies how a lookup was served.
type Outcome string

const (
	// OutcomeHit: served entirely from cache, no evaluation.
	OutcomeHit Outcome = "hit"
	// OutcomeMiss: no reusable entry; evaluated cold and stored.
	OutcomeMiss Outcome = "miss"
	// OutcomeSplice: cached steps reused, only the uncovered remainder
	// evaluated.
	OutcomeSplice Outcome = "splice"
	// OutcomeBypass: the cache did not apply (no head, unparseable query,
	// degenerate window); evaluated cold, nothing stored.
	OutcomeBypass Outcome = "bypass"
)

// Stats is a point-in-time counter snapshot, JSON-shaped for the
// /api/v1/status/querycache endpoint.
type Stats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Splices       uint64 `json:"splices"`
	SpliceFails   uint64 `json:"spliceFails"` // paranoid-mode mismatches
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	Coalesced     uint64 `json:"coalesced"` // waited behind an identical in-flight eval
	NegHits       uint64 `json:"negHits"`   // limit errors replayed from cache
	NegStores     uint64 `json:"negStores"` // limit errors cached
	Entries       int    `json:"entries"`
	Bytes         int64  `json:"bytes"`
	MaxBytes      int64  `json:"maxBytes"`
	Shards        int    `json:"shards"`
}

// Cache is the sharded, memory-bounded result cache. All methods are safe
// for concurrent use. The zero value is not usable; call New.
type Cache struct {
	opts   Options
	shards []*cacheShard
	mask   uint64

	// flights collapses concurrent cold evaluations of one key into a
	// single backend call (see singleflight.go).
	flights flightGroup

	// oooWindow widens the mutable tail for heads that accept bounded
	// out-of-order appends (probed from Head at New; 0 for strict heads).
	oooWindow int64

	// Outcome counters are telemetry instruments (one atomic add each, same
	// cost as the atomic.Uint64 fields they replaced). When
	// Options.Telemetry is set they are registered there; otherwise they
	// live on a private registry and only Stats() sees them.
	hits          *telemetry.Counter
	misses        *telemetry.Counter
	splices       *telemetry.Counter
	spliceFails   *telemetry.Counter
	evictions     *telemetry.Counter
	invalidations *telemetry.Counter
	coalesced     *telemetry.Counter
	negHits       *telemetry.Counter
	negStores     *telemetry.Counter
}

// New returns a Cache with the given options.
func New(opts Options) *Cache {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	n := opts.Shards
	if n <= 0 {
		n = 16
	}
	p := 1
	for p < n {
		p <<= 1
	}
	n = p
	if opts.Lookback <= 0 {
		opts.Lookback = 5 * time.Minute
	}
	c := &Cache{opts: opts, shards: make([]*cacheShard, n), mask: uint64(n - 1)}
	if ow, ok := opts.Head.(interface{ OutOfOrderWindow() int64 }); ok {
		if w := ow.OutOfOrderWindow(); w > 0 {
			c.oooWindow = w
		}
	}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			budget:  opts.MaxBytes / int64(n),
			entries: make(map[string]*entry),
		}
	}
	c.instrument()
	return c
}

// instrument creates the outcome counters, on Options.Telemetry when set
// (exposing them at /metrics) or on a private registry otherwise.
func (c *Cache) instrument() {
	reg := c.opts.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	name := c.opts.Name
	if name == "" {
		name = "default"
	}
	lbl := []string{"cache", name}
	c.hits = reg.Counter("telemetry_querycache_hits_total",
		"Lookups served entirely from cache.", lbl...)
	c.misses = reg.Counter("telemetry_querycache_misses_total",
		"Lookups with no reusable entry (evaluated cold and stored).", lbl...)
	c.splices = reg.Counter("telemetry_querycache_splices_total",
		"Range lookups that reused cached steps and evaluated only the remainder.", lbl...)
	c.spliceFails = reg.Counter("telemetry_querycache_splice_fails_total",
		"Paranoid-mode failures: splice results that mismatched the cold evaluation, entries changed after they were stored.", lbl...)
	c.evictions = reg.Counter("telemetry_querycache_evictions_total",
		"Entries evicted to stay inside the byte budget.", lbl...)
	c.invalidations = reg.Counter("telemetry_querycache_invalidations_total",
		"Entries dropped as stale (mutation gen change, stale limit error, purge).", lbl...)
	c.coalesced = reg.Counter("telemetry_querycache_coalesced_total",
		"Lookups that waited behind an identical in-flight evaluation.", lbl...)
	c.negHits = reg.Counter("telemetry_querycache_neg_hits_total",
		"Limit errors replayed from the negative cache.", lbl...)
	c.negStores = reg.Counter("telemetry_querycache_neg_stores_total",
		"Limit errors stored in the negative cache.", lbl...)
	reg.GaugeFunc("telemetry_querycache_entries",
		"Live cache entries across shards.",
		func() float64 {
			n := 0
			for _, sh := range c.shards {
				sh.mu.Lock()
				n += len(sh.entries)
				sh.mu.Unlock()
			}
			return float64(n)
		}, lbl...)
	reg.GaugeFunc("telemetry_querycache_bytes",
		"Bytes held across shards (byte budget in telemetry_querycache_max_bytes).",
		func() float64 {
			var b int64
			for _, sh := range c.shards {
				sh.mu.Lock()
				b += sh.bytes
				sh.mu.Unlock()
			}
			return float64(b)
		}, lbl...)
	reg.GaugeFunc("telemetry_querycache_max_bytes",
		"Configured byte budget.",
		func() float64 { return float64(c.opts.MaxBytes) }, lbl...)
}

// settledBefore returns the timestamp strictly below which steps filled at
// watermark fillMax are immutable: fillMax itself for strict heads, fillMax
// minus the out-of-order window when the head accepts bounded backwards
// appends. A MinInt64 fillMax (filled against an empty head) stays MinInt64
// — nothing was settled.
func (c *Cache) settledBefore(fillMax int64) int64 {
	if fillMax == math.MinInt64 {
		return fillMax
	}
	return fillMax - c.oooWindow
}

// Stats returns a snapshot of the cache counters and occupancy.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		Splices:       c.splices.Value(),
		SpliceFails:   c.spliceFails.Value(),
		Evictions:     c.evictions.Value(),
		Invalidations: c.invalidations.Value(),
		Coalesced:     c.coalesced.Value(),
		NegHits:       c.negHits.Value(),
		NegStores:     c.negStores.Value(),
		MaxBytes:      c.opts.MaxBytes,
		Shards:        len(c.shards),
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		st.Entries += len(sh.entries)
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}

// Purge drops every entry (counted as invalidations).
func (c *Cache) Purge() {
	for _, sh := range c.shards {
		sh.mu.Lock()
		n := len(sh.entries)
		sh.entries = make(map[string]*entry)
		sh.head, sh.tail = nil, nil
		sh.bytes = 0
		sh.mu.Unlock()
		c.invalidations.Add(uint64(n))
	}
}

// maxSteps returns the range-request size beyond which the cache steps
// aside (Options.MaxSteps, defaulted like the engine defaults).
func (c *Cache) maxSteps() int64 {
	if c.opts.MaxSteps > 0 {
		return int64(c.opts.MaxSteps)
	}
	return promql.DefaultMaxSteps
}

func (c *Cache) shardFor(key string) *cacheShard {
	return c.shards[fnv64a(key)&c.mask]
}

// fnv64a hashes the key with the same FNV-1a the TSDB head stripes by.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// entry kinds.
const (
	kindRange uint8 = iota
	// kindNegative caches a query-shaped failure (an engine *LimitError —
	// the API's 422): a panel that trips MaxSamples re-trips it on every
	// dashboard refresh, and the engine pays the full guardrail's worth of
	// work each time before erroring. Negative entries obey the same
	// staleness contract as positive ones — same fill-time watermark,
	// epoch and generation checks — so the error is only replayed while a
	// cold evaluation would provably fail identically.
	kindNegative
)

// entry is one cached result. Entries are immutable after insertion —
// updates replace the whole entry — so a pointer read under the shard lock
// can be dereferenced after releasing it.
type entry struct {
	key        string
	kind       uint8
	cost       int64
	prev, next *entry // LRU links; head = most recently used

	// Fill-time head state (range + negative kinds).
	fillMax   int64 // head MaxTime at fill; minInt64 when head was empty
	fillEpoch uint64
	fillGen   uint64

	// Range payload: matrix on the grid startMs, startMs+stepMs, ... lastMs,
	// and from its first reuse on the rendering of its samples.
	matrix          promql.Matrix
	rendered        rendering
	startMs, lastMs int64
	stepMs          int64

	// Negative payload: the limit error a cold evaluation of exactly the
	// window startMs..lastMs produced.
	negErr error

	// sum is checksum() at put, kept in Paranoid mode only.
	sum uint64
}

// cacheShard is one lock stripe: a map plus an intrusive LRU list with a
// byte budget.
type cacheShard struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[string]*entry
	head    *entry // most recently used
	tail    *entry // least recently used
}

// get returns the live entry for key, marking it most-recently-used.
func (sh *cacheShard) get(key string) *entry {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[key]
	if e != nil {
		sh.touchLocked(e)
	}
	return e
}

// put inserts e, replacing any entry under the same key, and evicts from
// the LRU tail while the shard exceeds its budget. It returns the number
// of entries evicted (not counting the replacement). Entries larger than
// the whole shard budget are not stored, and with replacing set neither is
// e unless replacing is still the entry under its key.
func (sh *cacheShard) put(e, replacing *entry) (evicted int, stored bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e.cost > sh.budget || (replacing != nil && sh.entries[e.key] != replacing) {
		return 0, false
	}
	if old := sh.entries[e.key]; old != nil {
		sh.removeLocked(old)
	}
	sh.entries[e.key] = e
	sh.pushFrontLocked(e)
	sh.bytes += e.cost
	for sh.bytes > sh.budget && sh.tail != nil && sh.tail != e {
		evicted++
		sh.removeLocked(sh.tail)
	}
	return evicted, true
}

// remove drops the entry under key if it is still the same pointer.
func (sh *cacheShard) remove(key string, e *entry) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur := sh.entries[key]; cur == e {
		sh.removeLocked(cur)
	}
}

func (sh *cacheShard) removeLocked(e *entry) {
	delete(sh.entries, e.key)
	sh.unlinkLocked(e)
	sh.bytes -= e.cost
}

func (sh *cacheShard) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if sh.head == e {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if sh.tail == e {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *cacheShard) pushFrontLocked(e *entry) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *cacheShard) touchLocked(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlinkLocked(e)
	sh.pushFrontLocked(e)
}

// put stores a PromQL entry (see cacheShard.put), checksummed in Paranoid
// mode.
func (c *Cache) put(sh *cacheShard, e, replacing *entry) {
	if c.opts.Paranoid {
		e.sum = e.checksum()
	}
	evicted, _ := sh.put(e, replacing)
	c.evictions.Add(uint64(evicted))
}

// lookup returns the PromQL entry under key, or nil. In Paranoid mode it
// first proves the entry unchanged since put; one that changed — a caller
// wrote to a shared answer — is dropped and fails the query.
func (c *Cache) lookup(sh *cacheShard, key string) (*entry, error) {
	e := sh.get(key)
	if e == nil || !c.opts.Paranoid || e.checksum() == e.sum {
		return e, nil
	}
	sh.remove(key, e)
	c.spliceFails.Add(1)
	return nil, fmt.Errorf("querycache: entry %q changed after it was stored: a caller wrote to a shared answer", key)
}

// sumSeed seeds every entry checksum of the process.
var sumSeed = maphash.MakeSeed()

// checksum hashes everything a PromQL entry hands out: label sets, sample
// times and value bits, and renderings.
func (e *entry) checksum() uint64 {
	var h maphash.Hash
	h.SetSeed(sumSeed)
	var w [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(w[:], x)
		h.Write(w[:])
	}
	labelSet := func(ls labels.Labels) {
		for _, l := range ls {
			h.WriteString(l.Name)
			h.WriteByte(0)
			h.WriteString(l.Value)
			h.WriteByte(0)
		}
	}
	for _, s := range e.matrix {
		labelSet(s.Labels)
		word(uint64(len(s.Samples)))
		for _, p := range s.Samples {
			word(uint64(p.T))
			word(math.Float64bits(p.V))
		}
	}
	h.Write(e.rendered.b)
	for _, o := range e.rendered.off {
		for _, x := range o {
			word(uint64(x))
		}
	}
	return h.Sum64()
}

// --- costing -------------------------------------------------------------

const entryOverhead = 128

func labelsCost(ls labels.Labels) int64 {
	n := int64(32)
	for _, l := range ls {
		n += int64(len(l.Name)+len(l.Value)) + 32
	}
	return n
}

func matrixCost(m promql.Matrix) int64 {
	n := int64(entryOverhead)
	for _, s := range m {
		n += labelsCost(s.Labels) + 16*int64(len(s.Samples)) + 48
	}
	return n
}
