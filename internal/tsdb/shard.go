package tsdb

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/labels"
)

// headShard is one lock stripe of the head: an independent series map,
// inverted postings index and retention state guarded by its own RWMutex.
// A series is owned by exactly one shard (labels hash & mask), so appends
// and deletes never take more than one shard lock.
type headShard struct {
	mu      sync.RWMutex
	series  map[uint64][]*memSeries // labels hash -> collision chain
	byRef   map[uint64]*memSeries
	nextRef uint64
	// postings: label name -> value -> ascending shard-local series refs.
	// Refs are handed out monotonically, so registering a series appends.
	// A list is only ever read or rewritten under mu and never leaves it.
	postings map[string]map[string][]uint64
	// values holds each name's keys of postings, sorted, and names the keys
	// of postings, sorted: kept in step with postings under mu, so a label
	// read copies a list and sorts nothing.
	values map[string][]string
	names  []string

	// Time bounds and sample counter, updated off the lock path.
	minTime  atomic.Int64 // smallest timestamp currently retained (approx)
	maxTime  atomic.Int64 // largest appended timestamp
	appended atomic.Uint64

	// wal is the shard's journal; nil for memory-only heads. Set once by
	// Open before the DB is shared, never mutated afterwards.
	wal *shardWAL
	// kept is the head's merged label lists, told of every change to
	// values and names under mu.
	kept *keptLabels
}

func newHeadShard(kept *keptLabels) *headShard {
	sh := &headShard{
		series:   make(map[uint64][]*memSeries),
		byRef:    make(map[uint64]*memSeries),
		postings: make(map[string]map[string][]uint64),
		values:   make(map[string][]string),
		kept:     kept,
	}
	sh.minTime.Store(int64(1) << 62)
	sh.maxTime.Store(-(int64(1) << 62))
	return sh
}

// noteAppend widens the shard time bounds to [mint, maxt] and counts n
// appended samples, using CAS loops so the hot append path takes no shard
// lock.
func (sh *headShard) noteAppend(mint, maxt int64, n uint64) {
	for {
		cur := sh.minTime.Load()
		if mint >= cur || sh.minTime.CompareAndSwap(cur, mint) {
			break
		}
	}
	for {
		cur := sh.maxTime.Load()
		if maxt <= cur || sh.maxTime.CompareAndSwap(cur, maxt) {
			break
		}
	}
	sh.appended.Add(n)
}

// lookupLocked finds an existing series; the caller holds sh.mu (either mode).
func (sh *headShard) lookupLocked(hash uint64, lset labels.Labels) *memSeries {
	for _, s := range sh.series[hash] {
		if s.lset.Equal(lset) {
			return s
		}
	}
	return nil
}

// getOrCreate returns the series for lset, creating it on first use.
func (sh *headShard) getOrCreate(hash uint64, lset labels.Labels) *memSeries {
	sh.mu.RLock()
	s := sh.lookupLocked(hash, lset)
	sh.mu.RUnlock()
	if s != nil {
		return s
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.getOrCreateLocked(hash, lset, false)
}

// getOrCreateLocked is getOrCreate under an already-held write lock. A
// series it creates keeps a copy of lset, or, with adopt, lset itself: an
// immutable set, a labels.CacheEntry's, which the head and the cache then
// share.
func (sh *headShard) getOrCreateLocked(hash uint64, lset labels.Labels, adopt bool) *memSeries {
	if s := sh.lookupLocked(hash, lset); s != nil { // re-check under write lock
		return s
	}
	if adopt {
		lset = slices.Clip(lset)
	} else {
		lset = lset.Copy()
	}
	sh.nextRef++
	s := &memSeries{ref: sh.nextRef, lset: lset}
	sh.series[hash] = append(sh.series[hash], s)
	sh.byRef[s.ref] = s
	for _, l := range s.lset {
		vm, ok := sh.postings[l.Name]
		if !ok {
			vm = make(map[string][]uint64)
			sh.postings[l.Name] = vm
			sh.names = insertSorted(sh.names, l.Name)
			sh.kept.names.add(l.Name)
		}
		list, ok := vm[l.Value]
		if !ok {
			sh.values[l.Name] = insertSorted(sh.values[l.Name], l.Value)
			sh.kept.addedValue(l.Name, l.Value)
		}
		vm[l.Value] = append(list, s.ref)
	}
	return s
}

// selectLocked appends the shard's series satisfying all matchers to dst —
// in ref order when a postings list narrows the match, in no order
// otherwise. The caller holds sh.mu (either mode). Matchers become lists and
// filters by the rules of postingsFor; lists are borrowed in place and only
// the survivors of their intersection are materialised.
func (sh *headShard) selectLocked(dst []*memSeries, ms []*labels.Matcher) []*memSeries {
	var buf [4][]uint64
	lists, filters, ok := postingsFor(buf[:0], ms, sh.matcherPostings)
	if !ok {
		return dst
	}
	if len(lists) == 0 {
		// Nothing to narrow with: scan every series.
		dst = slices.Grow(dst, len(sh.byRef))
		for _, s := range sh.byRef {
			if labels.MatchLabels(s.lset, filters...) {
				dst = append(dst, s)
			}
		}
		return dst
	}
	shortest := slices.MinFunc(lists, func(a, b []uint64) int { return len(a) - len(b) })
	dst = slices.Grow(dst, len(shortest))
	intersectPostings(lists, func(ref uint64) bool {
		if s := sh.byRef[ref]; labels.MatchLabels(s.lset, filters...) {
			dst = append(dst, s)
		}
		return true
	})
	return dst
}

// matcherPostings returns the refs of the series whose label m.Name has a
// value m accepts; m is an equality or a regexp that cannot match "". A
// regexp tests the sorted values, as a block's index does.
func (sh *headShard) matcherPostings(m *labels.Matcher) []uint64 {
	vm := sh.postings[m.Name]
	if m.Type == labels.MatchEqual {
		return vm[m.Value]
	}
	var parts [][]uint64
	if alts := m.SetMatches(); alts != nil {
		for _, v := range alts {
			if l := vm[v]; len(l) > 0 {
				parts = append(parts, l)
			}
		}
	} else {
		for _, v := range sh.values[m.Name] {
			if m.Matches(v) {
				parts = append(parts, vm[v])
			}
		}
	}
	return unionPostings(parts)
}

// truncate drops chunks entirely before mint, the open one too, and removes
// series left empty and silent since before mint, returning the number
// removed. A series that went silent before filling its open chunk, as a
// short unit's does, therefore leaves the head once retention passes its
// last sample, not only by a delete.
func (sh *headShard) truncate(mint int64) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var gone []*memSeries
	for _, chain := range sh.series {
		for _, s := range chain {
			s.mu.Lock()
			kept := s.chunks[:0]
			for _, cr := range s.chunks {
				if cr.max >= mint {
					kept = append(kept, cr)
				}
			}
			for i := len(kept); i < len(s.chunks); i++ {
				s.chunks[i] = nil
			}
			s.chunks = kept
			if s.head != nil && s.head.max < mint {
				s.head = nil
			}
			if len(s.ooo) > 0 {
				lo := sort.Search(len(s.ooo), func(i int) bool { return s.ooo[i].T >= mint })
				if lo > 0 {
					s.ooo = append(s.ooo[:0], s.ooo[lo:]...)
				}
				if len(s.ooo) == 0 {
					s.ooo = nil
				}
			}
			if len(s.chunks) == 0 && s.head == nil && s.lastT < mint && len(s.ooo) == 0 {
				gone = append(gone, s)
			}
			s.mu.Unlock()
		}
	}
	sh.removeLocked(gone)
	raiseTo(&sh.minTime, mint)
	return len(gone)
}

// deleteSeries removes the shard's series matching ms that a tombstone
// through maxt deletes, and returns them. Match and removal share one
// write-lock hold, so nothing can register or drop a series in between. A
// series dropped with samples past maxt, which the blocks keep, first raises
// whole past its newest sample (DB.WholeFrom).
func (sh *headShard) deleteSeries(ms []*labels.Matcher, maxt int64, whole *atomic.Int64) []*memSeries {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	gone := sh.selectLocked(nil, ms)
	kept := gone[:0]
	for _, s := range gone {
		if s.deletedBy(maxt) {
			kept = append(kept, s)
			s.mu.Lock()
			if s.hasAny && s.lastT > maxt { // out-of-order samples are older
				raiseTo(whole, s.lastT+1)
			}
			s.mu.Unlock()
		}
	}
	sh.removeLocked(kept)
	return kept
}

// removeLocked detaches gone from the shard — collision chains, byRef,
// postings and the sorted names and values — and marks each series dropped.
// Caller holds sh.mu (and the shard WAL mutex, when one exists). Every
// postings list a removed series sat in is rewritten once however many of
// its refs go: list and sorted dead set are merged by galloping each to the
// other's next ref, so a list costs the shorter of the two (times a log)
// plus moving its survivors down — a job's own one-ref list never walks the
// whole dead set, nor a few dead refs the whole of a long list. A value
// whose list empties leaves its name's sorted values, and a name whose map
// empties the sorted names: up to 16 values by binary search each, more by
// one pass per name that keeps what postings still holds, so a churn sweep
// does not move a long list once per value. Neither allocates. Every list
// that loses a string drops its kept merge (labellists.go).
func (sh *headShard) removeLocked(gone []*memSeries) {
	if len(gone) == 0 {
		return
	}
	dead := make([]uint64, len(gone))
	touched := make(map[labels.Label]struct{})
	for i, s := range gone {
		s.dropped = true
		dead[i] = s.ref
		delete(sh.byRef, s.ref)
		h := s.lset.Hash()
		if chain := slices.DeleteFunc(sh.series[h], func(c *memSeries) bool { return c == s }); len(chain) > 0 {
			sh.series[h] = chain
		} else {
			delete(sh.series, h)
		}
		for _, l := range s.lset {
			touched[l] = struct{}{}
		}
	}
	slices.Sort(dead)
	var buf [16]labels.Label
	emptied, many := buf[:0], false // values whose list emptied, while few
	for l := range touched {
		vm := sh.postings[l.Name]
		rest, d := vm[l.Value], dead
		keep := rest[:0]
		for len(rest) > 0 {
			if d = d[seekPosting(d, rest[0]):]; len(d) == 0 {
				break
			}
			i := seekPosting(rest, d[0]) // rest[:i] survives: it precedes the next dead ref
			keep = append(keep, rest[:i]...)
			if rest = rest[i:]; len(rest) > 0 && rest[0] == d[0] {
				rest, d = rest[1:], d[1:]
			}
		}
		keep = append(keep, rest...)
		if len(keep) > 0 {
			vm[l.Value] = keep
			continue
		}
		delete(vm, l.Value)
		switch {
		case len(vm) == 0:
			delete(sh.postings, l.Name)
			delete(sh.values, l.Name)
			sh.names = deleteSorted(sh.names, l.Name)
			sh.kept.names.drop()
			sh.kept.removedValue(l.Name)
		case len(emptied) < cap(emptied):
			emptied = append(emptied, l)
		default:
			many = true
		}
	}
	if !many {
		for _, l := range emptied {
			if values, ok := sh.values[l.Name]; ok { // its name may have gone since
				sh.values[l.Name] = deleteSorted(values, l.Value)
				sh.kept.removedValue(l.Name)
			}
		}
		return
	}
	for name, values := range sh.values {
		if vm := sh.postings[name]; len(vm) < len(values) {
			sh.values[name] = slices.DeleteFunc(values, func(v string) bool { _, ok := vm[v]; return !ok })
			sh.kept.removedValue(name)
		}
	}
}

// insertSorted inserts v, absent from the ascending list, at its place.
func insertSorted(list []string, v string) []string {
	i, _ := slices.BinarySearch(list, v)
	return slices.Insert(list, i, v)
}

// deleteSorted removes v from the ascending list, if it is there.
func deleteSorted(list []string, v string) []string {
	if i, ok := slices.BinarySearch(list, v); ok {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// labelValues returns a copy of the shard's sorted distinct values of a
// label name.
func (sh *headShard) labelValues(name string) []string {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return slices.Clone(sh.values[name])
}

// labelNames returns a copy of the shard's sorted label names in use.
func (sh *headShard) labelNames() []string {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return slices.Clone(sh.names)
}

// shardStats is the per-shard contribution to Stats.
type shardStats struct {
	numSeries     int
	bytesInChunks int
}

func (sh *headShard) stats() shardStats {
	sh.mu.RLock()
	series := make([]*memSeries, 0, len(sh.byRef))
	for _, s := range sh.byRef {
		series = append(series, s)
	}
	st := shardStats{numSeries: len(sh.byRef)}
	sh.mu.RUnlock()
	for _, s := range series {
		s.mu.Lock()
		for _, cr := range s.chunks {
			st.bytesInChunks += len(cr.chunk.Bytes())
		}
		if s.head != nil {
			st.bytesInChunks += len(s.head.chunk.Bytes())
		}
		s.mu.Unlock()
	}
	return st
}
