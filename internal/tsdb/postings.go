package tsdb

import (
	"slices"

	"repro/internal/labels"
)

// Matcher resolution over an inverted index, shared by the head's shards
// (uint64 series refs, mutable lists under the shard lock) and the blocks'
// immutable index (uint32 series positions): which matchers an index can
// answer, and the one intersection of the lists they yield.

// postingRef is what a postings list holds: an ascending series identifier.
type postingRef interface{ ~uint32 | ~uint64 }

// postingsFor splits ms into the postings lists that narrow a select, appended
// to lists (a stack buffer, so a narrow select allocates nothing per shard),
// and the matchers left to test on each survivor. An equality matcher on a
// non-empty value and a regexp that cannot match the empty string each
// contribute the list lookup returns for them (borrowed, never written); the
// rest — negations, and {name=""} or regexps matching "", which also match
// series lacking the label — are filters. ok is false when some list is empty,
// that is when nothing can match.
//
// Equalities on labels other than __name__ are looked up first, wherever
// they stand in ms: they are the selective ones (a job's uuid), so a shard
// holding none of a job's series answers after one lookup instead of after
// finding the name's list for nothing.
func postingsFor[T postingRef](lists [][]T, ms []*labels.Matcher, lookup func(*labels.Matcher) []T) (_ [][]T, filters []*labels.Matcher, ok bool) {
	for pass := 0; pass < 2; pass++ {
		for _, m := range ms {
			eq := m.Type == labels.MatchEqual && m.Value != ""
			if early := eq && m.Name != labels.MetricName; early != (pass == 0) {
				continue
			}
			if !eq && !(m.Type == labels.MatchRegexp && !m.Matches("")) {
				filters = append(filters, m)
				continue
			}
			list := lookup(m)
			if len(list) == 0 {
				return nil, nil, false
			}
			lists = append(lists, list)
		}
	}
	return lists, filters, true
}

// intersectPostings calls yield, in ascending order, with every ref present
// in all of the ascending lists (at least one), until yield returns false.
// The shortest list is walked and each ref sought in the others by galloping
// from where the previous seek ended, so the walk costs at most the shortest
// list times the log of the others. It reorders and reslices lists.
func intersectPostings[T postingRef](lists [][]T, yield func(T) bool) {
	slices.SortFunc(lists, func(a, b []T) int { return len(a) - len(b) })
next:
	for _, ref := range lists[0] {
		for k := 1; k < len(lists); k++ {
			rest := lists[k][seekPosting(lists[k], ref):]
			lists[k] = rest
			if len(rest) == 0 {
				return
			}
			if rest[0] != ref {
				continue next
			}
		}
		if !yield(ref) {
			return
		}
	}
}

// seekPosting returns the first index of the ascending list whose ref is
// >= ref (len(list) when none is), galloping from the front so a seek that
// lands near the previous one costs O(log distance).
func seekPosting[T postingRef](list []T, ref T) int {
	hi := 1
	for hi <= len(list) && list[hi-1] < ref {
		hi <<= 1
	}
	lo := hi >> 1 // everything before lo is < ref
	if hi > len(list) {
		hi = len(list)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid] < ref {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// unionPostings merges the lists of the values of one label a regexp
// accepts. A series has one value per label, so the lists are disjoint: a
// single one is returned borrowed, several are copied out and sorted.
func unionPostings[T postingRef](parts [][]T) []T {
	switch len(parts) {
	case 0:
		return nil
	case 1:
		return parts[0]
	}
	n := 0
	for _, l := range parts {
		n += len(l)
	}
	out := make([]T, 0, n)
	for _, l := range parts {
		out = append(out, l...)
	}
	slices.Sort(out)
	return out
}
