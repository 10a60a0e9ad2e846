package tsdb

// Interval arithmetic for resolution selection (planParts): each resolution
// claims the sub-intervals of the read's window that no preferred (coarser)
// one already covers, so raw and downsampled siblings never serve the same
// timestamp twice.

import "slices"

// span is a closed timestamp interval [lo, hi], Unix ms.
type span struct{ lo, hi int64 }

// addSpan inserts sp into a sorted, disjoint span set, merging overlaps
// and adjacency (hi+1 == lo) so the set stays minimal. The set is changed in
// place and grows only when it has no room.
func addSpan(set []span, sp span) []span {
	i := 0
	for i < len(set) && set[i].hi < sp.lo-1 { // strictly before sp, not adjacent
		i++
	}
	j := i
	for j < len(set) && !(sp.hi < set[j].lo-1) { // overlap or adjacency: fold into sp
		sp.lo, sp.hi = min(sp.lo, set[j].lo), max(sp.hi, set[j].hi)
		j++
	}
	return slices.Replace(set, i, j, sp)
}

// subtractSpans appends to dst the parts of sp not covered by the sorted,
// disjoint set, in ascending order.
func subtractSpans(dst []span, sp span, set []span) []span {
	lo := sp.lo
	for _, s := range set {
		if s.hi < lo {
			continue
		}
		if s.lo > sp.hi {
			break
		}
		if s.lo > lo {
			dst = append(dst, span{lo, s.lo - 1})
		}
		if s.hi >= lo {
			lo = s.hi + 1
		}
		if lo > sp.hi {
			return dst
		}
	}
	if lo <= sp.hi {
		dst = append(dst, span{lo, sp.hi})
	}
	return dst
}
