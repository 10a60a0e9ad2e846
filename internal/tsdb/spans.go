package tsdb

// Interval arithmetic for resolution selection (planParts): each resolution
// claims the sub-intervals of the read's window that no preferred (coarser)
// one already covers, so raw and downsampled siblings never serve the same
// timestamp twice.

// span is a closed timestamp interval [lo, hi], Unix ms.
type span struct{ lo, hi int64 }

// addSpan inserts sp into a sorted, disjoint span set, merging overlaps
// and adjacency (hi+1 == lo) so the set stays minimal.
func addSpan(set []span, sp span) []span {
	out := make([]span, 0, len(set)+1)
	placed := false
	for _, s := range set {
		switch {
		case s.hi < sp.lo-1: // strictly before sp, not adjacent
			out = append(out, s)
		case sp.hi < s.lo-1: // strictly after sp
			if !placed {
				out = append(out, sp)
				placed = true
			}
			out = append(out, s)
		default: // overlap or adjacency: fold into sp
			if s.lo < sp.lo {
				sp.lo = s.lo
			}
			if s.hi > sp.hi {
				sp.hi = s.hi
			}
		}
	}
	if !placed {
		out = append(out, sp)
	}
	return out
}

// subtractSpans returns the parts of sp not covered by the sorted,
// disjoint set, in ascending order.
func subtractSpans(sp span, set []span) []span {
	var out []span
	lo := sp.lo
	for _, s := range set {
		if s.hi < lo {
			continue
		}
		if s.lo > sp.hi {
			break
		}
		if s.lo > lo {
			out = append(out, span{lo, s.lo - 1})
		}
		if s.hi >= lo {
			lo = s.hi + 1
		}
		if lo > sp.hi {
			return out
		}
	}
	if lo <= sp.hi {
		out = append(out, span{lo, sp.hi})
	}
	return out
}
