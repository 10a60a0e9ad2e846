package model

import "repro/internal/labels"

// The one fan-in merge of the stack (docs/ARCHITECTURE.md, "One merge"):
// head shards, store blocks, the hot/cold seam, ring replicas and
// compaction inputs all hand in label-sorted parts and get one list back.

// MergeSorted merges parts, each ascending under cmp, into one ascending
// slice. Elements that compare equal keep part order (and their order
// inside a part). With a nil combine they are all kept — the caller knows
// keys are unique across parts. Otherwise every run of two or more equal
// elements is replaced by combine(run); run is in part order, aliases
// scratch memory and must not be retained. An element with no equal is
// passed through as it came.
//
// The parts are only read. The result is a new slice, except that a single
// non-empty part is returned itself.
//
// Cost is n·⌈log2 k⌉ comparisons for n elements in k non-empty parts (plus
// n to find the runs when combining): neighbouring parts are merged
// pairwise, round after round, between two buffers.
func MergeSorted[T any](parts [][]T, cmp func(a, b T) int, combine func(run []T) T) []T {
	n, live, last := 0, 0, 0
	for i, p := range parts {
		if len(p) > 0 {
			n, live, last = n+len(p), live+1, i
		}
	}
	switch live {
	case 0:
		return []T{}
	case 1:
		return parts[last] // the common narrow select: nothing allocated
	}
	runs := make([][]T, 0, live)
	for _, p := range parts {
		if len(p) > 0 {
			runs = append(runs, p)
		}
	}
	// Each round merges neighbouring runs into dst and leaves the runs it
	// read, which lie in the parts or in the other buffer, to be overwritten
	// by the round after.
	dst := make([]T, 0, n)
	var other []T
	if len(runs) > 2 {
		other = make([]T, 0, n)
	}
	for len(runs) > 1 {
		merged := runs[:0]
		for i := 0; i < len(runs); i += 2 {
			lo := len(dst)
			if i+1 < len(runs) {
				dst = mergeTwo(dst, runs[i], runs[i+1], cmp)
			} else {
				dst = append(dst, runs[i]...)
			}
			merged = append(merged, dst[lo:])
		}
		runs, dst, other = merged, other[:0], dst
	}
	out := runs[0]
	if combine == nil {
		return out
	}
	w := 0
	for i := 0; i < n; w++ {
		j := i + 1
		for j < n && cmp(out[i], out[j]) == 0 {
			j++
		}
		if j-i == 1 {
			out[w] = out[i]
		} else {
			out[w] = combine(out[i:j])
		}
		i = j
	}
	clear(out[w:])
	return out[:w]
}

// mergeTwo appends the stable merge of a and b to dst: on a tie a's element
// goes first.
func mergeTwo[T any](dst, a, b []T, cmp func(x, y T) int) []T {
	for len(a) > 0 && len(b) > 0 {
		if cmp(a[0], b[0]) <= 0 {
			dst = append(dst, a[0])
			a = a[1:]
		} else {
			dst = append(dst, b[0])
			b = b[1:]
		}
	}
	dst = append(dst, a...)
	return append(dst, b...)
}

// MergeSamples merges runs, each ascending with one sample per timestamp,
// into one such run. Where runs share a timestamp the earliest run's sample
// is kept. The runs are only read; a single non-empty run is returned
// itself, anything else is one new slice.
//
// Runs are folded in order into a buffer sized for all of them. A run that
// starts after everything before it ends is appended — time-disjoint runs,
// the shape of a read across consecutive blocks, are copied once. A run
// that reaches back is merged into the buffer in place.
func MergeSamples(runs [][]Sample) []Sample {
	rest := 0
	for _, r := range runs {
		rest += len(r)
	}
	var out []Sample
	owned := false // out is the buffer rather than one of the runs
	for _, r := range runs {
		switch {
		case len(r) == 0:
			continue
		case len(out) == 0:
			out, rest = r, rest-len(r)
			continue
		case !owned:
			out = append(make([]Sample, 0, len(out)+rest), out...)
			owned = true
		}
		if r[0].T > out[len(out)-1].T {
			out = append(out, r...)
		} else {
			out = MergeInto(out, r)
		}
	}
	return out
}

// MergeInto merges r into out in place, keeping out's sample on an equal
// timestamp; out has spare capacity for r, which does not lie in it. It fills
// the spare capacity from the back, so nothing is overwritten before it is
// read, then closes the gap the dropped duplicates left.
func MergeInto(out, r []Sample) []Sample {
	full := out[:len(out)+len(r)]
	i, j, w := len(out)-1, len(r)-1, len(full)
	for i >= 0 && j >= 0 {
		w--
		switch {
		case out[i].T > r[j].T:
			full[w] = out[i]
			i--
		case out[i].T < r[j].T:
			full[w] = r[j]
			j--
		default:
			full[w] = out[i]
			i--
			j--
		}
	}
	// Either r has samples left, all earlier than out's first, or out[:i+1]
	// is already in place.
	w -= j + 1
	copy(full[w:], r[:j+1])
	return full[:i+1+copy(full[i+1:], full[w:])]
}

// MergeSeries merges parts, each sorted by labels with one entry per label
// set, into one such list. A series found in one part only is passed
// through, its samples shared with that part; one found in several gets the
// MergeSamples of its runs, taken in part order.
func MergeSeries(parts [][]Series) []Series {
	var runs [][]Sample
	return MergeSorted(parts,
		func(a, b Series) int { return labels.Compare(a.Labels, b.Labels) },
		func(run []Series) Series {
			runs = runs[:0]
			for _, s := range run {
				runs = append(runs, s.Samples)
			}
			return Series{Labels: run[0].Labels, Samples: MergeSamples(runs)}
		})
}
