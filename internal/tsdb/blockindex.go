package tsdb

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/labels"
)

// blockIndex is a block's inverted index, built once when the block is
// opened and immutable afterwards. It is not on disk: the index file is
// decoded whole at every open, and decoding it already tells every label
// pair apart, so a postings section there would be read only to be rebuilt.
//
// The block's distinct label pairs are numbered in label order — by name,
// then value — and a series keeps its labels as those numbers (pair ids,
// seriesTable.ids), so a block holds each pair once however many series
// carry it. Name k's pairs are ids first[k]:first[k+1], pair id's value is
// values[id], and its series are refs[starts[id]:starts[id+1]] — positions
// into PersistentBlock.series, ascending. One flat array holds every list,
// so a label with a value per job (uuid) costs its value's string header and
// four bytes of offset per value, no map bucket or slice header. series is
// label-sorted, so ascending positions are label order; and as a series'
// labels are sorted by name, its pair ids ascend, and two series of one
// block compare as their pair ids do.
type blockIndex struct {
	names  []string // sorted
	first  []uint32 // len(names)+1 offsets into values
	values []string // by pair id
	starts []uint32 // len(values)+1 offsets into refs
	refs   []uint32
}

// newBlockIndex numbers the pairs decodeIndex told apart — pairs, in the
// order series first showed them, counts the series carrying each — in label
// order, renumbers t.ids to those numbers, and fills each pair's list with
// the positions of its series.
func newBlockIndex(t *seriesTable, pairs []labels.Label, counts []uint32) *blockIndex {
	order := make([]uint32, len(pairs)) // id -> decode-order id
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int {
		if c := strings.Compare(pairs[a].Name, pairs[b].Name); c != 0 {
			return c
		}
		return strings.Compare(pairs[a].Value, pairs[b].Value)
	})
	ix := &blockIndex{
		values: make([]string, len(pairs)),
		starts: make([]uint32, len(pairs)+1),
		refs:   make([]uint32, len(t.ids)),
	}
	renumber := make([]uint32, len(pairs)) // decode-order id -> id
	off := uint32(0)
	for id, was := range order {
		p := pairs[was]
		if id == 0 || p.Name != ix.names[len(ix.names)-1] {
			ix.names = append(ix.names, p.Name)
			ix.first = append(ix.first, uint32(id))
		}
		ix.values[id], ix.starts[id] = p.Value, off
		renumber[was] = uint32(id)
		off += counts[was]
	}
	ix.starts[len(pairs)] = off
	ix.names, ix.first = slices.Clip(ix.names), slices.Clip(append(ix.first, uint32(len(pairs))))
	cursor := order // where each pair's next position goes, by id
	copy(cursor, ix.starts)
	for pos := range t.series {
		ids := t.pairsOf(uint32(pos))
		for j, was := range ids {
			id := renumber[was]
			ids[j] = id
			ix.refs[cursor[id]] = uint32(pos)
			cursor[id]++
		}
	}
	return ix
}

// pairRange returns the ids of name's pairs, empty when no series has it.
func (ix *blockIndex) pairRange(name string) (lo, hi uint32) {
	if k, ok := slices.BinarySearch(ix.names, name); ok {
		return ix.first[k], ix.first[k+1]
	}
	return 0, 0
}

// labelValues returns the sorted distinct values of name, borrowed.
func (ix *blockIndex) labelValues(name string) []string {
	lo, hi := ix.pairRange(name)
	if lo == hi {
		return nil
	}
	return ix.values[lo:hi:hi]
}

// postings returns the positions of the series whose label m.Name has a
// value m accepts; m is an equality or a regexp that cannot match "".
func (ix *blockIndex) postings(m *labels.Matcher) []uint32 {
	lo, hi := ix.pairRange(m.Name)
	values := ix.values[lo:hi]
	list := func(k int) []uint32 {
		id := lo + uint32(k)
		return ix.refs[ix.starts[id]:ix.starts[id+1]]
	}
	if m.Type == labels.MatchEqual {
		if k, ok := slices.BinarySearch(values, m.Value); ok {
			return list(k)
		}
		return nil
	}
	var parts [][]uint32
	if alts := m.SetMatches(); alts != nil {
		for _, v := range alts {
			if k, ok := slices.BinarySearch(values, v); ok {
				parts = append(parts, list(k))
			}
		}
	} else {
		for k, v := range values {
			if m.Matches(v) {
				parts = append(parts, list(k))
			}
		}
	}
	return unionPostings(parts)
}

// pairFilter is a matcher that postings did not narrow by, resolved against
// one block's pairs: the series' value of m.Name is that of its pair among
// ids [lo, hi), or "" when it has none.
type pairFilter struct {
	m      *labels.Matcher
	lo, hi uint32
}

// filters resolves ms against ix, onto dst.
func (ix *blockIndex) filters(dst []pairFilter, ms []*labels.Matcher) []pairFilter {
	for _, m := range ms {
		lo, hi := ix.pairRange(m.Name)
		dst = append(dst, pairFilter{m: m, lo: lo, hi: hi})
	}
	return dst
}

// matches reports whether the series of pair ids ids satisfies every filter,
// as labels.MatchLabels does its label set.
func (ix *blockIndex) matches(ids []uint32, fs []pairFilter) bool {
	for _, f := range fs {
		v := ""
		for _, id := range ids {
			if id >= f.lo {
				if id < f.hi {
					v = ix.values[id]
				}
				break
			}
		}
		if !f.m.Matches(v) {
			return false
		}
	}
	return true
}

// appendLabels appends the labels of the series of pair ids ids to dst.
func (ix *blockIndex) appendLabels(dst labels.Labels, ids []uint32) labels.Labels {
	v, k := labelView{ids: ids, ix: ix}, 0
	for j := range ids {
		dst = append(dst, v.at(j, &k))
	}
	return dst
}

// labelView is one series' label set as its source keeps it: a head series'
// labels, or a block series' pair ids and the index that names them. Reads
// and the compaction walk order and join series through it, so that no
// block series' label set is built to be compared.
type labelView struct {
	ls  labels.Labels
	ids []uint32
	ix  *blockIndex
}

func (v labelView) len() int {
	if v.ix == nil {
		return len(v.ls)
	}
	return len(v.ids)
}

// at returns label j; k is the index of the name of label j-1's pair, or 0,
// and is advanced to label j's.
func (v labelView) at(j int, k *int) labels.Label {
	if v.ix == nil {
		return v.ls[j]
	}
	id := v.ids[j]
	for v.ix.first[*k+1] <= id {
		*k++
	}
	return labels.Label{Name: v.ix.names[*k], Value: v.ix.values[id]}
}

// compareLabels orders label views as labels.Compare orders the label sets
// they stand for.
func compareLabels(a, b labelView) int {
	switch {
	case a.ix != nil && a.ix == b.ix:
		return slices.Compare(a.ids, b.ids)
	case a.ix == nil && b.ix == nil:
		return labels.Compare(a.ls, b.ls)
	}
	n := min(a.len(), b.len())
	var ka, kb int
	for j := 0; j < n; j++ {
		la, lb := a.at(j, &ka), b.at(j, &kb)
		if la.Name != lb.Name {
			return strings.Compare(la.Name, lb.Name)
		}
		if la.Value != lb.Value {
			return strings.Compare(la.Value, lb.Value)
		}
	}
	return cmp.Compare(a.len(), b.len())
}

// equalLabels reports whether two label views stand for equal label sets.
func equalLabels(a, b labelView) bool {
	return a.len() == b.len() && compareLabels(a, b) == 0
}
