package tsdb

import (
	"slices"
	"strings"

	"repro/internal/labels"
)

// blockIndex is a block's inverted index, built once when the block is
// opened and immutable afterwards. It is not on disk: the index file is
// decoded whole at every open, and decoding it already tells every label
// pair apart (labelPairs), so a postings section there would be read only to
// be rebuilt.
//
// Per label name the distinct values are kept sorted, and value k's series
// are refs[starts[k]:starts[k+1]] — positions into PersistentBlock.series,
// ascending. One flat array holds every list, so a label with a value per
// job (uuid) costs four bytes of offset per value and no map bucket or slice
// header. series is label-sorted, so ascending positions are label order.
type blockIndex struct {
	names  []string // sorted
	labels []labelPostings
	refs   []uint32
}

// labelPostings is one label name's part of a blockIndex.
type labelPostings struct {
	values []string // sorted, distinct
	starts []uint32 // len(values)+1 offsets into blockIndex.refs
}

// newBlockIndex lays the pairs decodeIndex numbered out by name, then
// value, and fills each pair's list with the positions of its series.
func newBlockIndex(series []blockSeries, lp *labelPairs) *blockIndex {
	pairs := lp.pairs
	order := make([]uint32, len(pairs))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int {
		if c := strings.Compare(pairs[a].Name, pairs[b].Name); c != 0 {
			return c
		}
		return strings.Compare(pairs[a].Value, pairs[b].Value)
	})
	ix := &blockIndex{refs: make([]uint32, len(lp.ids))}
	cursor := make([]uint32, len(pairs)) // where pair id's next position goes
	off := uint32(0)
	for lo := 0; lo < len(order); {
		hi := lo
		for hi < len(order) && pairs[order[hi]].Name == pairs[order[lo]].Name {
			hi++
		}
		l := labelPostings{values: make([]string, hi-lo), starts: make([]uint32, hi-lo+1)}
		for k, id := range order[lo:hi] {
			l.values[k], l.starts[k] = pairs[id].Value, off
			cursor[id] = off
			off += lp.counts[id]
		}
		l.starts[hi-lo] = off
		ix.names = append(ix.names, pairs[order[lo]].Name)
		ix.labels = append(ix.labels, l)
		lo = hi
	}
	ids := lp.ids
	for pos := range series {
		n := len(series[pos].lset)
		for _, id := range ids[:n] {
			ix.refs[cursor[id]] = uint32(pos)
			cursor[id]++
		}
		ids = ids[n:]
	}
	return ix
}

// labelValues returns the sorted distinct values of name, borrowed.
func (ix *blockIndex) labelValues(name string) []string {
	if i, ok := slices.BinarySearch(ix.names, name); ok {
		return ix.labels[i].values
	}
	return nil
}

// postings returns the positions of the series whose label m.Name has a
// value m accepts; m is an equality or a regexp that cannot match "".
func (ix *blockIndex) postings(m *labels.Matcher) []uint32 {
	i, ok := slices.BinarySearch(ix.names, m.Name)
	if !ok {
		return nil
	}
	lp := &ix.labels[i]
	list := func(k int) []uint32 { return ix.refs[lp.starts[k]:lp.starts[k+1]] }
	if m.Type == labels.MatchEqual {
		if k, ok := slices.BinarySearch(lp.values, m.Value); ok {
			return list(k)
		}
		return nil
	}
	var parts [][]uint32
	if alts := m.SetMatches(); alts != nil {
		for _, v := range alts {
			if k, ok := slices.BinarySearch(lp.values, v); ok {
				parts = append(parts, list(k))
			}
		}
	} else {
		for k, v := range lp.values {
			if m.Matches(v) {
				parts = append(parts, list(k))
			}
		}
	}
	return unionPostings(parts)
}
