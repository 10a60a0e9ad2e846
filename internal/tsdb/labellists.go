package tsdb

// Label lists kept merged (docs/ARCHITECTURE.md, "Label lists kept merged"):
// the head keeps its label names, and the values of every name a read has
// asked for, merged across its shards, so a dashboard's variable lookup
// returns a list instead of merging one per shard.

import (
	"slices"
	"sync"
)

// keptLabels holds the head's merged label lists. Shards record what changes
// their own sorted lists under their write lock; a read takes no shard lock
// while it holds a kept list's.
type keptLabels struct {
	names  keptList
	values sync.Map // label name -> *keptList, stored at the name's first read
}

// valuesOf returns name's kept values list, or nil when no read asked for it.
func (k *keptLabels) valuesOf(name string) *keptList {
	if kl, ok := k.values.Load(name); ok {
		return kl.(*keptList)
	}
	return nil
}

// watchValues returns name's kept values list, adding an empty one.
func (k *keptLabels) watchValues(name string) *keptList {
	kl, _ := k.values.LoadOrStore(name, new(keptList))
	return kl.(*keptList)
}

// addedValue records that a shard's values of name gained v. A name no read
// has asked for costs the map lookup alone.
func (k *keptLabels) addedValue(name, v string) {
	if kl := k.valuesOf(name); kl != nil {
		kl.add(v)
	}
}

// removedValue records that a shard's values of name lost one.
func (k *keptLabels) removedValue(name string) {
	if kl := k.valuesOf(name); kl != nil {
		kl.drop()
	}
}

// keptList is one merged list kept between reads. While valid, list and
// added together are the union of the shards' lists; a removal makes it
// invalid, and the next read merges the shards' lists again. No merge runs
// under mu, so a writer recording a change never waits for one.
type keptList struct {
	mu       sync.Mutex
	gen      uint64   // counts the changes recorded, so a rebuild can tell one landed while it read
	installs uint64   // counts the lists installed, so a read can tell list and added were replaced while it merged
	valid    bool     // list and added are current
	list     []string // sorted; read-only once a read has returned it
	added    []string // what the shards gained since list was merged, in no order, repeats allowed; only appended to
}

// add records that a shard's list gained v. Once the additions outgrow half
// the list they are dropped with it: a name read once long ago does not
// collect every value since.
func (kl *keptList) add(v string) {
	kl.mu.Lock()
	kl.gen++
	if kl.valid {
		if len(kl.added) <= len(kl.list)/2+64 {
			kl.added = append(kl.added, v)
		} else {
			kl.valid, kl.list, kl.added = false, nil, nil
		}
	}
	kl.mu.Unlock()
}

// drop records that a shard's list lost a string.
func (kl *keptList) drop() {
	kl.mu.Lock()
	kl.gen++
	kl.valid, kl.list, kl.added = false, nil, nil
	kl.mu.Unlock()
}

// read returns the merged list, read-only. A current list without
// additions is returned as kept. With additions, they are merged into a copy
// outside mu, which replaces the kept list, and those additions, unless a
// read or a removal replaced them meanwhile. Otherwise merge builds the list
// from the shards, and it is kept unless a change landed meanwhile.
func (kl *keptList) read(merge func() []string) []string {
	kl.mu.Lock()
	if kl.valid {
		list, added, seen := kl.list, kl.added, kl.installs
		kl.mu.Unlock()
		if len(added) == 0 {
			return list
		}
		// Writers append past len(added) only, so this prefix holds still.
		list = insertAll(list, added)
		kl.mu.Lock()
		if kl.valid && kl.installs == seen {
			kl.list, kl.added = list, kl.added[len(added):]
			kl.installs++
		}
		kl.mu.Unlock()
		return list
	}
	gen := kl.gen
	kl.mu.Unlock()
	list := merge()
	kl.mu.Lock()
	if kl.gen == gen {
		kl.valid, kl.list = true, list
		kl.installs++
	}
	kl.mu.Unlock()
	return list
}

// insertAll returns a copy of the sorted list with added, in no order and
// with repeats, inserted where they belong; added is not written. The
// additions are copied to the end of the result and sorted there, then
// merged forward, a binary search each, with the runs of list between them
// copied whole: the merge never writes past the addition it has just read.
func insertAll(list, added []string) []string {
	out := make([]string, len(list)+len(added))
	tail := out[len(list):]
	copy(tail, added)
	slices.Sort(tail)
	out = out[:0]
	for _, v := range slices.Compact(tail) {
		i, found := slices.BinarySearch(list, v)
		out = append(out, list[:i]...)
		if list = list[i:]; !found {
			out = append(out, v)
		}
	}
	return append(out, list...)
}
