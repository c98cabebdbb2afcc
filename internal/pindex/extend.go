package pindex

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"lash/internal/hierarchy"
)

// Change is one pattern of a new version that differs from the earlier
// version Extend is given: a pattern that version lacks, or one of its
// patterns at another support.
type Change struct {
	// ID is the pattern's canonical id in the new version.
	ID uint32
	// Inserted marks a pattern the earlier version lacks. Any other change
	// gives the earlier version's pattern with the same items — the one at
	// the same place in canonical order — a new support.
	Inserted bool
	Pattern
}

// compactShare bounds an overlay: once it would hold more than 1/compactShare
// of its base's patterns, Extend makes a full index instead.
const compactShare = 4

// overlay is what an extension holds besides the base it shares. Its
// patterns (part) are the version's patterns that are new since the base or
// whose support differs from the base's, laid out as a full index would lay
// them out but over the merged vocabulary: part's canonical ids follow the
// version's canonical order, and ids maps them to it.
type overlay struct {
	base *Index // an index Build made; never an extension
	part *Index // the overlay's patterns; their item ids are merged vocabulary ids

	n           int      // patterns in the version
	ids         []uint32 // part canonical id → the version's canonical id, ascending
	ins         []uint32 // the version's canonical ids of the patterns base lacks, ascending
	mask        []uint64 // bit b: part replaces base pattern b
	maskedRanks []uint32 // base serving ranks of the replaced patterns, ascending
	maxLevel    int

	// The merged vocabulary: ids below len(base.names) are the base's, the
	// rest are names[id-len(base.names)]. level and up cover every id.
	names  []string
	byName map[string]uint32
	level  []int32
	up     []uint32
}

// entry is one pattern of an overlay under construction.
type entry struct {
	id      uint32 // canonical id in the new version
	from    int32  // the base pattern it replaces, or -1 for one the base lacks
	items   []uint32
	support int64
}

// Extend returns the index of a version whose patterns are prev's with
// changes applied: each Change with Inserted set is placed at its ID, and
// every other one replaces, at its ID, the support of prev's pattern with
// the same items; prev's other patterns keep their order around them.
// changes must be ascending by ID, and f is the version's forest, of which
// prev's is a prefix (Build's contract). The result shares prev's base and
// holds an overlay built in time and space proportional to the changes and
// prev's overlay, not to the version; prev is not modified, and stays valid.
// With no changes it returns prev; when the overlay would pass a fixed share
// of the base it returns a full index, as Build would make. An error means
// changes do not describe a successor of prev: an ID out of order or out of
// range, or a replacement whose items are not prev's at that place.
func Extend(prev *Index, changes []Change, f *hierarchy.Forest) (*Index, error) {
	if len(changes) == 0 {
		return prev, nil
	}
	base, old := prev.Base(), prev.ov
	inserted := 0
	for i, ch := range changes {
		if i > 0 && ch.ID <= changes[i-1].ID {
			return nil, fmt.Errorf("pindex: change %d: id %d after %d", i, ch.ID, changes[i-1].ID)
		}
		if ch.Inserted {
			inserted++
		}
	}
	n := prev.Len() + inserted
	if last := changes[len(changes)-1].ID; int(last) >= n {
		return nil, fmt.Errorf("pindex: change id %d past the version's %d patterns", last, n)
	}

	ov := &overlay{base: base, n: n}
	ov.vocabulary(old, changes, f)
	entries, err := ov.merge(old, changes)
	if err != nil {
		return nil, err
	}
	if len(entries)*compactShare > base.Len() {
		return ov.full(entries), nil
	}
	return ov.build(entries), nil
}

// vocabulary sets ov's merged vocabulary: old's (the base's when old is
// nil), plus the names inserted changes bring. It shares old's tables when
// no name is new, and copies them otherwise.
func (ov *overlay) vocabulary(old *overlay, changes []Change, f *hierarchy.Forest) {
	if old != nil {
		ov.names, ov.byName, ov.level, ov.up = old.names, old.byName, old.level, old.up
	} else {
		ov.level, ov.up = ov.base.level, ov.base.up
	}
	grown := false
	for _, ch := range changes {
		if !ch.Inserted {
			continue // a replacement's items are prev's: a name it does not know fails in merge
		}
		for _, name := range ch.Items {
			if _, ok := ov.vocabID(name); ok {
				continue
			}
			if !grown {
				grown = true
				ov.names = slices.Clone(ov.names)
				ov.byName = maps.Clone(ov.byName)
				if ov.byName == nil {
					ov.byName = make(map[string]uint32)
				}
				ov.level = slices.Clone(ov.level)
			}
			ov.byName[name] = uint32(len(ov.level))
			ov.names = append(ov.names, name)
			lvl := int32(0)
			if f != nil {
				if w, ok := f.Lookup(name); ok {
					lvl = int32(f.Level(w))
				}
			}
			ov.level = append(ov.level, lvl)
		}
	}
	if !grown {
		return
	}
	// A new name can be the indexed parent of any item, old or new.
	ov.up = make([]uint32, len(ov.level))
	for id := range ov.up {
		ov.up[id] = parentID(ov.name(uint32(id)), f, ov.vocabID)
	}
}

// vocabID returns name's merged vocabulary id.
func (ov *overlay) vocabID(name string) (uint32, bool) {
	if id, ok := ov.base.byName[name]; ok {
		return id, true
	}
	id, ok := ov.byName[name]
	return id, ok
}

// name returns the item name of merged vocabulary id w.
func (ov *overlay) name(w uint32) string {
	if nb := uint32(len(ov.base.names)); w >= nb {
		return ov.names[w-nb]
	}
	return ov.base.names[w]
}

// resolve appends the merged vocabulary ids of names to dst; ok is false
// when a name is not in the vocabulary.
func (ov *overlay) resolve(dst []uint32, names []string) ([]uint32, bool) {
	for _, name := range names {
		id, ok := ov.vocabID(name)
		if !ok {
			return nil, false
		}
		dst = append(dst, id)
	}
	return dst, true
}

var errNotSuccessor = errors.New("pindex: a change's items are not the earlier version's at its place")

// merge returns the new overlay's entries in canonical order: old's entries
// at their new ids, with changes applied — a change at an old entry's id
// replaces it, and one at a base pattern's id masks it. An entry whose
// support is back at its base pattern's is dropped: the base answers for it.
func (ov *overlay) merge(old *overlay, changes []Change) ([]entry, error) {
	// The new id of prev's pattern p is p plus the insertions placed before
	// it: those with at most p of prev's patterns ahead of them.
	var ins []uint32
	for _, ch := range changes {
		if ch.Inserted {
			ins = append(ins, ch.ID)
		}
	}
	j := 0
	next := func(p uint32) uint32 {
		for j < len(ins) && ins[j]-uint32(j) <= p {
			j++
		}
		return p + uint32(j)
	}
	var carried []entry
	if old != nil {
		carried = make([]entry, len(old.ids))
		for k, p := range old.ids {
			carried[k] = entry{id: next(p), from: old.from(k), items: old.part.items(uint32(k)), support: old.part.supports[k]}
		}
	}

	entries := make([]entry, 0, len(carried)+len(changes))
	scratch := make([]uint32, 0, 16)
	k, seen := 0, 0 // carried entries consumed, insertions passed
	for _, ch := range changes {
		for k < len(carried) && carried[k].id < ch.ID {
			entries = append(entries, carried[k])
			k++
		}
		e := entry{id: ch.ID, from: -1, support: ch.Support}
		switch {
		case ch.Inserted:
			seen++
			if k < len(carried) && carried[k].id == ch.ID {
				return nil, errNotSuccessor // the earlier version holds a pattern there
			}
			var ok bool
			if scratch, ok = ov.resolve(scratch[:0], ch.Items); !ok {
				return nil, errNotSuccessor // vocabulary interned every inserted name
			}
			e.items = slices.Clone(scratch)
		case k < len(carried) && carried[k].id == ch.ID:
			e.from, e.items = carried[k].from, carried[k].items
			k++
		default:
			// Not in old's overlay: prev's pattern is the base's.
			p := ch.ID - uint32(seen)
			b := p
			if old != nil {
				b -= uint32(lowerBound(old.ins, p))
			}
			if int(b) >= ov.base.Len() {
				return nil, fmt.Errorf("pindex: change id %d maps past the base", ch.ID)
			}
			e.from, e.items = int32(b), ov.base.items(b)
		}
		if !ch.Inserted {
			var ok bool
			if scratch, ok = ov.resolve(scratch[:0], ch.Items); !ok || !slices.Equal(scratch, e.items) {
				return nil, errNotSuccessor
			}
		}
		entries = append(entries, e)
	}
	entries = append(entries, carried[k:]...)
	return slices.DeleteFunc(entries, func(e entry) bool {
		return e.from >= 0 && e.support == ov.base.supports[e.from]
	}), nil
}

// from returns the base pattern part pattern k replaces, or -1 when the
// base lacks it.
func (ov *overlay) from(k int) int32 {
	c := ov.ids[k]
	i, found := slices.BinarySearch(ov.ins, c)
	if found {
		return -1
	}
	return int32(c) - int32(i)
}

// build lays out an overlay over entries.
func (ov *overlay) build(entries []entry) *Index {
	base := ov.base
	part := &Index{level: ov.level, up: ov.up}
	ov.part = part
	total := 0
	for _, e := range entries {
		total += len(e.items)
	}
	part.arena = make([]uint32, 0, total)
	part.offs = make([]uint32, len(entries)+1)
	part.supports = make([]int64, len(entries))
	ov.ids = make([]uint32, len(entries))
	ov.mask = make([]uint64, (base.Len()+63)/64)
	for k, e := range entries {
		part.offs[k] = uint32(len(part.arena))
		part.arena = append(part.arena, e.items...)
		part.supports[k] = e.support
		ov.ids[k] = e.id
		if e.from < 0 {
			ov.ins = append(ov.ins, e.id)
		} else {
			ov.mask[e.from/64] |= 1 << (e.from % 64)
		}
	}
	part.offs[len(entries)] = uint32(len(part.arena))
	ov.maskedRanks = make([]uint32, 0, len(entries)-len(ov.ins))
	for r, b := range base.bySupport {
		if ov.masked(b) {
			ov.maskedRanks = append(ov.maskedRanks, uint32(r))
		}
	}
	part.derive()
	ov.maxLevel = max(base.MaxLevel(), part.MaxLevel())

	const wordBytes, mapEntryBytes = 8, 48 // as in computeSize
	size := part.computeSize() + int64(len(ov.ids)+len(ov.ins)+len(ov.maskedRanks))*4 + int64(len(ov.mask))*8
	for _, name := range ov.names {
		size += 2*int64(len(name)) + wordBytes*2 + mapEntryBytes
	}
	return &Index{ov: ov, size: size}
}

// full lays out the version ov and entries describe as an index Build would
// make: the base's patterns with entries merged in, over the merged
// vocabulary.
func (ov *overlay) full(entries []entry) *Index {
	base := ov.base
	nb := len(base.names)
	ix := &Index{
		names:    append(base.names[:nb:nb], ov.names...),
		byName:   maps.Clone(base.byName),
		level:    ov.level,
		up:       ov.up,
		arena:    make([]uint32, 0, len(base.arena)),
		offs:     make([]uint32, ov.n+1),
		supports: make([]int64, ov.n),
	}
	for id, name := range ov.names {
		ix.byName[name] = uint32(nb + id)
	}
	b, k := uint32(0), 0
	for c := range uint32(ov.n) {
		ix.offs[c] = uint32(len(ix.arena))
		if k < len(entries) && entries[k].id == c {
			e := entries[k]
			k++
			if e.from >= 0 {
				b++
			}
			ix.arena = append(ix.arena, e.items...)
			ix.supports[c] = e.support
			continue
		}
		ix.arena = append(ix.arena, base.items(b)...)
		ix.supports[c] = base.supports[b]
		b++
	}
	ix.offs[ov.n] = uint32(len(ix.arena))
	return ix.finish()
}

// lowerBound returns how many of the ascending xs are below x.
func lowerBound(xs []uint32, x uint32) int {
	i, _ := slices.BinarySearch(xs, x)
	return i
}

// canonical returns base pattern b's canonical id in the version: b plus the
// insertions placed before it.
func (ov *overlay) canonical(b uint32) uint32 {
	return b + uint32(sort.Search(len(ov.ins), func(j int) bool { return ov.ins[j]-uint32(j) > b }))
}

// masked reports whether the overlay replaces base pattern b.
func (ov *overlay) masked(b uint32) bool { return ov.mask[b/64]&(1<<(b%64)) != 0 }

// source resolves canonical id c to the part pattern that holds it (inPart)
// or to the base pattern b.
func (ov *overlay) source(c uint32) (k int, b uint32, inPart bool) {
	if k, found := slices.BinarySearch(ov.ids, c); found {
		return k, 0, true
	}
	return 0, c - uint32(lowerBound(ov.ins, c)), false
}

func (ov *overlay) support(c uint32) int64 {
	k, b, inPart := ov.source(c)
	if inPart {
		return ov.part.supports[k]
	}
	return ov.base.supports[b]
}

func (ov *overlay) appendItems(dst []string, c uint32) []string {
	var items []uint32
	if k, b, inPart := ov.source(c); inPart {
		items = ov.part.items(uint32(k))
	} else {
		items = ov.base.items(b)
	}
	for _, w := range items {
		dst = append(dst, ov.name(w))
	}
	return dst
}

// lookupIDs finds the canonical id of the pattern with exactly the merged
// vocabulary ids want: the base's, if it holds it, else the part's.
func (ov *overlay) lookupIDs(want []uint32) (uint32, bool) {
	nb := uint32(len(ov.base.names))
	if !slices.ContainsFunc(want, func(w uint32) bool { return w >= nb }) {
		if b, ok := ov.base.lookupIDs(want); ok {
			return ov.canonical(b), true
		}
	}
	if k, ok := ov.part.lookupIDs(want); ok {
		return ov.ids[k], true
	}
	return 0, false
}

// rollup is Rollup over the version: each step generalizes the rightmost
// item with an indexed hierarchy parent, as Build's roll-up table does.
func (ov *overlay) rollup(items []string) []uint32 {
	cur, ok := ov.resolve(make([]uint32, 0, len(items)), items)
	if !ok {
		return nil
	}
	c, ok := ov.lookupIDs(cur)
	if !ok {
		return nil
	}
	chain := []uint32{c}
	for {
		j := len(cur) - 1
		for j >= 0 && ov.up[cur[j]] == noID {
			j--
		}
		if j < 0 {
			return chain
		}
		cur[j] = ov.up[cur[j]]
		if c, ok = ov.lookupIDs(cur); !ok {
			return chain
		}
		chain = append(chain, c)
	}
}

// partFirst reports whether part serving rank q precedes base serving rank
// r in the version's serving order: support descending, ties by canonical
// id.
func (ov *overlay) partFirst(q, r uint32) bool {
	k, b := ov.part.bySupport[q], ov.base.bySupport[r]
	sp, sb := ov.part.supports[k], ov.base.supports[b]
	return sp > sb || sp == sb && ov.ids[k] < ov.canonical(b)
}

// after reports whether canonical id a follows b in serving order.
func (ov *overlay) after(a, b uint32) bool {
	sa, sb := ov.support(a), ov.support(b)
	return sa < sb || sa == sb && a > b
}

// search is Search over the version: the base's matches, but for the
// patterns the overlay replaces, merged with the part's in serving order.
func (ov *overlay) search(dst []uint32, q Query, offset, limit int) ([]uint32, int) {
	base, part := ov.base, ov.part
	if limit < 0 || limit > ov.n {
		limit = ov.n
	}
	offset = min(max(offset, 0), ov.n)
	if q.Level > ov.maxLevel {
		return dst, 0
	}
	var itemBuf [8]uint32
	contains, ok := ov.resolve(itemBuf[:0], q.Contains)
	if !ok {
		return dst, 0
	}
	if len(q.Prefix) > 0 {
		return ov.searchPrefix(dst, q, contains, offset, limit)
	}
	cutB, cutP := base.cut(q.MinSupport), part.cut(q.MinSupport)
	if len(contains) == 0 && q.Level < 0 {
		return ov.walk(dst, cutB, cutP, offset, limit)
	}
	var bBuf, pBuf [4][]uint32
	bs := newCursor(base, bBuf[:0], contains, q.Level, cutB)
	ps := newCursor(part, pBuf[:0], contains, q.Level, cutP)
	r, bOK := bs.next(ov)
	p, pOK := ps.next(nil)
	total := 0
	for (bOK || pOK) && total < offset+limit {
		if bOK && (!pOK || !ov.partFirst(p, r)) {
			if total >= offset {
				dst = append(dst, ov.canonical(base.bySupport[r]))
			}
			r, bOK = bs.next(ov)
		} else {
			if total >= offset {
				dst = append(dst, ov.ids[part.bySupport[p]])
			}
			p, pOK = ps.next(nil)
		}
		total++
	}
	// Past the page, the rest is only counted.
	for ; bOK; _, bOK = bs.next(ov) {
		total++
	}
	for ; pOK; _, pOK = ps.next(nil) {
		total++
	}
	return dst, total
}

// cut returns the serving-rank cutoff of a min-support filter: ranks below
// it qualify.
func (ix *Index) cut(minSupport int64) int {
	n := len(ix.supports)
	if minSupport <= 0 {
		return n
	}
	return sort.Search(n, func(r int) bool { return ix.supports[ix.bySupport[r]] < minSupport })
}

// cursor walks the serving ranks below a cutoff that occur in every one of
// an index's lists, driven by the shortest.
type cursor struct {
	ix    *Index
	drive []uint32
	rest  [][]uint32
}

// newCursor returns the cursor over ix's postings of the contains items and
// its level bucket (level ≥ 0), below cut; it matches nothing when ix has no
// list for a term.
func newCursor(ix *Index, lists [][]uint32, contains []uint32, level, cut int) cursor {
	for _, w := range contains {
		if int(w) >= len(ix.postings) {
			return cursor{}
		}
		lists = append(lists, ix.postings[w])
	}
	if level >= 0 {
		if level >= len(ix.levels) {
			return cursor{}
		}
		lists = append(lists, ix.levels[level])
	}
	slices.SortFunc(lists, func(a, b []uint32) int { return len(a) - len(b) })
	drive := lists[0]
	drive = drive[:sort.Search(len(drive), func(i int) bool { return int(drive[i]) >= cut })]
	return cursor{ix: ix, drive: drive, rest: lists[1:]}
}

// next returns the cursor's next rank; with skip set, ranks of base
// patterns skip's overlay replaces are passed over.
func (cu *cursor) next(skip *overlay) (uint32, bool) {
	for len(cu.drive) > 0 {
		r := cu.drive[0]
		cu.drive = cu.drive[1:]
		if skip != nil && skip.masked(cu.ix.bySupport[r]) {
			continue
		}
		if inAll(cu.rest, r) {
			return r, true
		}
	}
	return 0, false
}

// walk is the permutation walk over the version: the base's serving ranks
// below cutB, less the replaced ones, merged with the part's below cutP.
// The page's first element is found by bisection, so a deep page costs
// what a shallow one does.
func (ov *overlay) walk(dst []uint32, cutB, cutP, offset, limit int) ([]uint32, int) {
	base, part := ov.base, ov.part
	kept := cutB - lowerBound(ov.maskedRanks, uint32(cutB)) // unmasked base ranks below cutB
	total := kept + cutP
	k := min(offset, total)
	// t of the first k are the part's: the least t whose next part rank
	// does not precede the base's (k-t)th.
	lo, hi := max(0, k-kept), min(k, cutP)
	t := lo + sort.Search(hi-lo, func(i int) bool {
		t := lo + i
		return !ov.partFirst(uint32(t), ov.unmasked(k-t-1))
	})
	r, p := int(ov.unmasked(k-t)), t
	for range limit {
		for r < cutB && ov.masked(base.bySupport[r]) {
			r++
		}
		bOK, pOK := r < cutB, p < cutP
		if !bOK && !pOK {
			break
		}
		if bOK && (!pOK || !ov.partFirst(uint32(p), uint32(r))) {
			dst = append(dst, ov.canonical(base.bySupport[r]))
			r++
		} else {
			dst = append(dst, ov.ids[part.bySupport[p]])
			p++
		}
	}
	return dst, total
}

// unmasked returns the base serving rank of the jth base pattern (from 0),
// in serving order, that the overlay does not replace.
func (ov *overlay) unmasked(j int) uint32 {
	// maskedRanks[i]-i base patterns are kept ahead of maskedRanks[i].
	m := sort.Search(len(ov.maskedRanks), func(i int) bool { return int(ov.maskedRanks[i])-i > j })
	return uint32(j + m)
}

// searchPrefix answers a query with a Prefix term over the version: the
// prefix's lex ranges in the base (less the replaced patterns) and in the
// part are walked once each, and the offset+limit best matches in serving
// order are kept in a bounded max-heap of canonical ids in dst's tail, as
// Index.searchPrefix does with ranks.
func (ov *overlay) searchPrefix(dst []uint32, q Query, contains []uint32, offset, limit int) ([]uint32, int) {
	var wantBuf [8]uint32
	want, ok := ov.resolve(wantBuf[:0], q.Prefix)
	if !ok {
		return dst, 0
	}
	base, part := ov.base, ov.part
	bLo, bHi := 0, 0
	if nb := uint32(len(base.names)); !slices.ContainsFunc(want, func(w uint32) bool { return w >= nb }) {
		bLo, bHi = base.prefixRange(want)
	}
	pLo, pHi := part.prefixRange(want)
	k := min(offset+limit, bHi-bLo+pHi-pLo)
	start := len(dst)
	total := 0
	filtered := len(contains) > 0 || q.Level >= 0
	for _, side := range [2]*Index{base, part} {
		ids := base.lex[bLo:bHi]
		if side == part {
			ids = part.lex[pLo:pHi]
		}
		for _, id := range ids {
			if side == base && ov.masked(id) ||
				q.MinSupport > 0 && side.supports[id] < q.MinSupport ||
				filtered && !side.matches(id, contains, q.Level) {
				continue
			}
			var c uint32
			if side == base {
				c = ov.canonical(id)
			} else {
				c = ov.ids[id]
			}
			total++
			sel := dst[start:]
			switch {
			case len(sel) < k:
				dst = append(dst, c)
				if sel = dst[start:]; len(sel) == k {
					for i := len(sel)/2 - 1; i >= 0; i-- {
						ov.siftDown(sel, i)
					}
				}
			case k > 0 && ov.after(sel[0], c):
				sel[0] = c
				ov.siftDown(sel, 0)
			}
		}
	}
	sel := dst[start:]
	slices.SortFunc(sel, func(a, b uint32) int {
		switch {
		case a == b:
			return 0
		case ov.after(a, b):
			return 1
		}
		return -1
	})
	sel = sel[:copy(sel, sel[min(offset, len(sel)):])]
	return dst[:start+len(sel)], total
}

// siftDown restores the max-heap property, under serving order, of h below
// position i.
func (ov *overlay) siftDown(h []uint32, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && ov.after(h[c+1], h[c]) {
			c++
		}
		if !ov.after(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
