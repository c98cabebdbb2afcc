// Package pindex is the serving tier's immutable pattern index: a compact,
// query-oriented layout built exactly once over a completed mining result
// and never mutated afterwards, so any number of concurrent readers can
// query it without locking and an LRU tier can account for it byte-exactly.
//
// # Layout contract
//
// Build interns every item that occurs in the pattern set into a dense
// private vocabulary and stores all patterns id-encoded in one arena with a
// per-pattern offset table — pattern i of the input keeps id i ("canonical
// id"), so the input's canonical mining order is recoverable for free. On
// top of the arena sit four derived, equally immutable tables:
//
//   - lex: the canonical ids sorted in prefix-lexicographic order of their
//     encoded item sequences. Every pattern set sharing a given item-sequence
//     prefix is one contiguous lex range, so an exact lookup is a binary
//     search and a prefix query is a binary search plus one walk of that
//     range (selecting the best-ranked page as it goes), never of the index.
//   - bySupport: the serving permutation — canonical ids ordered by support
//     descending, ties by canonical id ascending (the order GET /v1/patterns
//     has always served). rank[] is its inverse. top-k is a slice of this
//     permutation; a min-support filter is a prefix of it (supports are
//     non-increasing along it, so the cutoff is one binary search).
//   - postings: for each vocabulary item, the serving ranks (ascending) of
//     the patterns containing it. A contains-item query is a window of one
//     postings list; several items intersect their lists on the fly, and the
//     intersection is born in serving order because rank order is serving
//     order.
//   - levels and parent: the hierarchy tables. A pattern's level is the
//     maximum hierarchy level of its items (0 = all items are roots, i.e.
//     fully generalized); levels[L] lists the ranks at level L. parent maps
//     each pattern to its canonical parent generalization — the pattern
//     obtained by generalizing the rightmost non-root item one hierarchy
//     step — when that pattern is itself in the index, making "roll up this
//     pattern" a pointer chase instead of a search.
//
// Everything is position-based and append-only at build time; after Build
// (or Extend) returns, the Index is never written again, nor is anything
// it shares with another Index. SizeBytes accounts the layout
// deterministically, which is what lets the server's result cache budget
// bytes instead of entries.
//
// # Extensions
//
// A later version of a result is mostly the earlier one: its patterns are
// the earlier version's, a few with a raised support, plus a few inserted,
// and its canonical order is the earlier order with the insertions placed
// in it. Extend lays such a version out as a shared base — an index Build
// made, never written again — plus an overlay: the patterns that are new
// since the base or whose support changed, laid out by the rules above over
// the merged vocabulary (the base's items, then the items only the overlay
// holds), the canonical ids of both in the new version, and a bitmask over
// the base's canonical ids of the patterns the overlay replaces. Building
// it costs what changed, not what the version holds. Every query merges the
// base's answer, masked, with the overlay's in serving order, so an
// extension answers byte for byte what Build over the whole version would,
// and out of the caller's dst alone; an index Build made answers from its
// own tables as before. Overlays never chain: extending an extension merges
// both overlays against the one base, and once the overlay would hold more
// than a fixed share of the base's patterns Extend makes a full index
// instead, which later versions extend in turn. An extension's SizeBytes is
// its overlay's; Base names the index it shares, which a holder of several
// versions charges once.
package pindex

import (
	"slices"
	"sort"

	"lash/internal/hierarchy"
	"lash/internal/radix"
)

// Pattern is one mined pattern handed to Build, in the lash package's wire
// shape (item names plus support).
type Pattern struct {
	Items   []string
	Support int64
}

// noParent marks "no indexed parent generalization" in the parent table.
const noParent = int32(-1)

// noID marks "no such vocabulary item".
const noID = ^uint32(0)

// Index is the immutable pattern index. Build one with Build; all methods
// are safe for concurrent use because nothing is ever mutated.
type Index struct {
	// Private vocabulary over the items occurring in patterns.
	names  []string          // vocab id → item name
	byName map[string]uint32 // item name → vocab id
	level  []int32           // vocab id → hierarchy level (0 = root or unknown)
	up     []uint32          // vocab id → vocab id of hierarchy parent (noID if none indexed)

	// Pattern storage: canonical order, one arena.
	arena    []uint32 // all patterns' vocab ids, concatenated in canonical order
	offs     []uint32 // canonical id → arena offset (len n+1)
	supports []int64  // canonical id → support

	// Derived tables (see package doc).
	lex       []uint32   // lex position → canonical id, prefix-lex order
	bySupport []uint32   // serving rank → canonical id
	rank      []uint32   // canonical id → serving rank
	postings  [][]uint32 // vocab id → serving ranks, ascending
	levels    [][]uint32 // pattern level → serving ranks, ascending
	parent    []int32    // canonical id → canonical id of parent generalization

	size int64 // SizeBytes, computed once at build

	// ov is set on an extension (Extend): every table above is then empty,
	// and the base and overlay it names answer instead.
	ov *overlay
}

// Build constructs the index over patterns, which must be in canonical
// mining order (lash.Result.Patterns order) — canonical ids are positions
// in this slice. f supplies the item hierarchy for the level and roll-up
// tables; a nil forest (or items absent from it) degrades gracefully to a
// flat vocabulary, never fails. Build does not retain patterns' slices.
func Build(patterns []Pattern, f *hierarchy.Forest) *Index {
	n := len(patterns)
	ix := &Index{
		byName:   make(map[string]uint32),
		offs:     make([]uint32, n+1),
		supports: make([]int64, n),
	}

	// Intern the vocabulary and encode every pattern into the arena.
	total := 0
	for _, p := range patterns {
		total += len(p.Items)
	}
	ix.arena = make([]uint32, 0, total)
	for i, p := range patterns {
		ix.offs[i] = uint32(len(ix.arena))
		ix.supports[i] = p.Support
		for _, name := range p.Items {
			ix.arena = append(ix.arena, ix.intern(name, f))
		}
	}
	ix.offs[n] = uint32(len(ix.arena))

	// Hierarchy parents resolve only after the whole vocabulary is known: a
	// parent item matters to the index only if it occurs in some pattern.
	ix.up = make([]uint32, len(ix.names))
	for id, name := range ix.names {
		ix.up[id] = parentID(name, f, ix.vocabID)
	}
	return ix.finish()
}

// parentID returns the vocabulary id, under lookup, of the hierarchy parent
// of the item name, or noID when the item is a root, unknown to f, or its
// parent is not in the vocabulary.
func parentID(name string, f *hierarchy.Forest, lookup func(string) (uint32, bool)) uint32 {
	if f == nil {
		return noID
	}
	w, ok := f.Lookup(name)
	if !ok || f.IsRoot(w) {
		return noID
	}
	if p, ok := lookup(f.Name(f.Parent(w))); ok {
		return p
	}
	return noID
}

// vocabID returns name's vocabulary id.
func (ix *Index) vocabID(name string) (uint32, bool) {
	id, ok := ix.byName[name]
	return id, ok
}

// finish lays out a full index over its encoded patterns and vocabulary:
// the derived tables, the roll-up table and the size.
func (ix *Index) finish() *Index {
	ix.derive()
	n := len(ix.supports)
	ix.rank = make([]uint32, n)
	for r, id := range ix.bySupport {
		ix.rank[id] = uint32(r)
	}

	// Roll-up table: the canonical parent generalization, when indexed.
	ix.parent = make([]int32, n)
	scratch := make([]uint32, 0, 16)
	for id := 0; id < n; id++ {
		ix.parent[id] = noParent
		items := ix.items(uint32(id))
		// Rightmost item with an indexed hierarchy parent defines the
		// canonical one-step generalization.
		for j := len(items) - 1; j >= 0; j-- {
			if ix.up[items[j]] == noID {
				continue
			}
			scratch = append(scratch[:0], items...)
			scratch[j] = ix.up[items[j]]
			if pid, ok := ix.lookupIDs(scratch); ok {
				ix.parent[id] = int32(pid)
			}
			break
		}
	}

	ix.size = ix.computeSize()
	return ix
}

// derive builds the lex, serving, postings and level tables over the
// encoded patterns (arena, offs, supports) and the item levels. The serving
// rank table is finish's: an overlay's queries never read it.
func (ix *Index) derive() {
	n := len(ix.supports)
	maxLen, vocab := 0, 0
	for id := range n {
		items := ix.items(uint32(id))
		maxLen = max(maxLen, len(items))
		for _, w := range items {
			vocab = max(vocab, int(w)+1)
		}
	}

	// Lex table: canonical ids sorted by encoded item sequence. Position k
	// keys as vocab id + 1, and a position past the end as 0, so a pattern
	// sorts before its extensions.
	ix.lex = canonicalIDs(n)
	radix.Sort(ix.lex, maxLen, uint64(vocab), func(id uint32, k int) uint64 {
		if items := ix.items(id); k < len(items) {
			return uint64(items[k]) + 1
		}
		return 0
	})

	// Serving permutation: support descending, ties canonical-id ascending —
	// the sort is stable and starts from canonical order.
	ix.bySupport = canonicalIDs(n)
	maxSup, minSup := int64(0), int64(0)
	if n > 0 {
		maxSup, minSup = slices.Max(ix.supports), slices.Min(ix.supports)
	}
	radix.Sort(ix.bySupport, 1, uint64(maxSup-minSup), func(id uint32, _ int) uint64 {
		return uint64(maxSup - ix.supports[id])
	})

	// Postings and level buckets, walked in rank order so every list is
	// born sorted by serving rank.
	ix.postings = make([][]uint32, vocab)
	maxLevel := 0
	patLevel := make([]int32, n)
	for id := 0; id < n; id++ {
		lvl := ix.patternLevel(uint32(id))
		patLevel[id] = lvl
		if int(lvl) > maxLevel {
			maxLevel = int(lvl)
		}
	}
	ix.levels = make([][]uint32, maxLevel+1)
	for r := 0; r < n; r++ {
		id := ix.bySupport[r]
		items := ix.items(id)
		for j, w := range items {
			if seenBefore(items[:j], w) {
				continue // one postings entry per pattern, even for repeats
			}
			ix.postings[w] = append(ix.postings[w], uint32(r))
		}
		lvl := patLevel[id]
		ix.levels[lvl] = append(ix.levels[lvl], uint32(r))
	}
}

// intern returns the vocabulary id for name, interning it on first sight.
func (ix *Index) intern(name string, f *hierarchy.Forest) uint32 {
	if id, ok := ix.byName[name]; ok {
		return id
	}
	id := uint32(len(ix.names))
	ix.names = append(ix.names, name)
	lvl := int32(0)
	if f != nil {
		if w, ok := f.Lookup(name); ok {
			lvl = int32(f.Level(w))
		}
	}
	ix.level = append(ix.level, lvl)
	ix.byName[name] = id
	return id
}

// canonicalIDs returns the identity permutation of n canonical ids.
func canonicalIDs(n int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	return ids
}

func seenBefore(prefix []uint32, w uint32) bool {
	for _, u := range prefix {
		if u == w {
			return true
		}
	}
	return false
}

// items returns pattern id's encoded item sequence (a view into the arena;
// callers must not modify it).
func (ix *Index) items(id uint32) []uint32 {
	return ix.arena[ix.offs[id]:ix.offs[id+1]]
}

// Len returns the number of indexed patterns.
func (ix *Index) Len() int {
	if ix.ov != nil {
		return ix.ov.n
	}
	return len(ix.supports)
}

// Support returns pattern id's support.
func (ix *Index) Support(id uint32) int64 {
	if ix.ov != nil {
		return ix.ov.support(id)
	}
	return ix.supports[id]
}

// AppendItems appends pattern id's item names to dst and returns the
// extended slice — the allocation-free rendering primitive.
func (ix *Index) AppendItems(dst []string, id uint32) []string {
	if ix.ov != nil {
		return ix.ov.appendItems(dst, id)
	}
	for _, w := range ix.items(id) {
		dst = append(dst, ix.names[w])
	}
	return dst
}

// SizeBytes returns the deterministic byte accounting of what the index
// itself holds: for an index Build made, every backing array at its element
// width, plus the vocabulary strings and an amortized per-entry charge for
// the name map; for an extension, its overlay only, not the base it shares
// (Base). Two builds over equal inputs report equal sizes, which makes the
// value safe to use as a cache charging key.
func (ix *Index) SizeBytes() int64 { return ix.size }

// Base returns the full index ix shares: ix itself when Build made it (or
// Extend returned a full index), else the base its overlay extends. A
// holder of several versions charges each distinct base once, and each
// version's SizeBytes on its own.
func (ix *Index) Base() *Index {
	if ix.ov != nil {
		return ix.ov.base
	}
	return ix
}

func (ix *Index) computeSize() int64 {
	const (
		wordBytes     = 8  // slice headers are charged via their arrays only
		mapEntryBytes = 48 // amortized bucket + header share per map entry
	)
	size := int64(0)
	size += int64(len(ix.arena)+len(ix.offs)+len(ix.lex)+len(ix.bySupport)+len(ix.rank)) * 4
	size += int64(len(ix.supports)) * 8
	size += int64(len(ix.level)+len(ix.parent))*4 + int64(len(ix.up))*4
	for _, name := range ix.names {
		size += int64(len(name)) + wordBytes*2 // string bytes + header
		size += int64(len(name)) + mapEntryBytes
	}
	for _, pl := range ix.postings {
		size += int64(len(pl))*4 + wordBytes*3
	}
	for _, ll := range ix.levels {
		size += int64(len(ll))*4 + wordBytes*3
	}
	return size
}

// MaxLevel returns the largest pattern level in the index (0 for a flat
// vocabulary or an empty index).
func (ix *Index) MaxLevel() int {
	if ix.ov != nil {
		return ix.ov.maxLevel
	}
	if len(ix.levels) == 0 {
		return 0
	}
	return len(ix.levels) - 1
}

// lookupIDs finds the canonical id of the pattern with exactly the encoded
// item sequence want, via binary search over the lex table.
func (ix *Index) lookupIDs(want []uint32) (uint32, bool) {
	lo := sort.Search(len(ix.lex), func(i int) bool {
		return slices.Compare(ix.items(ix.lex[i]), want) >= 0
	})
	if lo < len(ix.lex) && slices.Compare(ix.items(ix.lex[lo]), want) == 0 {
		return ix.lex[lo], true
	}
	return 0, false
}

// Lookup finds the canonical id of the pattern with exactly the given
// items, if indexed.
func (ix *Index) Lookup(items []string) (uint32, bool) {
	if ix.ov != nil {
		ids, ok := ix.ov.resolve(make([]uint32, 0, len(items)), items)
		if !ok {
			return 0, false
		}
		return ix.ov.lookupIDs(ids)
	}
	ids := make([]uint32, len(items))
	for i, name := range items {
		id, ok := ix.byName[name]
		if !ok {
			return 0, false
		}
		ids[i] = id
	}
	return ix.lookupIDs(ids)
}

// Rollup returns the roll-up chain of the pattern with the given items: the
// pattern itself followed by successive parent generalizations present in
// the index (each one hierarchy step more general than the last). An empty
// chain means the pattern itself is not indexed.
func (ix *Index) Rollup(items []string) []uint32 {
	if ix.ov != nil {
		return ix.ov.rollup(items)
	}
	id, ok := ix.Lookup(items)
	if !ok {
		return nil
	}
	chain := []uint32{id}
	for ix.parent[id] != noParent {
		id = uint32(ix.parent[id])
		chain = append(chain, id)
	}
	return chain
}

// Query selects patterns. The zero value matches everything. Filters
// compose conjunctively.
type Query struct {
	// MinSupport keeps patterns with at least this support (0 = all).
	MinSupport int64
	// Contains keeps patterns mentioning every listed item.
	Contains []string
	// Prefix keeps patterns whose item sequence starts with these items.
	Prefix []string
	// Level, when ≥ 0, keeps patterns whose level (max hierarchy level over
	// their items) equals it. -1 matches every level; the zero value
	// therefore does NOT mean "any" — build queries with NoLevel.
	Level int
}

// NoLevel is the Query.Level value that matches every level.
const NoLevel = -1

// Search appends to dst the canonical ids of up to limit matching patterns
// in serving order (support descending, ties in canonical mining order),
// skipping the first offset matches, and returns the extended slice plus
// the exact total match count. limit < 0 means "no limit".
//
// Work is proportional to what the query touches, never to Len(), and the
// only memory written is dst: a permutation walk or a single contains/level
// term is a window copied out of one immutable list; several such terms are
// intersected on the fly, driven by the shortest list; and a query with a
// Prefix term walks the prefix's lex range once — O(R) for a range of R
// patterns — keeping only the offset+limit best ranks in a bounded heap
// that lives in dst itself. With cap(dst) ≥ offset+limit (prefix) or
// ≥ limit (everything else) Search does not allocate.
func (ix *Index) Search(dst []uint32, q Query, offset, limit int) ([]uint32, int) {
	if ix.ov != nil {
		return ix.ov.search(dst, q, offset, limit)
	}
	n := len(ix.supports)
	if limit < 0 || limit > n {
		limit = n
	}
	offset = min(max(offset, 0), n)
	// cut is the serving-rank cutoff of the min-support filter: supports
	// are non-increasing along bySupport, so ranks [0, cut) qualify.
	cut := n
	if q.MinSupport > 0 {
		cut = sort.Search(n, func(r int) bool {
			return ix.supports[ix.bySupport[r]] < q.MinSupport
		})
	}
	if q.Level >= len(ix.levels) {
		return dst, 0
	}
	var itemBuf [8]uint32
	contains, ok := ix.resolve(itemBuf[:0], q.Contains)
	if !ok {
		return dst, 0 // a term referenced an unknown item: nothing matches
	}
	if len(q.Prefix) > 0 {
		return ix.searchPrefix(dst, q.Prefix, contains, q.Level, cut, offset, limit)
	}

	var listBuf [4][]uint32
	lists := listBuf[:0]
	for _, w := range contains {
		lists = append(lists, ix.postings[w])
	}
	if q.Level >= 0 {
		lists = append(lists, ix.levels[q.Level])
	}
	if len(lists) == 0 {
		// Pure permutation walk: the matches are exactly ranks [0, cut).
		return append(dst, ix.bySupport[min(offset, cut):min(offset+limit, cut)]...), cut
	}

	// Drive from the shortest list, cut at the min-support cutoff: ranks
	// are ascending and qualifying ranks are < cut, so they are a prefix.
	slices.SortFunc(lists, func(a, b []uint32) int { return len(a) - len(b) })
	drive := lists[0]
	drive = drive[:sort.Search(len(drive), func(i int) bool { return int(drive[i]) >= cut })]
	if len(lists) == 1 {
		for _, r := range drive[min(offset, len(drive)):min(offset+limit, len(drive))] {
			dst = append(dst, ix.bySupport[r])
		}
		return dst, len(drive)
	}
	total := 0
	for _, r := range drive {
		if !inAll(lists[1:], r) {
			continue
		}
		if total >= offset && total-offset < limit {
			dst = append(dst, ix.bySupport[r])
		}
		total++
	}
	return dst, total
}

// resolve appends the vocabulary ids of names to dst; ok is false when a
// name is not in the vocabulary (a term that can match nothing).
func (ix *Index) resolve(dst []uint32, names []string) ([]uint32, bool) {
	for _, name := range names {
		id, ok := ix.byName[name]
		if !ok {
			return nil, false
		}
		dst = append(dst, id)
	}
	return dst, true
}

// inAll reports whether rank r occurs in every list (each ascending).
func inAll(lists [][]uint32, r uint32) bool {
	for _, l := range lists {
		if _, found := slices.BinarySearch(l, r); !found {
			return false
		}
	}
	return true
}

// searchPrefix answers a query with a Prefix term. Patterns sharing the
// prefix are one contiguous lex range; the range is walked once, the other
// terms (min-support cutoff, contains, level) are per-pattern predicates
// over the pattern's few items, every match is counted, and the k =
// offset+limit smallest ranks seen are kept in a bounded max-heap stored
// in dst's tail. Sorting those k survivors yields serving order.
func (ix *Index) searchPrefix(dst []uint32, prefix []string, contains []uint32, level, cut, offset, limit int) ([]uint32, int) {
	var wantBuf [8]uint32
	want, ok := ix.resolve(wantBuf[:0], prefix)
	if !ok {
		return dst, 0
	}
	lo, hi := ix.prefixRange(want)

	k := min(offset+limit, hi-lo)
	base := len(dst)
	total := 0
	filtered := len(contains) > 0 || level >= 0
	match := func(id uint32) (uint32, bool) {
		r := ix.rank[id]
		return r, int(r) < cut && (!filtered || ix.matches(id, contains, level))
	}
	// The first k matches fill the selection ...
	ids := ix.lex[lo:hi]
	for len(ids) > 0 && len(dst)-base < k {
		if r, ok := match(ids[0]); ok {
			dst = append(dst, r)
			total++
		}
		ids = ids[1:]
	}
	// ... which then becomes a max-heap, so that of the remaining matches —
	// all counted — only those ranked better than its worst member get in.
	sel := dst[base:]
	worst := uint32(0) // no rank is better than 0: an empty selection admits nothing
	if len(ids) > 0 && len(sel) > 0 {
		for i := len(sel)/2 - 1; i >= 0; i-- {
			siftDown(sel, i)
		}
		worst = sel[0]
	}
	for _, id := range ids {
		r, ok := match(id)
		if !ok {
			continue
		}
		total++
		if r < worst {
			sel[0] = r
			siftDown(sel, 0)
			worst = sel[0]
		}
	}
	slices.Sort(sel)
	sel = sel[:copy(sel, sel[min(offset, len(sel)):])]
	for i, r := range sel {
		sel[i] = ix.bySupport[r]
	}
	return dst[:base+len(sel)], total
}

// prefixRange returns the lex range [lo, hi) of the patterns whose encoded
// item sequence starts with want.
func (ix *Index) prefixRange(want []uint32) (lo, hi int) {
	cmpPrefix := func(id uint32) int {
		items := ix.items(id)
		return slices.Compare(items[:min(len(items), len(want))], want)
	}
	lo = sort.Search(len(ix.lex), func(i int) bool { return cmpPrefix(ix.lex[i]) >= 0 })
	hi = lo + sort.Search(len(ix.lex)-lo, func(i int) bool { return cmpPrefix(ix.lex[lo+i]) > 0 })
	return lo, hi
}

// matches applies the contains and level terms to one pattern.
func (ix *Index) matches(id uint32, contains []uint32, level int) bool {
	items := ix.items(id)
	for _, w := range contains {
		if !slices.Contains(items, w) {
			return false
		}
	}
	return level < 0 || int(ix.patternLevel(id)) == level
}

// patternLevel returns pattern id's level: the maximum hierarchy level over
// its items.
func (ix *Index) patternLevel(id uint32) int32 {
	lvl := int32(0)
	for _, w := range ix.items(id) {
		lvl = max(lvl, ix.level[w])
	}
	return lvl
}

// siftDown restores the max-heap property of h below position i.
func siftDown(h []uint32, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if h[i] >= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
