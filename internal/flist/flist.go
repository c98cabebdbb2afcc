// Package flist implements the generalized f-list of the LASH paper (§3.3)
// and the total item order < used for item-based partitioning (§3.4).
//
// The generalized f-list is hierarchy-aware: the frequency f0(w, D) of an
// item w is the number of input sequences that contain w or any of its
// descendants. Frequent items (f0 ≥ σ) are assigned dense ranks. The
// partitioning needs only one property of the order: a parent ranks before
// its child (w2 → w1 implies rank(w1) < rank(w2)); Build checks it. A cold
// mine ranks in the paper's order, which balances the partitions: more
// frequent items are "smaller"; ties are broken in a hierarchy-aware way
// (items at higher — more general — levels first), and remaining ties by
// vocabulary id. A lineage of delta mines keeps its order instead: the
// items it ranked keep their ranks, and newly frequent items follow in the
// paper's order, which puts their ancestors, at least as frequent, first.
package flist

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"lash/internal/gsm"
	"lash/internal/hierarchy"
)

// Rank is a dense id of a frequent item in the total order <: rank 0 is the
// "smallest" item, the most frequent one under a cold mine's order.
type Rank uint32

// NoRank marks infrequent items. Because it compares larger than every real
// rank, it doubles as the blank symbol "_" in rewritten sequences (the paper
// requires w < _ for all items w).
const NoRank Rank = math.MaxUint32

// FList is the generalized f-list plus the derived rank space.
type FList struct {
	forest  *hierarchy.Forest
	freq    []int64          // vocab → f0(w, D)
	rankOf  []Rank           // vocab → rank or NoRank
	vocabOf []hierarchy.Item // rank → vocab item
	parent  []Rank           // rank → parent rank (or NoRank for roots)
}

// ComputeFrequencies returns the hierarchy-aware document frequency of every
// vocabulary item: the number of sequences containing the item or any
// descendant. This is the sequential (non-MapReduce) implementation used by
// the library path and tests; the engine computes the same quantity with a
// MapReduce job.
func ComputeFrequencies(db *gsm.Database) []int64 {
	f := db.Forest
	freq := make([]int64, f.Size())
	seen := make(map[hierarchy.Item]struct{}, 64)
	var scratch []hierarchy.Item
	for _, t := range db.Seqs {
		clear(seen)
		for _, w := range t {
			if _, done := seen[w]; done {
				continue
			}
			scratch = f.SelfAndAncestors(scratch[:0], w)
			for _, g := range scratch {
				seen[g] = struct{}{}
			}
		}
		for g := range seen {
			freq[g]++
		}
	}
	return freq
}

// Build derives the rank space from per-item frequencies and σ. With no
// order, the frequent items rank in frequency order (see the package doc).
// order is a lineage's rank order, rank → item: its items, all frequent,
// keep their ranks, and the frequent items it lacks rank after them in
// frequency order. Either way every parent must rank before its child.
func Build(forest *hierarchy.Forest, freq []int64, sigma int64, order ...hierarchy.Item) (*FList, error) {
	if len(freq) != forest.Size() {
		return nil, fmt.Errorf("flist: %d frequencies for %d items", len(freq), forest.Size())
	}
	if sigma <= 0 {
		return nil, fmt.Errorf("flist: σ must be positive, got %d", sigma)
	}
	fl := &FList{
		forest:  forest,
		freq:    append([]int64(nil), freq...),
		rankOf:  make([]Rank, forest.Size()),
		vocabOf: slices.Clone(order),
	}
	for w := range fl.rankOf {
		fl.rankOf[w] = NoRank
	}
	for r, w := range order {
		if int(w) >= forest.Size() || freq[w] < sigma || fl.rankOf[w] != NoRank {
			return nil, fmt.Errorf("flist: the order's item %d at rank %d is unknown, infrequent or repeated", w, r)
		}
		fl.rankOf[w] = Rank(r)
	}
	for w := range forest.Size() {
		if freq[w] >= sigma && fl.rankOf[w] == NoRank {
			fl.vocabOf = append(fl.vocabOf, hierarchy.Item(w))
		}
	}
	slices.SortFunc(fl.vocabOf[len(order):], fl.byFrequency)
	fl.parent = make([]Rank, len(fl.vocabOf))
	for r, w := range fl.vocabOf {
		fl.rankOf[w] = Rank(r)
	}
	for r, w := range fl.vocabOf {
		p := forest.Parent(w)
		if p == hierarchy.NoItem {
			fl.parent[r] = NoRank
			continue
		}
		pr := fl.rankOf[p]
		if pr == NoRank {
			// A frequent item's ancestors are at least as frequent (support
			// sets nest, Lemma 1) — an infrequent parent is a logic error in
			// the supplied frequencies.
			return nil, fmt.Errorf("flist: frequent item %q (f=%d) has infrequent parent %q (f=%d)",
				forest.Name(w), freq[w], forest.Name(p), freq[p])
		}
		if pr >= Rank(r) {
			return nil, fmt.Errorf("flist: order violation: parent %q not smaller than child %q",
				forest.Name(p), forest.Name(w))
		}
		fl.parent[r] = pr
	}
	return fl, nil
}

// byFrequency compares two items in a cold mine's order.
func (fl *FList) byFrequency(a, b hierarchy.Item) int {
	return cmp.Or(cmp.Compare(fl.freq[b], fl.freq[a]),
		cmp.Compare(fl.forest.Level(a), fl.forest.Level(b)), cmp.Compare(a, b))
}

// Order returns the rank order, rank → item (shared; do not modify).
func (fl *FList) Order() []hierarchy.Item { return fl.vocabOf }

// ByFrequency returns the frequent items in a cold mine's order, whatever
// their ranks.
func (fl *FList) ByFrequency() []hierarchy.Item {
	return slices.SortedFunc(slices.Values(fl.vocabOf), fl.byFrequency)
}

// Forest returns the hierarchy this f-list was built over.
func (fl *FList) Forest() *hierarchy.Forest { return fl.forest }

// NumFrequent returns the number of frequent items (= number of partitions
// LASH will create).
func (fl *FList) NumFrequent() int { return len(fl.vocabOf) }

// Freq returns f0(w, D) for a vocabulary item.
func (fl *FList) Freq(w hierarchy.Item) int64 { return fl.freq[w] }

// FreqOfRank returns f0 for a rank.
func (fl *FList) FreqOfRank(r Rank) int64 { return fl.freq[fl.vocabOf[r]] }

// RankOf returns the rank of a vocabulary item (NoRank if infrequent).
func (fl *FList) RankOf(w hierarchy.Item) Rank { return fl.rankOf[w] }

// VocabOf returns the vocabulary item of a rank.
func (fl *FList) VocabOf(r Rank) hierarchy.Item { return fl.vocabOf[r] }

// ParentTable returns the rank → parent-rank table (shared; do not modify).
// Local miners use it for hierarchy-aware expansion without touching the
// vocabulary space.
func (fl *FList) ParentTable() []Rank { return fl.parent }

// GeneralizeTo returns the deepest frequent ancestor-or-self of vocabulary
// item w whose rank is ≤ maxRank, or NoRank if none exists. With
// maxRank = NoRank-1 this is "closest frequent ancestor or self" (the
// semi-naïve algorithm's rewrite); with maxRank = pivot it is exactly the
// w-generalization primitive of §4.2.
func (fl *FList) GeneralizeTo(w hierarchy.Item, maxRank Rank) Rank {
	for w != hierarchy.NoItem {
		if r := fl.rankOf[w]; r <= maxRank {
			return r
		}
		w = fl.forest.Parent(w)
	}
	return NoRank
}

// FrequentRank is GeneralizeTo with no rank bound: the closest frequent
// ancestor-or-self.
func (fl *FList) FrequentRank(w hierarchy.Item) Rank {
	return fl.GeneralizeTo(w, NoRank-1)
}

// PivotRanks appends to dst the distinct frequent ranks of G1(T) — every
// frequent item that occurs in t directly or as a generalization. These are
// precisely the partitions t contributes to (Alg. 1, line 2). The result is
// sorted ascending.
func (fl *FList) PivotRanks(dst []Rank, t gsm.Sequence) []Rank {
	start := len(dst)
	for _, w := range t {
		for u := w; u != hierarchy.NoItem; u = fl.forest.Parent(u) {
			if r := fl.rankOf[u]; r != NoRank {
				dst = append(dst, r)
			}
		}
	}
	slices.Sort(dst[start:])
	return dst[:start+len(slices.Compact(dst[start:]))]
}

// TranslateFromRanks maps a rank sequence back to vocabulary items; blanks
// are not allowed (patterns never contain blanks).
func (fl *FList) TranslateFromRanks(dst gsm.Sequence, s []Rank) (gsm.Sequence, error) {
	for _, r := range s {
		if r == NoRank || int(r) >= len(fl.vocabOf) {
			return dst, fmt.Errorf("flist: rank %d not translatable", r)
		}
		dst = append(dst, fl.vocabOf[r])
	}
	return dst, nil
}
