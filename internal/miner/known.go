package miner

import (
	"errors"
	"slices"

	"lash/internal/flist"
)

// Known is what a grown partition's previous mine found (Partition.Known):
// every pattern it emitted, in this mine's rank space, with its support over
// the old sequences, and — when SetBordered says the mine recorded one — its
// near-frequent border (see the package doc). Fill it with Reset, Add,
// AddBorder and AddCrossed. Its hash index grows with it, so a Known reused
// across partitions allocates only when it outgrows every earlier fill.
//
// A mine also writes to it: the pre-pass adds the border entries it finds,
// and both record what they learn of them. Fill it again before the next
// mine.
type Known struct {
	items []flist.Rank // the patterns back to back
	offs  []int32      // pattern i is items[offs[i]:offs[i+1]]
	// sups[i] is a frequent pattern's support over the old sequences, or a
	// border pattern's bound on it.
	sups []int64
	kind []knownKind
	// ext[i] is, for a frequent pattern, its bound from AddCrossed (0 if
	// none); for a border pattern, the support over the appended sequences
	// the pre-pass found (0 if it did not reach the pattern).
	ext []int64
	// slots is an open-addressing hash index over the patterns: 1 + the
	// index of a pattern, 0 for an empty slot, probed linearly from the top
	// bits of the pattern's hash. At most half of the slots are in use.
	slots []int32
	shift uint

	bordered bool // SetBordered was called
	crossed  bool // AddCrossed gave some pattern a bound
	// The pre-pass's outcome: marked[i] says frequent pattern i has a
	// descendant that may reach σ; leanRoot that the pivot has none.
	prepassed bool
	leanRoot  bool
	marked    []bool
}

type knownKind uint8

const (
	knownFrequent knownKind = iota
	knownBorder
	// knownCrossed: a border pattern this mine found frequent.
	knownCrossed
)

// ErrKnown is what the panic of a PSM mine wraps when a node it answers
// from Known (see Partition.Known) reaches a pattern whose support Known
// cannot give, or whose support exceeds the bound Known gave. A Known true
// to the old sequences never causes it.
var ErrKnown = errors.New("miner: grown node reached a pattern the previous mine does not hold")

// Reset empties k and sizes it for n patterns of ranks items in all.
func (k *Known) Reset(n, ranks int) {
	k.items = slices.Grow(k.items[:0], ranks)
	k.offs = append(slices.Grow(k.offs[:0], n+1), 0)
	k.sups = slices.Grow(k.sups[:0], n)
	k.kind = slices.Grow(k.kind[:0], n)
	k.ext = slices.Grow(k.ext[:0], n)
	k.bordered, k.crossed, k.prepassed, k.leanRoot = false, false, false, false
	k.resize(2 * n)
}

// Add records a pattern the previous mine emitted and its support over the
// old sequences. Patterns must be distinct, here and in AddBorder.
func (k *Known) Add(pattern []flist.Rank, support int64) {
	k.add(pattern, support, knownFrequent, 0)
}

// SetBordered says the previous mine recorded its near-frequent border, and
// every pattern of it is added with AddBorder (there may be none): k then
// bounds the old support of the patterns it lacks, and a mine records the
// partition's border anew (Partition.Border). Without it, a mine treats every
// pattern k lacks as one whose old occurrences it must read.
func (k *Known) SetBordered() { k.bordered = true }

// AddBorder records a pattern of the previous mine's border: not frequent,
// with bound an upper bound on its support over the old sequences.
func (k *Known) AddBorder(pattern []flist.Rank, bound int64) {
	k.add(pattern, bound, knownBorder, 0)
}

// AddCrossed gives a pattern Add recorded the bound Partition.Border reported
// for it as crossed: an upper bound on the old support of every pattern that
// extends it by one item and that no mine since has counted. It reports
// false if k lacks the pattern.
func (k *Known) AddCrossed(pattern []flist.Rank, bound int64) bool {
	if len(pattern) == 0 {
		return false
	}
	i := k.find(pattern[:len(pattern)-1], pattern[len(pattern)-1], false)
	if i < 0 || k.kind[i] != knownFrequent {
		return false
	}
	k.ext[i], k.crossed = bound, true
	return true
}

func (k *Known) add(pattern []flist.Rank, sup int64, kind knownKind, ext int64) {
	if len(k.offs) == 0 {
		k.Reset(0, 0)
	}
	if 2*(len(k.sups)+1) > len(k.slots) {
		k.resize(4 * (len(k.sups) + 1))
		for i := range k.sups {
			k.insert(int32(i))
		}
	}
	k.items = append(k.items, pattern...)
	k.offs = append(k.offs, int32(len(k.items)))
	k.sups = append(k.sups, sup)
	k.kind = append(k.kind, kind)
	k.ext = append(k.ext, ext)
	k.insert(int32(len(k.sups) - 1))
}

// addChild adds the border pattern that extends pattern by a — prepended
// when left, appended otherwise — with its old bound and appended support.
func (k *Known) addChild(pattern []flist.Rank, a flist.Rank, left bool, bound, appended int64) {
	start := len(k.items)
	if left {
		k.items = append(k.items, a)
	}
	k.items = append(k.items, pattern...)
	if !left {
		k.items = append(k.items, a)
	}
	child := k.items[start:]
	k.items = k.items[:start]
	k.add(child, bound, knownBorder, appended)
}

// frequent reports whether entry i is a pattern the previous mine emitted.
func (k *Known) frequent(i int32) bool { return k.kind[i] == knownFrequent }

// resize empties the index and gives it the smallest power-of-two number of
// slots, at least 8, that holds n.
func (k *Known) resize(n int) {
	size, bits := 8, uint(3)
	for size < n {
		size, bits = size<<1, bits+1
	}
	if cap(k.slots) < size {
		k.slots = make([]int32, size)
	} else {
		k.slots = k.slots[:size]
		clear(k.slots)
	}
	k.shift = 64 - bits
}

// The pattern hash is FNV-1a over the ranks; its top bits, after a
// Fibonacci multiply, pick the first slot probed.
const (
	knownSeed  = 14695981039346656037
	knownPrime = 1099511628211
)

func knownStep(h uint64, r flist.Rank) uint64 { return (h ^ uint64(r)) * knownPrime }

func (k *Known) slot(h uint64) int { return int((h * 0x9E3779B97F4A7C15) >> k.shift) }

func (k *Known) pattern(i int32) []flist.Rank { return k.items[k.offs[i]:k.offs[i+1]] }

func (k *Known) insert(i int32) {
	h := uint64(knownSeed)
	for _, r := range k.pattern(i) {
		h = knownStep(h, r)
	}
	mask := len(k.slots) - 1
	s := k.slot(h)
	for k.slots[s] != 0 {
		s = (s + 1) & mask
	}
	k.slots[s] = i + 1
}

// find returns the index of the entry that extends pattern by a —
// prepended when left, appended otherwise — or -1 if k lacks it.
func (k *Known) find(pattern []flist.Rank, a flist.Rank, left bool) int32 {
	if len(k.slots) == 0 {
		return -1
	}
	h := uint64(knownSeed)
	if left {
		h = knownStep(h, a)
	}
	for _, r := range pattern {
		h = knownStep(h, r)
	}
	if !left {
		h = knownStep(h, a)
	}
	mask := len(k.slots) - 1
	for s := k.slot(h); k.slots[s] != 0; s = (s + 1) & mask {
		i := k.slots[s] - 1
		p := k.pattern(i)
		if len(p) != len(pattern)+1 {
			continue
		}
		if left && p[0] == a && slices.Equal(p[1:], pattern) ||
			!left && p[len(pattern)] == a && slices.Equal(p[:len(pattern)], pattern) {
			return i
		}
	}
	return -1
}
