// Package gsm defines the generalized sequence mining (GSM) problem kernel:
// sequences over a hierarchical vocabulary, the gap-constrained generalized
// subsequence relation ⊑γ, enumeration of generalized subsequences (the
// G_λ(T) sets of the LASH paper), support computation, and a brute-force
// reference miner used as the test oracle for all production algorithms.
package gsm

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"lash/internal/hierarchy"
	"lash/internal/radix"
)

// Sequence is a sequence of vocabulary items.
type Sequence = []hierarchy.Item

// Params bundles the three GSM problem parameters.
type Params struct {
	Sigma  int64 // minimum support σ > 0
	Gamma  int   // maximum gap γ ≥ 0
	Lambda int   // maximum pattern length λ ≥ 2
}

// Validate reports whether the parameters satisfy the problem statement
// (σ > 0, γ ≥ 0, λ ≥ 2).
func (p Params) Validate() error {
	if p.Sigma <= 0 {
		return fmt.Errorf("gsm: support σ must be positive, got %d", p.Sigma)
	}
	if p.Gamma < 0 {
		return fmt.Errorf("gsm: gap γ must be non-negative, got %d", p.Gamma)
	}
	if p.Lambda < 2 {
		return fmt.Errorf("gsm: max length λ must be at least 2, got %d", p.Lambda)
	}
	return nil
}

// Pattern is a mined generalized sequence together with its support.
type Pattern struct {
	Items   Sequence
	Support int64
}

// Database is a multiset of input sequences over a shared hierarchy.
type Database struct {
	Seqs   []Sequence
	Forest *hierarchy.Forest
}

// ErrNoForest is returned when a database lacks a hierarchy.
var ErrNoForest = errors.New("gsm: database has no hierarchy")

// Validate checks that every item of every sequence is interned in the
// forest.
func (db *Database) Validate() error {
	if db.Forest == nil {
		return ErrNoForest
	}
	n := hierarchy.Item(db.Forest.Size())
	for i, t := range db.Seqs {
		for j, w := range t {
			if w >= n {
				return fmt.Errorf("gsm: sequence %d position %d: item %d outside vocabulary", i, j, w)
			}
		}
	}
	return nil
}

// String renders a sequence using the forest's item names.
func String(f *hierarchy.Forest, s Sequence) string {
	var b strings.Builder
	for i, w := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(f.Name(w))
	}
	return b.String()
}

// Key returns a compact map key for a sequence (4 bytes per item).
func Key(s Sequence) string {
	buf := make([]byte, 4*len(s))
	for i, w := range s {
		buf[4*i] = byte(w)
		buf[4*i+1] = byte(w >> 8)
		buf[4*i+2] = byte(w >> 16)
		buf[4*i+3] = byte(w >> 24)
	}
	return string(buf)
}

// FromKey decodes a Key back into a sequence.
func FromKey(k string) Sequence {
	s := make(Sequence, len(k)/4)
	for i := range s {
		s[i] = hierarchy.Item(k[4*i]) | hierarchy.Item(k[4*i+1])<<8 |
			hierarchy.Item(k[4*i+2])<<16 | hierarchy.Item(k[4*i+3])<<24
	}
	return s
}

// IsGenSubseq reports whether S ⊑γ T: there are indexes i1 < … < in of T
// with T[ij] →* S[j] and at most gamma items between consecutive indexes.
func IsGenSubseq(f *hierarchy.Forest, s, t Sequence, gamma int) bool {
	n, m := len(s), len(t)
	if n == 0 || n > m {
		return n == 0
	}
	// memo[i*m+j]: 0 unknown, 1 yes, 2 no — can S[i:] match with S[i] at T[j]?
	memo := make([]byte, n*m)
	var match func(i, j int) bool
	match = func(i, j int) bool {
		if !f.GeneralizesTo(t[j], s[i]) {
			return false
		}
		if i == n-1 {
			return true
		}
		switch memo[i*m+j] {
		case 1:
			return true
		case 2:
			return false
		}
		hi := j + 1 + gamma
		if hi >= m {
			hi = m - 1
		}
		for jn := j + 1; jn <= hi; jn++ {
			if match(i+1, jn) {
				memo[i*m+j] = 1
				return true
			}
		}
		memo[i*m+j] = 2
		return false
	}
	for j := 0; j+n <= m; j++ {
		if match(0, j) {
			return true
		}
	}
	return false
}

// Frequency computes f_γ(S, D): the number of database sequences T with
// S ⊑γ T.
func Frequency(db *Database, s Sequence, gamma int) int64 {
	var n int64
	for _, t := range db.Seqs {
		if IsGenSubseq(db.Forest, s, t, gamma) {
			n++
		}
	}
	return n
}

// AppendItemGeneralizations appends G1(T) to dst: the distinct items
// occurring in T together with all their generalizations, in ascending
// item order.
func AppendItemGeneralizations(dst []hierarchy.Item, f *hierarchy.Forest, t Sequence) []hierarchy.Item {
	start := len(dst)
	for _, w := range t {
		dst = f.SelfAndAncestors(dst, w)
	}
	slices.Sort(dst[start:])
	return dst[:start+len(slices.Compact(dst[start:]))]
}

// EnumerateGenSubseqs calls fn once for each DISTINCT generalized
// subsequence S ⊑γ T with minLen ≤ |S| ≤ maxLen (the set G_λ(T) of the
// paper when minLen = 2). The callback must not retain the slice; if it
// returns false, enumeration stops early and EnumerateGenSubseqs returns
// false.
//
// A nil accept function enumerates everything; otherwise only positions with
// accept(index)==true may participate (used by the semi-naïve algorithm to
// skip blank positions while preserving the gap structure).
func EnumerateGenSubseqs(f *hierarchy.Forest, t Sequence, gamma, minLen, maxLen int, accept func(int) bool, fn func(Sequence) bool) bool {
	if maxLen < minLen || len(t) == 0 {
		return true
	}
	seen := make(map[string]struct{})
	cur := make(Sequence, 0, maxLen)
	var extend func(last int) bool
	emit := func() bool {
		if len(cur) < minLen {
			return true
		}
		k := Key(cur)
		if _, dup := seen[k]; dup {
			return true
		}
		seen[k] = struct{}{}
		return fn(cur)
	}
	// Note: the generalization list must be a fresh slice per recursion level;
	// a shared scratch buffer would be clobbered by deeper calls while the
	// enclosing range loop is still iterating over it.
	extend = func(last int) bool {
		if len(cur) == maxLen {
			return true
		}
		hi := last + 1 + gamma
		if hi >= len(t) {
			hi = len(t) - 1
		}
		for j := last + 1; j <= hi; j++ {
			if accept != nil && !accept(j) {
				continue
			}
			for _, g := range f.SelfAndAncestors(nil, t[j]) {
				cur = append(cur, g)
				ok := emit() && extend(j)
				cur = cur[:len(cur)-1]
				if !ok {
					return false
				}
			}
		}
		return true
	}
	for i := range t {
		if accept != nil && !accept(i) {
			continue
		}
		for _, g := range f.SelfAndAncestors(nil, t[i]) {
			cur = append(cur[:0], g)
			if !(emit() && extend(i)) {
				return false
			}
		}
	}
	return true
}

// MineBruteForce is the reference GSM miner: it gathers every candidate from
// the G_λ(T) sets and then recomputes each candidate's support with the
// independent IsGenSubseq test. Quadratic and intended only as a test oracle.
func MineBruteForce(db *Database, p Params) []Pattern {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	cands := make(map[string]struct{})
	for _, t := range db.Seqs {
		EnumerateGenSubseqs(db.Forest, t, p.Gamma, 2, p.Lambda, nil, func(s Sequence) bool {
			cands[Key(s)] = struct{}{}
			return true
		})
	}
	var out []Pattern
	for k := range cands {
		s := FromKey(k)
		if f := Frequency(db, s, p.Gamma); f >= p.Sigma {
			out = append(out, Pattern{Items: s, Support: f})
		}
	}
	SortPatterns(out)
	return out
}

// SortPatterns orders patterns by length, then lexicographically by item id,
// providing the canonical output order used across the repository. The sort
// is stable and linear: one counting pass per item position, the last
// position first, where a position past a pattern's end sorts lowest, then
// one pass by length (radix.Sort).
func SortPatterns(ps []Pattern) {
	maxLen, maxItem := 0, uint64(0)
	for _, p := range ps {
		maxLen = max(maxLen, len(p.Items))
		for _, w := range p.Items {
			maxItem = max(maxItem, uint64(w))
		}
	}
	// Key 0 is the length; key k ≥ 1 is item k-1 plus one, or 0 past the end.
	radix.Sort(ps, maxLen+1, max(maxItem+1, uint64(maxLen)), func(p Pattern, k int) uint64 {
		if k == 0 {
			return uint64(len(p.Items))
		}
		if k <= len(p.Items) {
			return uint64(p.Items[k-1]) + 1
		}
		return 0
	})
}

// CompareSeq is SortPatterns' order as a comparison: negative when a sorts
// before b, zero when they are equal, positive otherwise.
func CompareSeq(a, b Sequence) int {
	if len(a) != len(b) {
		return len(a) - len(b)
	}
	return slices.Compare(a, b)
}

// MergeGrown returns the output of a grown partition (LASH's delta mining):
// mined are the patterns that occur in an appended sequence, with their
// supports over the whole partition, and old is the partition's output
// before the append. A pattern occurring in no appended sequence kept its
// support, so it is frequent now iff it is in old; one that is in both takes
// its support from mined. The result is mined, sorted in place, followed by
// the patterns of old that mined lacks, in old's order, their Items copied
// into one new array: it retains neither input, so a chain of merges holds
// no earlier result's memory.
func MergeGrown(mined, old []Pattern) []Pattern {
	SortPatterns(mined)
	out := append(make([]Pattern, 0, len(mined)+len(old)), mined...)
	for _, p := range old {
		if _, found := slices.BinarySearchFunc(mined, p.Items, func(m Pattern, s Sequence) int { return CompareSeq(m.Items, s) }); !found {
			out = append(out, p)
		}
	}
	n := 0
	for _, p := range out {
		n += len(p.Items)
	}
	arena := make(Sequence, 0, n)
	for i := range out {
		start := len(arena)
		arena = append(arena, out[i].Items...)
		out[i].Items = arena[start:len(arena):len(arena)]
	}
	return out
}

// EqualPatterns reports whether two canonical pattern lists are identical.
func EqualPatterns(a, b []Pattern) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Support != b[i].Support || len(a[i].Items) != len(b[i].Items) {
			return false
		}
		for j := range a[i].Items {
			if a[i].Items[j] != b[i].Items[j] {
				return false
			}
		}
	}
	return true
}

// DiffPatterns returns a human-readable diff of two canonical pattern lists
// (for test failure messages).
func DiffPatterns(f *hierarchy.Forest, got, want []Pattern) string {
	gm := map[string]int64{}
	wm := map[string]int64{}
	for _, p := range got {
		gm[Key(p.Items)] = p.Support
	}
	for _, p := range want {
		wm[Key(p.Items)] = p.Support
	}
	var b strings.Builder
	for k, v := range wm {
		if g, ok := gm[k]; !ok {
			fmt.Fprintf(&b, "missing: %s (%d)\n", String(f, FromKey(k)), v)
		} else if g != v {
			fmt.Fprintf(&b, "support mismatch: %s got %d want %d\n", String(f, FromKey(k)), g, v)
		}
	}
	for k, v := range gm {
		if _, ok := wm[k]; !ok {
			fmt.Fprintf(&b, "spurious: %s (%d)\n", String(f, FromKey(k)), v)
		}
	}
	return b.String()
}
