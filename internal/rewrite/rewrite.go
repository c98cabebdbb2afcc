// Package rewrite implements LASH's partition construction (§4 of the
// paper): for a pivot item w, an input sequence T is rewritten into a
// w-equivalent sequence P_w(T) that is as short as possible while generating
// exactly the same set of pivot sequences G_{w,λ}(T).
//
// The rewrites, applied in order:
//
//  1. w-generalization (§4.2): every item is replaced by its deepest
//     frequent ancestor-or-self with rank ≤ pivot; items without one become
//     blanks.
//  2. Unreachability reduction (§4.3): left/right pivot distances are
//     computed (chains of non-blank indexes obeying the gap constraint);
//     indexes whose minimum distance exceeds λ cannot participate in any
//     pivot sequence and are blanked. (The paper deletes them; deleting
//     interior indexes would shrink gaps between survivors and could admit
//     sequences that are not ⊑γ-valid in T, so we blank instead — the blank
//     compression below recovers the same effect, and at the sequence edges
//     trimming makes the two formulations identical.)
//  3. Isolated pivots — pivots with no non-blank item within gap γ — are
//     blanked; they cannot appear in any pattern of length ≥ 2.
//  4. Blank runs longer than γ+1 collapse to exactly γ+1 (both are
//     impassable under the gap constraint, and shorter crossings are
//     unchanged); leading and trailing blanks are trimmed.
//
// Nothing is emitted when no pivot sequence can be generated from T.
//
// # One walk per sequence
//
// A sequence goes to one partition per frequent item of G1(T), so the
// Rewriter splits the work into what is the same for every pivot and what is
// not. Load walks T once and keeps, per position, the rank of the closest
// frequent ancestor-or-self, and one list of (rank, position) occurrences
// over every frequent generalization, sorted. Read in order, the list's
// distinct ranks are the pivots of T ascending (flist.PivotRanks) and each
// pivot's entries are its positions; Next steps through them. The list is
// also step 1 for every pivot: ancestors always rank lower (§3.3), so as the
// pivot grows an item's w-generalization only moves down its ancestor chain,
// and it moves exactly at the item's own occurrence entries. Writing each
// entry's rank to its position as Next passes it keeps the w-generalization
// of all of T current at the cost of one store per entry per sequence.
// Load copies what it needs; it does not retain t.
//
// # The window lemma
//
// Steps 2–4 look only at the indexes within R = (λ−1)(γ+1) of an occurrence
// of the pivot; everything else is blank in P_w(T) without being read. A
// chain of step 2 has at most λ indexes, consecutive ones at most γ+1 apart,
// so it spans at most R indexes from its pivot: an index farther than R from
// every occurrence has both distances above λ and is blanked. Conversely the
// chain that gives an index a distance ≤ λ lies between that index and its
// pivot, inside the pivot's window [pos−R, pos+R], so distances computed
// inside the union of overlapping windows, seeing nothing outside it, are
// exact wherever they are ≤ λ and above λ wherever the true distance is —
// and the blanking asks nothing else of them. R ≥ γ+1 puts every index the
// isolated-pivot test reads inside the pivot's own window. This is exact
// because step 2 blanks instead of deleting: positions never shift, so what
// lies between two windows is a run of blanks of known length, which step 4
// counts into the run it is collapsing.
package rewrite

import (
	"slices"

	"lash/internal/flist"
	"lash/internal/gsm"
)

// Mode selects how much of the rewrite pipeline runs; the weaker modes are
// correct (w-equivalent) but increasingly wasteful, and exist for the
// ablation study of the §4 discussion (skew, redundant computation,
// communication cost of the trivial partitioning P_w(T) = T).
type Mode int

const (
	// ModeFull applies the whole pipeline (LASH's default).
	ModeFull Mode = iota
	// ModeGeneralizeOnly applies w-generalization but none of the length
	// reductions (no unreachability removal, no isolated-pivot removal, no
	// blank compression or trimming).
	ModeGeneralizeOnly
	// ModeNone emits the input sequence essentially verbatim: each item is
	// replaced by its closest frequent ancestor-or-self (which preserves all
	// frequent patterns) with no pivot-specific work at all — the paper's
	// "simple and correct approach ... P_w(T) = T".
	ModeNone
)

// String names the mode for reports.
func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "full"
	case ModeGeneralizeOnly:
		return "generalize-only"
	case ModeNone:
		return "none"
	}
	return "Mode(?)"
}

// Rewriter rewrites input sequences for a fixed (γ, λ) and f-list: Load a
// sequence, then step through its pivots with Next and take each pivot's
// P_w(T) from Rewritten. It is not safe for concurrent use; create one per
// worker.
type Rewriter struct {
	fl     *flist.FList
	gamma  int
	lambda int

	// Mode selects the rewrite strength (default ModeFull).
	Mode Mode

	// The loaded sequence: a copy of its items (Rewrite compares against
	// it), per position the closest frequent ancestor-or-self rank, and the
	// sorted occurrences rank<<32 | position of every frequent
	// generalization. occ[lo:hi] are the current pivot's, and cur is the
	// sequence w-generalized for it: occ[:hi] written out in order.
	seq    gsm.Sequence
	base   []flist.Rank
	occ    []uint64
	lo, hi int
	cur    []flist.Rank

	// Per-pivot scratch: the pivot distances, indexed by position and valid
	// inside the windows only, and the pivot's output so far.
	left  []int32
	right []int32
	out   []flist.Rank
}

// NewRewriter returns a Rewriter for the given f-list and constraints.
func NewRewriter(fl *flist.FList, gamma, lambda int) *Rewriter {
	return &Rewriter{fl: fl, gamma: gamma, lambda: lambda}
}

// Load makes t the current sequence, positioned before its first pivot. It
// is the one walk over t that all of its pivots share.
func (rw *Rewriter) Load(t gsm.Sequence) {
	parent := rw.fl.ParentTable()
	rw.seq = append(rw.seq[:0], t...)
	rw.base, rw.occ, rw.cur = rw.base[:0], rw.occ[:0], rw.cur[:0]
	rw.lo, rw.hi = 0, 0
	for i, w := range t {
		r := rw.fl.FrequentRank(w)
		rw.base = append(rw.base, r)
		rw.cur = append(rw.cur, flist.NoRank)
		// A frequent item's ancestors are all frequent (flist.Build checks
		// it), so the frequent generalizations of t[i] are r's ancestors.
		for ; r != flist.NoRank; r = parent[r] {
			rw.occ = append(rw.occ, uint64(r)<<32|uint64(i))
		}
	}
	slices.Sort(rw.occ)
	if n := len(t); cap(rw.left) < n {
		rw.left = make([]int32, n)
		rw.right = make([]int32, n)
	}
}

// Next advances to the loaded sequence's next pivot in ascending rank order
// and returns it; ok is false once the pivots are exhausted. The pivots are
// the distinct frequent ranks of G1(T) — the partitions T contributes to
// (Alg. 1, line 2).
func (rw *Rewriter) Next() (pivot flist.Rank, ok bool) {
	return rw.seek(rw.hi)
}

// seek makes the pivot whose occurrences start at occ[lo] current and brings
// cur up to it.
func (rw *Rewriter) seek(lo int) (pivot flist.Rank, ok bool) {
	if lo < rw.hi {
		// Backwards (Rewrite only): cur moves one way, so start over.
		for i := range rw.cur {
			rw.cur[i] = flist.NoRank
		}
		rw.hi = 0
	}
	rw.lo = lo
	if lo == len(rw.occ) {
		return flist.NoRank, false
	}
	pivot = rank(rw.occ[lo])
	for ; rw.hi < len(rw.occ) && rank(rw.occ[rw.hi]) <= pivot; rw.hi++ {
		rw.cur[position(rw.occ[rw.hi])] = rank(rw.occ[rw.hi])
	}
	return pivot, true
}

// Rewrite computes P_w(T) in rank space for the given pivot, appending to
// dst; when nothing is to be emitted it returns dst as it came (see
// Rewritten). It is the one-call form bench/replay.go and the tests use:
// t is loaded only if its items differ from the loaded sequence's, so
// rewriting one sequence for many pivots costs one Load, in any pivot order.
func (rw *Rewriter) Rewrite(dst []flist.Rank, t gsm.Sequence, pivot flist.Rank) []flist.Rank {
	if !slices.Equal(rw.seq, t) {
		rw.Load(t)
	}
	lo, _ := slices.BinarySearch(rw.occ, uint64(pivot)<<32)
	if lo == len(rw.occ) || rank(rw.occ[lo]) != pivot {
		return dst // pivot ∉ G1(T)
	}
	rw.seek(lo)
	return rw.Rewritten(dst)
}

// Rewritten appends P_w(T) for the current pivot w (the last one Next
// returned) of the loaded sequence to dst. When the rewritten sequence cannot
// contribute any pivot sequence — no pivot survives, or fewer than two items
// remain — it returns dst unchanged, never a shorter or a fresh slice, so a
// caller's buffer keeps its capacity.
func (rw *Rewriter) Rewritten(dst []flist.Rank) []flist.Rank {
	occ := rw.occ[rw.lo:rw.hi]
	if len(occ) == 0 {
		return dst
	}
	n := len(rw.base)
	if rw.Mode == ModeNone {
		// No pivot-specific work: closest frequent ancestor-or-self per item
		// (every frequent pattern of T is preserved; the pivot survives as a
		// descendant-or-self of itself). Emitted for every pivot — this is
		// the replication the rewrites exist to avoid.
		if n < 2 {
			return dst
		}
		return append(dst, rw.base...)
	}
	if rw.Mode == ModeGeneralizeOnly {
		nonBlank := 0
		for _, r := range rw.cur {
			if r != flist.NoRank {
				nonBlank++
			}
		}
		if nonBlank < 2 {
			return dst
		}
		return append(dst, rw.cur...)
	}

	pivot := rank(occ[0])
	g, lam := rw.gamma, int32(rw.lambda)
	radius := (rw.lambda - 1) * (g + 1)
	out := rw.out[:0]
	anyPivot := false
	run := 0 // blanks since the last item written to out, windows and gaps alike
	end := 0 // first index past the previous window
	for k := 0; k < len(occ); {
		// The window [a, b): the union of the radius around this occurrence
		// and around every later one whose own window touches it.
		a, b := max(0, position(occ[k])-radius), position(occ[k])+radius+1
		for k++; k < len(occ) && position(occ[k])-radius <= b; k++ {
			b = position(occ[k]) + radius + 1
		}
		b = min(b, n)
		w, left, right := rw.cur[a:b], rw.left[a:b], rw.right[a:b]

		// Step 2, right to left: right[i] is the size of the smallest chain of
		// decreasing indexes from a pivot index to i where intermediate
		// indexes are non-blank and consecutive indexes are at most γ apart.
		// Sizes above λ are all alike, so λ+1 stands for every one of them —
		// and for a blank index, which no chain may pass through.
		for i := len(w) - 1; i >= 0; i-- {
			d := lam
			for j := min(len(w)-1, i+1+g); j > i; j-- {
				d = min(d, right[j])
			}
			d++
			if w[i] == flist.NoRank {
				d = lam + 1
			}
			if w[i] == pivot {
				d = 1
			}
			right[i] = d
		}
		// Left to right: left[i], symmetric, then the rest of the pipeline on
		// index i, whose fate is settled once both distances are known.
		run += a - end // the indexes between two windows are blank
		for i, r := range w {
			d := lam
			for j := max(0, i-1-g); j < i; j++ {
				d = min(d, left[j])
			}
			d++
			if r == flist.NoRank {
				d = lam + 1
			}
			if r == pivot {
				d = 1
			}
			left[i] = d
			if min(d, right[i]) > lam {
				r = flist.NoRank // unreachable
			}
			// Step 3: an isolated pivot — no non-blank index within gap γ —
			// participates in no pattern of length ≥ 2. The test may read w:
			// step 2 never blanks an index that close to a pivot, its distance
			// being 2.
			if r == pivot {
				isolated := true
				for j := max(0, i-1-g); j < min(len(w), i+2+g) && isolated; j++ {
					isolated = j == i || w[j] == flist.NoRank
				}
				if isolated {
					r = flist.NoRank
				} else {
					anyPivot = true
				}
			}
			// Step 4: blank runs shrink to at most γ+1, the edges to nothing.
			if r == flist.NoRank {
				run++
				continue
			}
			if len(out) > 0 {
				for c := min(run, g+1); c > 0; c-- {
					out = append(out, flist.NoRank)
				}
			}
			out = append(out, r)
			run = 0
		}
		end = b
	}
	rw.out = out
	if !anyPivot {
		return dst
	}
	// A surviving pivot has a surviving neighbour, so out holds ≥ 2 items.
	return append(dst, out...)
}

// rank and position take an occurrence entry rank<<32 | position apart.
func rank(o uint64) flist.Rank { return flist.Rank(o >> 32) }
func position(o uint64) int    { return int(uint32(o)) }
