// Package miner implements the sequential GSM algorithms LASH runs inside
// each partition (§5 of the paper):
//
//   - BFS: a hierarchy-aware adaptation of SPADE — vertical posting lists,
//     level-wise candidate generation, gap-constrained temporal joins
//     (bfs.go).
//   - DFS: a hierarchy-aware adaptation of PrefixSpan — pattern growth with
//     projected databases of occurrence end positions (dfs.go).
//   - PSM: the pivot sequence miner — starts at the pivot and grows patterns
//     with left and right expansions so that only pivot sequences are ever
//     explored; optionally maintains the right-expansion index (psm.go).
//
// All miners operate in rank space (see internal/flist): items are dense
// frequency ranks, blanks are flist.NoRank and match nothing, and the item
// hierarchy is the rank-parent table. Support is weighted: partitions store
// aggregated duplicate sequences (§4.4).
//
// The miners share a reusable working set, Scratch: dense rank-indexed
// candidate tables (candidate ranks inside a partition are bounded by the
// pivot's rank, §4.2), flattened arena-backed posting lists, and per-depth
// bitsets for PSM's right-expansion index. Callers that mine many partitions
// should pool Scratch values (one per worker) and pass them to Mine; the
// hot path then performs no per-expansion allocation.
//
// The pattern-growth miners (PSM, DFS) share their scans (walk.go): each
// climbs the rank-parent chain in place from the item at a position, and
// filters a candidate before anything is stored for it. They keep posting
// lists only for patterns that will be expanded: a pattern of λ−1 items —
// the last level — takes just the supports of its expansions, which are
// emitted (the emit callback is still called per pattern: it is where a
// cancelled job stops the miner) and never grown.
//
// On a grown partition (Partition.Fresh) every collect first runs the same
// scan over the node's occurrences in the fresh sequences alone and filters
// the full scan by what that found, so every child occurs in a fresh
// sequence. Growing S only ever adds items to one end of an occurrence, so a
// pattern occurring in a fresh sequence is reached through parents that all
// do: nothing it needs is pruned, and nothing else is explored.
//
// Given the earlier mine's patterns (Partition.Known), PSM reads old
// sequences only where a support needs them. A pattern Known holds has
// support Known's plus its support over the appended sequences. A pre-pass
// first walks PSM's search tree over the fresh sequences alone, at their
// appended multiplicities, with no σ and no index, so it reaches every node
// the mine can; it stops at each pattern Known does not hold as frequent and
// marks every proper ancestor of one that may reach σ. Without a border,
// every such pattern may. In the mine, a node Known holds and the pre-pass
// left unmarked is lean: it scans its fresh occurrences alone, at their
// appended multiplicities, and its children are lean too. Every other node
// scans in full, as above. A lean root reads no old sequence at all. The
// nodes visited, their order and every support are those of the mine
// without Known; only where a support comes from differs.
//
// The border makes "may reach σ" rare. Every PSM mine can record the
// partition's near-frequent border (Partition.Border): the patterns it
// counted with support in [σ − ⌈σ/4⌉, σ), which the next mine of the grown
// partition restates in Known beside the patterns (Known.AddBorder). An
// entry bounds its pattern's old support; a pattern with no entry that the
// earlier mine counted is below the border, so its old support is at most
// f = max(σ − ⌈σ/4⌉ − 1, 0). The pre-pass stops at a pattern with its bound plus its
// appended support, and marks its ancestors only when that reaches σ. Two
// kinds of pattern were never counted:
//
//   - Right expansions the index pruned. The index prunes c only when its
//     left-trimmed suffix c′ was not frequent, and c's support is at most
//     c′'s: c takes max(f, bound(c′)).
//   - Extensions of a pattern that crossed σ in a grown mine, which counts
//     only what the fresh sequences reach. The crossing pattern keeps its
//     bound from before (Known.AddCrossed) as the bound of its extensions by
//     one item, left or right, until the partition is mined in full again.
//
// A grown mine records the next border: every entry, and every pattern the
// pre-pass stopped at whose bound plus appended support reaches the border,
// with its exact support where a full scan counted it and that sum where
// only the pre-pass did (the supports of a lean node's children Known lacks
// stay bounds), less the entries that crossed σ; what a full node counted;
// and the crossing patterns with their bounds.
package miner

import (
	"fmt"
	"slices"

	"lash/internal/flist"
)

// WSeq is a rank-space sequence with an aggregation weight (the number of
// identical input sequences it stands for).
type WSeq struct {
	Items  []flist.Rank
	Weight int64
}

// Partition is the unit of local mining: the pivot, the rewritten sequences,
// and the rank-parent table describing the hierarchy among frequent items.
type Partition struct {
	Pivot  flist.Rank
	Seqs   []WSeq
	Parent []flist.Rank
	// Fresh, when positive, names Seqs[:Fresh] as the entries holding the
	// sequences appended since the rest of the partition was mined (a grown
	// partition). PSM and DFS then explore only the patterns that occur in
	// one of them, each still with its support over all of Seqs; every other
	// pattern kept the support the earlier mine found, and merging the two is
	// the caller's (gsm.MergeGrown). BFS ignores it and mines everything.
	// Zero mines everything.
	Fresh int
	// Known and Appended, on a grown partition, let PSM (with or without the
	// index) take supports from the earlier mine instead of the old
	// sequences (see the package doc); DFS keeps the grown mine above and
	// BFS ignores both. Known holds every pattern the earlier mine emitted,
	// with its support over the old sequences: those in Seqs[Fresh:] and the
	// old copies an entry of Seqs[:Fresh] may have folded into its Weight.
	// Appended[i], for i < Fresh, is how many appended sequences entry i
	// stands for: its Weight less those copies. Output, emission order and
	// Stats are those of the mine without them. A node that reaches a
	// pattern Known cannot give a support for, or whose support exceeds the
	// bound Known's border gave — which a Known true to the old sequences
	// never lets happen — panics with an error wrapping ErrKnown.
	Known    *Known
	Appended []int64
	// Border, when set, receives PSM's near-frequent border of the
	// partition (see the package doc): each pattern it counted and found
	// below σ but at least σ − ⌈σ/4⌉, with that support — on a grown partition
	// with a bordered Known, a bound on it, Known's entries included — and,
	// with crossed set, each pattern Known lacked that this mine found
	// frequent, with the bound for Known.AddCrossed. A grown partition without
	// Known has its border recorded only where the fresh sequences reach, and
	// one with a Known without a border (Known.SetBordered) none. BFS and DFS
	// record none. The pattern slice is only valid during the call.
	Border func(pattern []flist.Rank, bound int64, crossed bool)
}

// Config carries the local mining parameters.
type Config struct {
	Sigma  int64
	Gamma  int
	Lambda int
	// PivotOnly restricts output to pivot sequences (p(S) = pivot), which is
	// what LASH requires; BFS and DFS still *explore* non-pivot sequences
	// (§5.1 "Overhead") and merely filter at emission. PivotOnly also bounds
	// candidate items to ranks ≤ pivot: on w-generalized partitions this
	// changes nothing (no larger items survive the rewrite), but it keeps
	// p(S) = pivot emission exact on un-rewritten partitions
	// (rewrite.ModeNone, used by the ablation study). When false, all
	// locally frequent sequences of length ≥ 2 are emitted (used for whole-
	// database mining and tests).
	PivotOnly bool
}

// bound returns the largest admissible candidate rank for a partition.
func (c Config) bound(p *Partition) flist.Rank {
	if c.PivotOnly {
		return p.Pivot
	}
	return flist.NoRank
}

// Stats reports the work a miner performed. Explored counts candidate
// sequences whose support was computed — the quantity behind Fig. 4(d).
type Stats struct {
	Explored int64
	Output   int64
}

// Add accumulates counters from another Stats.
func (s *Stats) Add(o Stats) {
	s.Explored += o.Explored
	s.Output += o.Output
}

// Emit receives each frequent pattern (rank space) and its support. The
// pattern slice is only valid during the call.
type Emit func(pattern []flist.Rank, support int64)

// Miner is a local GSM mining algorithm. Mine accumulates all intermediate
// state in sc, which may be reused across calls (see Scratch for the reuse
// contract); a nil sc makes Mine allocate a private scratch.
type Miner interface {
	Mine(p *Partition, cfg Config, sc *Scratch, emit Emit) Stats
}

// Kind selects a local miner implementation.
type Kind int

const (
	// KindPSM is the pivot sequence miner with the right-expansion index
	// (the paper's "PSM + Index", LASH's default).
	KindPSM Kind = iota
	// KindPSMNoIndex is PSM without the right-expansion index.
	KindPSMNoIndex
	// KindBFS is the hierarchy-aware SPADE adaptation.
	KindBFS
	// KindDFS is the hierarchy-aware PrefixSpan adaptation.
	KindDFS
)

// String names the miner kind as used in the paper's figures.
func (k Kind) String() string {
	switch k {
	case KindPSM:
		return "PSM+Index"
	case KindPSMNoIndex:
		return "PSM"
	case KindBFS:
		return "BFS"
	case KindDFS:
		return "DFS"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// New constructs the local miner of the given kind.
func New(k Kind) Miner {
	switch k {
	case KindPSM:
		return &PSM{UseIndex: true}
	case KindPSMNoIndex:
		return &PSM{}
	case KindBFS:
		return BFS{}
	case KindDFS:
		return DFS{}
	}
	panic("miner: unknown kind")
}

// nearSigma is the lowest support of the near-frequent border for σ:
// σ − ⌈σ/4⌉.
func nearSigma(sigma int64) int64 { return sigma - (sigma+3)/4 }

// ContainsPivot reports whether a rank pattern contains the pivot. A
// partition may hold ranks above the pivot (rewrite.ModeNone partitions do),
// but with PivotOnly set the miners expand no candidate above it (walk.bound),
// so on the patterns they build this is equivalent to p(S) = pivot.
func ContainsPivot(pattern []flist.Rank, pivot flist.Rank) bool {
	for _, r := range pattern {
		if r == pivot {
			return true
		}
	}
	return false
}

// sortUniqueTail sorts dst[start:] ascending, removes duplicates in place,
// and returns dst truncated after the unique region.
func sortUniqueTail(dst []int32, start int) []int32 {
	region := dst[start:]
	slices.Sort(region)
	return dst[:start+len(slices.Compact(region))]
}
