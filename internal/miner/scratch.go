package miner

import (
	"slices"

	"lash/internal/flist"
)

// Scratch is the reusable working set of the local miners. All candidate
// tables, posting arenas, and traversal buffers live here, so that a miner
// invoked repeatedly (one call per partition inside a Reduce worker) performs
// almost no heap allocation after the first few partitions have grown the
// buffers.
//
// The key structural idea (§4.2 of the paper): inside a w-generalized
// partition every rank is bounded by the pivot's rank, so candidate items fit
// a dense rank-indexed table instead of a hash map. Rows carry an epoch
// counter and are invalidated lazily — starting a new expansion node is one
// counter increment, never a table clear. Posting lists are flattened
// (tids/offs/ends arrays) into per-row arenas whose capacity persists across
// expansion nodes, partitions, and miner kinds.
//
// Posting lists exist to be expanded. A pattern of length λ−1 has expansions
// that are emitted and never expanded, so PSM and DFS take that last level
// through count, a table of supports alone (see countTable). The last level
// is where most nodes are: on the text benchmark 57 % of all posting entries
// would be built there, to have only their row's support read.
//
// Contract:
//
//   - A Scratch may be reused freely across Mine calls, partitions, miner
//     kinds, and configurations; every Mine call leaves it ready for the
//     next. This includes Mine calls abandoned mid-run by a panic out of
//     the emit callback (how the cancellation and streaming-abort paths of
//     core.mineJob stop an in-flight miner): all per-call state is
//     re-established at the start of each call and expansion node via
//     epoch bumps, length resets, and cleared-on-reuse buffers, so no
//     structure depends on the previous call having completed.
//   - A Scratch must not be used by two Mine calls concurrently. Give each
//     worker goroutine its own (e.g. via sync.Pool, as core.mineJob does).
//   - Passing a nil *Scratch to Mine is allowed: the miner allocates a
//     private one for that call.
type Scratch struct {
	// RankArena and Seqs are reusable partition-materialization buffers for
	// callers: decode every sequence of a partition back-to-back into
	// RankArena (subslices stay valid even if a later decode grows it) and
	// build the WSeq headers in Seqs. The miners never touch these fields;
	// core.mineJob uses them for zero-alloc partition decode.
	RankArena []flist.Rank
	Seqs      []WSeq

	pattern []flist.Rank

	// Per-pattern-length stacks of candidate tables. Tables at different
	// lengths are live simultaneously (a node iterates its table while its
	// children fill deeper ones); tables at the same length are reused
	// across sibling nodes via the epoch counter.
	right []*postTable // PSM right expansions + DFS projections
	left  []*occTable  // PSM left expansions
	ends  []*endsBuf   // PSM endsOf projections

	// Supports of the last level's candidates (PSM both directions, DFS).
	// One table serves every node: a last-level node reads its supports out
	// before the next one is collected, and has no children.
	count countTable

	// Candidates a grown partition's node reaches in its fresh sequences, as
	// a bitset over ranks (walk.freshBits).
	fresh []uint64

	// PSM anchor scan (flattened aEntry list).
	anchorTids []int32
	anchorOffs []int32
	anchorOccs []occPair

	// PSM right-expansion indexes: one per anchor depth, bitset levels drawn
	// from a shared free list.
	ridx     []rIndex
	bitsFree [][]uint64

	bfs bfsScratch
}

// NewScratch returns an empty Scratch; all buffers grow on demand.
func NewScratch() *Scratch { return &Scratch{} }

func (sc *Scratch) rightAt(level int) *postTable {
	for len(sc.right) <= level {
		sc.right = append(sc.right, &postTable{})
	}
	return sc.right[level]
}

func (sc *Scratch) leftAt(level int) *occTable {
	for len(sc.left) <= level {
		sc.left = append(sc.left, &occTable{})
	}
	return sc.left[level]
}

func (sc *Scratch) endsAt(level int) *endsBuf {
	for len(sc.ends) <= level {
		sc.ends = append(sc.ends, &endsBuf{})
	}
	return sc.ends[level]
}

// maxRankPlus1 returns 1 + the largest real rank occurring in the partition
// (0 when it holds no items): the size of the dense candidate tables.
// Ancestors have strictly smaller ranks than their descendants, so every
// candidate a miner can generate is below this bound.
func maxRankPlus1(p *Partition) int {
	maxR := -1
	for _, ws := range p.Seqs {
		for _, r := range ws.Items {
			if r != flist.NoRank && int(r) > maxR {
				maxR = int(r)
			}
		}
	}
	return maxR + 1
}

// --- flattened posting lists ------------------------------------------------

// postList is a flattened vertical posting list: entry i is sequence tids[i]
// with occurrence end positions ends[offs[i]:offs[i+1]] (offs carries the
// closing sentinel, so len(offs) == len(tids)+1).
type postList struct {
	tids []int32
	offs []int32
	ends []int32
}

// postRow is one dense-table row accumulating a candidate's posting list.
type postRow struct {
	epoch   uint64
	support int64
	tids    []int32
	offs    []int32
	ends    []int32
}

func (r *postRow) list() postList { return postList{r.tids, r.offs, r.ends} }

// postTable is a dense rank-indexed candidate table. begin bumps the epoch
// (lazily invalidating every row), add accumulates an occurrence, finish
// seals the rows and returns the touched ranks in ascending order.
type postTable struct {
	epoch   uint64
	rows    []postRow
	touched []flist.Rank
}

func (t *postTable) begin(n int) {
	if len(t.rows) < n {
		t.rows = append(t.rows, make([]postRow, n-len(t.rows))...)
	}
	t.epoch++
	t.touched = t.touched[:0]
}

// add records occurrence end q of candidate a in sequence tid (weight w).
// Scans visit sequences in ascending tid order and positions in ascending
// order, so entries and per-entry ends stay sorted by construction. With
// dedup, a repeated trailing end position is dropped (the hierarchy-aware
// single-item scans of BFS/DFS).
func (t *postTable) add(a flist.Rank, tid int32, w int64, q int32, dedup bool) {
	row := &t.rows[a]
	if row.epoch != t.epoch {
		row.epoch = t.epoch
		row.support = 0
		row.tids = row.tids[:0]
		row.offs = row.offs[:0]
		row.ends = row.ends[:0]
		t.touched = append(t.touched, a)
	}
	if n := len(row.tids); n == 0 || row.tids[n-1] != tid {
		row.tids = append(row.tids, tid)
		row.offs = append(row.offs, int32(len(row.ends)))
		row.support += w
	}
	if dedup {
		if n := len(row.ends); n > int(row.offs[len(row.offs)-1]) && row.ends[n-1] == q {
			return
		}
	}
	row.ends = append(row.ends, q)
}

func (t *postTable) finish() []flist.Rank {
	slices.Sort(t.touched)
	for _, a := range t.touched {
		row := &t.rows[a]
		row.offs = append(row.offs, int32(len(row.ends)))
	}
	return t.touched
}

// --- support-only candidates (the last level) -------------------------------

// countRow is one candidate of a last-level node: its support so far and the
// last sequence counted into it (scans visit sequences in ascending tid
// order, so that is enough to count each sequence once at its weight). 16
// bytes, so the rows of a text partition (~1.4 k ranks) stay in L1.
type countRow struct {
	epoch   uint32
	tid     int32
	support int64
}

// countTable is the dense candidate table of a pattern of length λ−1, whose
// expansions are emitted and never expanded: it keeps what the emit needs —
// the support — and none of the tids, offsets and positions a postTable or
// occTable would store for a child that does not exist.
type countTable struct {
	epoch   uint32
	rows    []countRow
	touched []flist.Rank
}

func (t *countTable) begin(n int) {
	if len(t.rows) < n {
		t.rows = append(t.rows, make([]countRow, n-len(t.rows))...)
	}
	t.epoch++
	if t.epoch == 0 {
		// The 32-bit epoch of a long-lived pooled Scratch wrapped: a row
		// last written 2³² nodes ago would read as current. Forget them all.
		clear(t.rows)
		t.epoch = 1
	}
	t.touched = t.touched[:0]
}

func (t *countTable) add(a flist.Rank, tid int32, w int64) {
	row := &t.rows[a]
	if row.epoch != t.epoch {
		*row = countRow{epoch: t.epoch, tid: tid, support: w}
		t.touched = append(t.touched, a)
	} else if row.tid != tid {
		row.tid = tid
		row.support += w
	}
}

func (t *countTable) finish() []flist.Rank {
	slices.Sort(t.touched)
	return t.touched
}

// --- flattened occurrence-pair lists (PSM left expansions) ------------------

// occPair is one occurrence of a left-anchor pattern: the positions of its
// first and last matched items.
type occPair struct {
	start, end int32
}

// occList is the flattened aEntry list: entry i is sequence tids[i] with
// occurrence pairs occs[offs[i]:offs[i+1]].
type occList struct {
	tids []int32
	offs []int32
	occs []occPair
}

type occRow struct {
	epoch   uint64
	support int64
	tids    []int32
	offs    []int32
	occs    []occPair
}

func (r *occRow) list() occList { return occList{r.tids, r.offs, r.occs} }

type occTable struct {
	epoch   uint64
	rows    []occRow
	touched []flist.Rank
}

func (t *occTable) begin(n int) {
	if len(t.rows) < n {
		t.rows = append(t.rows, make([]occRow, n-len(t.rows))...)
	}
	t.epoch++
	t.touched = t.touched[:0]
}

func (t *occTable) add(a flist.Rank, tid int32, w int64, pr occPair) {
	row := &t.rows[a]
	if row.epoch != t.epoch {
		row.epoch = t.epoch
		row.support = 0
		row.tids = row.tids[:0]
		row.offs = row.offs[:0]
		row.occs = row.occs[:0]
		t.touched = append(t.touched, a)
	}
	if n := len(row.tids); n == 0 || row.tids[n-1] != tid {
		row.tids = append(row.tids, tid)
		row.offs = append(row.offs, int32(len(row.occs)))
		row.support += w
	}
	row.occs = append(row.occs, pr)
}

// finish deduplicates each entry's occurrence pairs (the same (start,end)
// can arise from different parent occurrences), compacts the arena, seals
// the offsets, and returns the touched ranks ascending.
func (t *occTable) finish() []flist.Rank {
	slices.Sort(t.touched)
	for _, a := range t.touched {
		row := &t.rows[a]
		occs := row.occs
		w := int32(0)
		for i := range row.tids {
			lo := row.offs[i]
			hi := int32(len(occs))
			if i+1 < len(row.offs) {
				hi = row.offs[i+1]
			}
			region := occs[lo:hi]
			slices.SortFunc(region, func(a, b occPair) int {
				if a.start != b.start {
					return int(a.start - b.start)
				}
				return int(a.end - b.end)
			})
			row.offs[i] = w
			for k := range region {
				if k > 0 && region[k] == region[k-1] {
					continue
				}
				occs[w] = region[k]
				w++
			}
		}
		row.occs = occs[:w]
		row.offs = append(row.offs, w)
	}
	return t.touched
}

// endsBuf backs a postList projected from an occList (PSM's endsOf).
type endsBuf struct {
	tids []int32
	offs []int32
	ends []int32
}

// --- right-expansion index (PSM+Index) --------------------------------------

// rIndex is the right-expansion index of §5.2: levels[d-1] holds, as a
// bitset over ranks, the items that were frequent as the d-th right
// expansion of the anchor it was recorded for. Bitset levels are drawn
// lazily from the Scratch free list (mirroring the lazy map allocation this
// replaces) and recycled when the anchor depth is revisited.
type rIndex struct {
	sc     *Scratch
	words  int
	levels [][]uint64
}

// ridxAt returns the rIndex for the given anchor depth, reset for a new
// anchor node. Indexes at different depths are live simultaneously along an
// anchor chain (a child is pruned by its parent's index), so each depth owns
// its own instance.
func (sc *Scratch) ridxAt(level, lambda, words int) *rIndex {
	for len(sc.ridx) <= level {
		sc.ridx = append(sc.ridx, rIndex{})
	}
	x := &sc.ridx[level]
	x.sc = sc
	x.words = words
	full := x.levels[:cap(x.levels)]
	for i := range full {
		if full[i] != nil {
			sc.bitsFree = append(sc.bitsFree, full[i])
			full[i] = nil
		}
	}
	if cap(x.levels) < lambda {
		x.levels = make([][]uint64, lambda)
	} else {
		x.levels = full[:lambda]
	}
	return x
}

func (sc *Scratch) getBits(words int) []uint64 {
	if n := len(sc.bitsFree); n > 0 {
		b := sc.bitsFree[n-1]
		sc.bitsFree = sc.bitsFree[:n-1]
		if cap(b) >= words {
			b = b[:words]
			clear(b)
			return b
		}
	}
	return make([]uint64, words)
}

func (x *rIndex) add(depth int, a flist.Rank) {
	if x == nil {
		return
	}
	lvl := x.levels[depth-1]
	if lvl == nil {
		lvl = x.sc.getBits(x.words)
		x.levels[depth-1] = lvl
	}
	lvl[a>>6] |= 1 << (a & 63)
}
