package miner

import (
	"fmt"
	"slices"

	"lash/internal/flist"
)

// PSM is the pivot sequence miner (§5.2 of the paper). It explores only
// pivot sequences by growing patterns from the pivot item outwards, using
// the unique decomposition S = Sl·w·Sr with w ∉ Sr:
//
//   - right expansions never append the pivot (those patterns are reached
//     through a longer left part instead), and
//   - left expansions are never applied to a pattern that resulted from a
//     right expansion.
//
// With UseIndex, PSM additionally records, for every left-anchor and depth d,
// the set of items that were frequent as the d-th right expansion; after a
// further left expansion, right candidates at depth d are restricted to that
// set (sound by support monotonicity, Lemma 1) without computing their
// support — the "PSM + Index" variant of Fig. 4(c,d).
//
// Candidates are accumulated in the dense rank-indexed tables of Scratch
// (every rank in the partition is bounded by the pivot's rank, §4.2), and
// the index is a per-depth bitset; the hot path allocates nothing once the
// scratch buffers have grown.
//
// Each node builds only what a later step reads. A candidate the pivot rule
// or the index rules out is dropped inside the scan, before a posting is
// stored for it. A pattern of λ−1 items — the last level, where most nodes
// of the search tree are — has expansions that are emitted and never
// expanded: both directions take their supports alone (Scratch's count
// table), with no posting lists, no occurrence pairs to sort and dedupe, no
// end projection and no index level, since nothing would read them. Output,
// supports, emit order and Stats are those of the miner that built them all.
type PSM struct {
	UseIndex bool
}

// Mine implements Miner. PSM produces pivot sequences natively, so the
// PivotOnly flag is effectively always on.
func (m *PSM) Mine(p *Partition, cfg Config, sc *Scratch, emit Emit) Stats {
	if sc == nil {
		sc = NewScratch()
	}
	run := newPSMRun(p, cfg, sc, emit, m.UseIndex)
	run.run()
	sc.pattern = run.pattern[:0]
	return run.stats
}

// Prepass runs PSM's pre-pass (see the package doc) over a grown partition
// with Known, reading Seqs[:Fresh] alone, and reports whether it leaves the
// root lean: a mine of the partition then reads no sequence past Fresh, and
// the caller may leave them out of Seqs. Known keeps the outcome for that
// mine, which runs the pre-pass itself when no caller has. It reports false
// for any other partition.
func Prepass(p *Partition, cfg Config, sc *Scratch) bool {
	if p.Known == nil || p.Fresh == 0 || cfg.Lambda < 2 {
		return false
	}
	if sc == nil {
		sc = NewScratch()
	}
	run := newPSMRun(p, cfg, sc, nil, false)
	lean := run.prepass() == nodeLean
	sc.pattern = run.pattern[:0]
	return lean
}

func newPSMRun(p *Partition, cfg Config, sc *Scratch, emit Emit, useIndex bool) *psmRun {
	// Every candidate is at most the pivot, so that bounds the tables.
	n := int(p.Pivot) + 1
	near := nearSigma(cfg.Sigma)
	return &psmRun{
		walk: walk{p: p, cfg: cfg, bound: p.Pivot, sc: sc, n: n},
		//lashvet:ignore emitgo psmRun is call-scoped traversal state; Mine returns before the struct is released and emit never crosses a goroutine
		emit: emit, useIndex: useIndex, words: (n + 63) / 64,
		near: near, floor: max(near-1, 0),
		recording: p.Border != nil && (p.Known == nil || p.Known.bordered),
		pattern:   append(sc.pattern[:0], p.Pivot),
	}
}

type psmRun struct {
	walk     // bound is the pivot: pivot sequences never contain larger items
	emit     Emit
	useIndex bool
	stats    Stats
	words    int // bitset words per index level

	// near is the lowest support of the near-frequent border, floor the
	// bound of a counted pattern below it; recording: the mine reports the
	// partition's border (Partition.Border).
	near, floor int64
	recording   bool

	pattern []flist.Rank
}

// nodeKind is how a node of a grown partition with Partition.Known takes its
// children's supports. Every node of any other partition is nodeFull.
type nodeKind uint8

const (
	// nodeFull: a pattern Known lacks. Its children scan every occurrence,
	// and Known lacks them too.
	nodeFull nodeKind = iota
	// nodeMarked: a pattern Known holds, with a descendant the fresh
	// sequences reach that Known lacks and that may reach σ. Its children
	// scan every occurrence.
	nodeMarked
	// nodeLean: a pattern Known holds, and every descendant the fresh
	// sequences reach is one Known holds or one whose support it bounds
	// below σ. Its children scan the fresh occurrences alone: support =
	// support in Known + support over the appended sequences.
	nodeLean
)

// node is a search node's kind and, for a nodeFull node on a grown partition
// with a bordered Known, a bound on its support over the old sequences: the
// bound Known gave the pattern it crossed σ from (see Known.AddCrossed).
type node struct {
	kind  nodeKind
	bound int64
}

func (d *psmRun) run() {
	if d.cfg.Lambda < 2 {
		return // a pattern has at least two items
	}
	p := d.p
	root, hi := node{kind: nodeFull}, len(p.Seqs)
	if p.Known != nil && p.Fresh > 0 {
		// If nothing the fresh sequences reach may cross σ without Known
		// giving its support, neither does the mine read the rest.
		if root.kind = d.prepass(); root.kind == nodeLean {
			hi = p.Fresh
		}
	}
	d.anchors(0, hi)
	if len(d.sc.anchorTids) > 0 {
		d.expandAnchor(d.anchorList(), nil, root)
	}
	if d.recording && p.Known != nil {
		d.reportBorder()
	}
}

// prepass runs the pre-pass, unless Known holds its outcome, and returns the
// root's kind: lean, or marked.
func (d *psmRun) prepass() nodeKind {
	k := d.p.Known
	if !k.prepassed {
		d.anchors(0, d.p.Fresh)
		n := len(k.sups)
		k.marked = slices.Grow(k.marked[:0], n)[:n]
		clear(k.marked)
		k.leanRoot = !d.markAnchor(d.anchorList(), -1)
		k.prepassed = true
	}
	if k.leanRoot {
		return nodeLean
	}
	return nodeMarked
}

// anchors makes the anchor list the occurrences of the pivot itself in
// Seqs[lo:hi]: positions whose item generalizes to the pivot. (After
// w-generalization these are exactly the positions equal to the pivot, but
// accepting descendants keeps PSM correct on arbitrary partitions.) Parents
// have smaller ranks, so the climb stops below the pivot.
func (d *psmRun) anchors(lo, hi int) {
	sc := d.sc
	sc.anchorTids, sc.anchorOffs, sc.anchorOccs = sc.anchorTids[:0], sc.anchorOffs[:0], sc.anchorOccs[:0]
	parent, pivot := d.p.Parent, d.p.Pivot
	for tid := lo; tid < hi; tid++ {
		for pos, a := range d.p.Seqs[tid].Items {
			for a > pivot && a != flist.NoRank && int(a) < len(parent) {
				a = parent[a]
			}
			if a != pivot {
				continue
			}
			if n := len(sc.anchorTids); n == 0 || sc.anchorTids[n-1] != int32(tid) {
				sc.anchorTids = append(sc.anchorTids, int32(tid))
				sc.anchorOffs = append(sc.anchorOffs, int32(len(sc.anchorOccs)))
			}
			sc.anchorOccs = append(sc.anchorOccs, occPair{int32(pos), int32(pos)})
		}
	}
	sc.anchorOffs = append(sc.anchorOffs, int32(len(sc.anchorOccs)))
}

// anchorList is the anchor list anchors built.
func (d *psmRun) anchorList() occList {
	return occList{d.sc.anchorTids, d.sc.anchorOffs, d.sc.anchorOccs}
}

// markAnchor is the pre-pass at a left-anchor pattern, Known's entry pi (-1
// at the root): it walks the search tree below it as expandAnchor does, over
// the fresh sequences alone at their appended multiplicities, with no σ and
// no right-expansion index — so it reaches every node the mine can reach from
// the fresh sequences, and more. It stops at each pattern Known does not hold
// as frequent (stop), marks (Known.marked) each pattern Known holds that has
// a descendant which may reach σ, and reports whether the anchor has one.
func (d *psmRun) markAnchor(anchor occList, pi int32) bool {
	k := d.p.Known
	last := len(d.pattern) == d.cfg.Lambda-1
	need := d.markRight(d.endsOf(anchor), pi)
	var lt *occTable
	if !last {
		lt = d.sc.leftAt(len(d.pattern))
	}
	for _, a := range d.scanLeft(anchor, lt, nil, d.p.Appended) {
		if i := k.find(d.pattern, a, true); i < 0 || !k.frequent(i) {
			var s int64
			if last {
				s = d.sc.count.rows[a].support
			} else {
				s = lt.rows[a].support
			}
			need = d.stop(pi, i, a, true, s) || need
		} else if !last {
			d.prepend(a)
			if d.markAnchor(lt.rows[a].list(), i) {
				k.marked[i], need = true, true
			}
			d.unprepend()
		}
	}
	return need
}

// markRight is markAnchor's pre-pass along a right-expansion chain.
func (d *psmRun) markRight(state postList, pi int32) bool {
	k := d.p.Known
	last := len(d.pattern) == d.cfg.Lambda-1
	var rt *postTable
	if !last {
		rt = d.sc.rightAt(len(d.pattern))
	}
	need := false
	for _, a := range d.scanRight(state, rt, d.p.Pivot, nil, d.p.Appended) {
		if i := k.find(d.pattern, a, false); i < 0 || !k.frequent(i) {
			need = d.stop(pi, i, a, false, d.rightSupport(rt, a)) || need
		} else if !last {
			d.pattern = append(d.pattern, a)
			if d.markRight(rt.rows[a].list(), i) {
				k.marked[i], need = true, true
			}
			d.pattern = d.pattern[:len(d.pattern)-1]
		}
	}
	return need
}

// stop is the pre-pass at a child Known does not hold as frequent: the
// current pattern's child by a (prepended when left), with Known's border
// entry i (-1 if none), the current pattern's entry pi, and appended support
// s. It reports whether the child may reach σ — without a border, always. It
// gives the child's entry its appended support, or adds the child as a
// border entry when its bound reaches the border, so that the mine and the
// next record see it.
func (d *psmRun) stop(pi, i int32, a flist.Rank, left bool, s int64) bool {
	k := d.p.Known
	if !k.bordered {
		return true
	}
	b := d.oldBound(pi, i, a, left)
	if i >= 0 {
		k.ext[i] = s
	} else if b+s >= d.near {
		k.addChild(d.pattern, a, left, b, s)
	}
	return b+s >= d.cfg.Sigma
}

// oldBound bounds the old support of the current pattern's child by a
// (prepended when left), which Known does not hold as frequent, from its
// border entry i when it has one. Otherwise the previous mine counted the
// child and found it below the border (floor); or never counted it, as the
// extension of a pattern that crossed σ in a grown run since (Known.ext of
// the parent pi, or of a right child's left-trimmed suffix); or had the
// right-expansion index prune it, which happens only when that suffix was
// not frequent, and then the suffix's own bound holds for it.
func (d *psmRun) oldBound(pi, i int32, a flist.Rank, left bool) int64 {
	k := d.p.Known
	if i >= 0 {
		return k.sups[i]
	}
	b := d.floor
	if pi >= 0 {
		b = max(b, k.ext[pi])
	}
	if left {
		return b // its suffix is its parent
	}
	for c := d.pattern; len(c) > 1 && ContainsPivot(c[1:], d.p.Pivot); {
		c = c[1:]
		switch j := k.find(c, a, false); {
		case j >= 0 && k.kind[j] == knownBorder:
			return max(b, k.sups[j])
		case j >= 0:
			return max(b, k.ext[j])
		}
		// The suffix c·a has no entry either: bound it the same way. Its
		// parent is c, a suffix of a frequent pattern.
		if k.crossed {
			if pj := k.find(c[:len(c)-1], c[len(c)-1], false); pj >= 0 {
				b = max(b, k.ext[pj])
			}
		}
	}
	return b
}

// prepend puts a in front of the current pattern; unprepend takes it off.
func (d *psmRun) prepend(a flist.Rank) {
	d.pattern = append(d.pattern, 0)
	copy(d.pattern[1:], d.pattern)
	d.pattern[0] = a
}

func (d *psmRun) unprepend() {
	copy(d.pattern, d.pattern[1:])
	d.pattern = d.pattern[:len(d.pattern)-1]
}

// child returns the support of the current pattern's child by a (prepended
// when left) and the child's node, given the parent node n and the support
// the parent's scan found for it. On a grown partition with a bordered Known
// it also records what the scan learnt of Known's border, and reports the
// border (Partition.Border) below a nodeFull parent. A lean parent's child
// must be lean, or bounded below σ by the pre-pass; a child's exact support
// must stay within Known's bound: anything else means Known and the old
// sequences disagree, and the mine panics with an error wrapping ErrKnown
// rather than emit a wrong support.
func (d *psmRun) child(n node, a flist.Rank, left bool, scanned int64) (int64, node) {
	if n.kind == nodeFull {
		if d.recording && scanned >= d.near {
			d.reportFull(a, left, scanned, n.bound)
		}
		return scanned, n
	}
	k := d.p.Known
	sigma := d.cfg.Sigma
	if n.kind == nodeMarked && len(d.pattern)+1 == d.cfg.Lambda && (!k.bordered || scanned < sigma) {
		// A pattern of λ items has no children; a border entry keeps the
		// pre-pass's bound.
		return scanned, node{kind: nodeFull}
	}
	i := k.find(d.pattern, a, left)
	if i >= 0 && k.frequent(i) {
		switch {
		case n.kind == nodeLean && k.marked[i]:
			panic(d.errKnown(a, left))
		case n.kind == nodeLean:
			return k.sups[i] + scanned, node{kind: nodeLean}
		case k.marked[i]:
			return scanned, node{kind: nodeMarked}
		}
		return scanned, node{kind: nodeLean}
	}
	switch {
	case !k.bordered:
		if n.kind == nodeLean {
			panic(d.errKnown(a, left))
		}
		return scanned, node{kind: nodeFull}
	case n.kind == nodeLean:
		// The pre-pass bounded the child below σ, or it would have marked
		// the parent: it is not frequent, whatever its old support.
		v := scanned
		if i >= 0 {
			v = k.sups[i] + k.ext[i]
		}
		if v >= sigma {
			panic(d.errKnown(a, left))
		}
		return v, node{kind: nodeFull}
	case i < 0:
		// The pre-pass bounded the child below the border.
		if scanned >= d.near {
			panic(d.errKnown(a, left))
		}
		return scanned, node{kind: nodeFull}
	}
	// A marked parent scanned every occurrence: the support is exact.
	bound := k.sups[i]
	if scanned > bound+k.ext[i] {
		panic(d.errKnown(a, left))
	}
	if scanned < sigma {
		k.sups[i], k.ext[i] = scanned, 0
		return scanned, node{kind: nodeFull}
	}
	k.kind[i] = knownCrossed
	if d.recording && len(d.pattern)+1 < d.cfg.Lambda {
		d.report(a, left, bound, true)
	}
	return scanned, node{kind: nodeFull, bound: bound}
}

// errKnown is the ErrKnown a mine panics with at the current pattern's child
// by a.
func (d *psmRun) errKnown(a flist.Rank, left bool) error {
	return fmt.Errorf("%w: pivot %d, pattern %v, item %d (left %v)", ErrKnown, d.p.Pivot, d.pattern, a, left)
}

// reportFull reports a nodeFull node's child of support s, at least the
// border's: below σ as a border pattern; at or above it, on a grown partition
// with Known and when the child has children, as crossed with the parent's
// bound.
func (d *psmRun) reportFull(a flist.Rank, left bool, s, bound int64) {
	switch {
	case s < d.cfg.Sigma:
		d.report(a, left, s, false)
	case d.p.Known != nil && len(d.pattern)+1 < d.cfg.Lambda:
		d.report(a, left, bound, true)
	}
}

// report hands the current pattern's child by a (prepended when left) to
// Partition.Border.
func (d *psmRun) report(a flist.Rank, left bool, bound int64, crossed bool) {
	if left {
		d.prepend(a)
		d.p.Border(d.pattern, bound, crossed)
		d.unprepend()
		return
	}
	d.pattern = append(d.pattern, a)
	d.p.Border(d.pattern, bound, crossed)
	d.pattern = d.pattern[:len(d.pattern)-1]
}

// reportBorder ends a mine with a bordered Known by reporting the border
// entries no child has crossed, each with what is now known of it: its
// exact support where a scan counted it, else its bound plus its appended
// support. Those below the border drop out.
func (d *psmRun) reportBorder() {
	k := d.p.Known
	for i, kind := range k.kind {
		if v := k.sups[i] + k.ext[i]; kind == knownBorder && v >= d.near {
			d.p.Border(k.pattern(int32(i)), v, false)
		}
	}
}

// expandAnchor handles a left-anchor pattern (of the form Sl·w) shorter than
// λ: first all right-expansion chains, then the left expansions, each
// recursing as a new anchor (Alg. 2 lines 16-22) unless it has reached λ.
func (d *psmRun) expandAnchor(anchor occList, parentIdx *rIndex, n node) {
	last := len(d.pattern) == d.cfg.Lambda-1
	if n.kind == nodeLean {
		anchor = d.freshOccs(anchor)
	}
	// The right expansions of an anchor of length k record into its index
	// for the anchors of length k+1 to consult. At length λ−1 those children
	// have length λ and expand nothing, so there is no index to keep.
	var myIdx *rIndex
	if d.useIndex && !last {
		myIdx = d.sc.ridxAt(len(d.pattern), d.cfg.Lambda, d.words)
	}
	d.expandRight(d.endsOf(anchor), 1, parentIdx, myIdx, n)

	var lt *occTable
	if !last {
		lt = d.sc.leftAt(len(d.pattern))
	}
	for _, a := range d.collectLeft(anchor, lt, n.kind) {
		d.stats.Explored++
		var support int64
		if last {
			support = d.sc.count.rows[a].support
		} else {
			support = lt.rows[a].support
		}
		support, ck := d.child(n, a, true, support)
		if support < d.cfg.Sigma {
			continue
		}
		d.prepend(a)
		d.emit(d.pattern, support)
		d.stats.Output++
		if !last {
			d.expandAnchor(lt.rows[a].list(), myIdx, ck)
		}
		d.unprepend()
	}
}

// expandRight extends the current pattern (shorter than λ) to the right,
// never with the pivot (it never appears in Sr: unique decomposition) and
// only with items the parent anchor's index holds at this depth. Both tests
// run inside the scan: a candidate they drop has no support computed and
// nothing stored.
func (d *psmRun) expandRight(state postList, depth int, parentIdx, myIdx *rIndex, n node) {
	var allow []uint64
	if parentIdx != nil {
		if allow = parentIdx.levels[depth-1]; allow == nil {
			return // nothing was frequent at this depth under the parent
		}
	}
	last := len(d.pattern) == d.cfg.Lambda-1
	var rt *postTable
	if !last {
		rt = d.sc.rightAt(len(d.pattern))
	}
	var cands []flist.Rank
	if n.kind == nodeLean {
		cands = d.scanRight(d.freshPosts(state), rt, d.p.Pivot, allow, d.p.Appended)
	} else {
		cands = d.collectRight(state, rt, d.p.Pivot, allow)
	}
	for _, a := range cands {
		d.stats.Explored++
		support, ck := d.child(n, a, false, d.rightSupport(rt, a))
		if support < d.cfg.Sigma {
			continue
		}
		d.pattern = append(d.pattern, a)
		d.emit(d.pattern, support)
		d.stats.Output++
		if !last {
			// An anchor of length k records depth d at a pattern of k+d−1
			// items; its children (length k+1) consult depth d at k+d items
			// and a pattern of λ items expands nothing. So what a pattern of
			// λ−1 items would record is never read, and is not recorded.
			myIdx.add(depth, a)
			d.expandRight(rt.rows[a].list(), depth+1, parentIdx, myIdx, ck)
		}
		d.pattern = d.pattern[:len(d.pattern)-1]
	}
}

// collectLeft gathers W^left: the generalizations of items occurring within
// gap γ before any occurrence start. With a table, new occurrences keep the
// old ends so that subsequent right expansions of the extended anchor stay
// exact. With lt nil the anchor is one item short of λ and only supports are
// taken (sc.count): positions need visiting once per sequence, so the
// windows of its occurrences (ascending by start) are merged. On a grown
// partition the candidates are limited to those the anchor's fresh entries
// reach, as in walk.collectRight; a lean anchor, whose entries are all
// fresh, counts them at their appended multiplicities.
func (d *psmRun) collectLeft(anchor occList, lt *occTable, kind nodeKind) []flist.Rank {
	if kind == nodeLean {
		return d.scanLeft(anchor, lt, nil, d.p.Appended)
	}
	var allow []uint64
	if d.p.Fresh > 0 {
		cands := d.scanLeft(d.freshOccs(anchor), nil, nil, nil)
		if len(cands) == 0 {
			return cands
		}
		allow = d.freshBits(cands)
	}
	return d.scanLeft(anchor, lt, allow, nil)
}

// freshOccs returns the entries of an occurrence list that lie in the fresh
// sequences.
func (d *psmRun) freshOccs(l occList) occList {
	k := d.freshEntries(l.tids)
	return occList{l.tids[:k], l.offs[:k+1], l.occs}
}

// scanLeft is collectLeft's scan over every entry of anchor; a candidate
// outside allow (nil allows everything) is dropped before it is stored.
// Sequence tid counts at weight wt[tid], or at its Weight when wt is nil.
func (d *psmRun) scanLeft(anchor occList, lt *occTable, allow []uint64, wt []int64) []flist.Rank {
	ct := &d.sc.count
	if lt != nil {
		lt.begin(d.n)
	} else {
		ct.begin(d.n)
	}
	parent, bound, gamma := d.p.Parent, d.bound, int32(d.cfg.Gamma)
	for i, tid := range anchor.tids {
		seq, weight := d.p.Seqs[tid].Items, d.p.Seqs[tid].Weight
		if wt != nil {
			weight = wt[tid]
		}
		next := int32(0) // first position no earlier window has counted
		for _, oc := range anchor.occs[anchor.offs[i]:anchor.offs[i+1]] {
			lo := max(oc.start-1-gamma, 0)
			if lt == nil {
				lo = max(lo, next)
				next = oc.start
			}
			for q := lo; q < oc.start; q++ {
				for a := seq[q]; a != flist.NoRank; {
					if a <= bound && (allow == nil || allow[a>>6]&(1<<(a&63)) != 0) {
						if lt != nil {
							lt.add(a, tid, weight, occPair{q, oc.end})
						} else {
							ct.add(a, tid, weight)
						}
					}
					if int(a) >= len(parent) {
						break
					}
					a = parent[a]
				}
			}
		}
	}
	if lt != nil {
		// finish deduplicates occurrence pairs (the same (start,end) can
		// arise from different parent occurrences).
		return lt.finish()
	}
	return ct.finish()
}

// endsOf projects anchor occurrences to their distinct end positions.
func (d *psmRun) endsOf(anchor occList) postList {
	eb := d.sc.endsAt(len(d.pattern))
	eb.tids = eb.tids[:0]
	eb.offs = eb.offs[:0]
	eb.ends = eb.ends[:0]
	for i := range anchor.tids {
		start := len(eb.ends)
		for _, oc := range anchor.occs[anchor.offs[i]:anchor.offs[i+1]] {
			eb.ends = append(eb.ends, oc.end)
		}
		eb.ends = sortUniqueTail(eb.ends, start)
		eb.tids = append(eb.tids, anchor.tids[i])
		eb.offs = append(eb.offs, int32(start))
	}
	eb.offs = append(eb.offs, int32(len(eb.ends)))
	return postList{eb.tids, eb.offs, eb.ends}
}
