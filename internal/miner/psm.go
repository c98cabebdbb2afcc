package miner

import "lash/internal/flist"

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
	n := maxRankPlus1(p)
	run := &psmRun{
		walk: walk{p: p, cfg: cfg, bound: p.Pivot, sc: sc, n: n},
		//lashvet:ignore emitgo psmRun is call-scoped traversal state; Mine returns before the struct is released and emit never crosses a goroutine
		emit: emit, useIndex: m.UseIndex, words: (n + 63) / 64,
	}
	run.run()
	sc.pattern = run.pattern[:0]
	cfg.record(run.stats)
	return run.stats
}

type psmRun struct {
	walk     // bound is the pivot: pivot sequences never contain larger items
	emit     Emit
	useIndex bool
	stats    Stats
	words    int // bitset words per index level

	pattern []flist.Rank
}

func (d *psmRun) run() {
	if d.cfg.Lambda < 2 {
		return // a pattern has at least two items
	}
	// Occurrences of the pivot itself: positions whose item generalizes to
	// the pivot. (After w-generalization these are exactly the positions
	// equal to the pivot, but accepting descendants keeps PSM correct on
	// arbitrary partitions.)
	sc := d.sc
	sc.anchorTids = sc.anchorTids[:0]
	sc.anchorOffs = sc.anchorOffs[:0]
	sc.anchorOccs = sc.anchorOccs[:0]
	parent, pivot := d.p.Parent, d.p.Pivot
	for tid, ws := range d.p.Seqs {
		for pos, a := range ws.Items {
			for a != pivot && a != flist.NoRank && int(a) < len(parent) {
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
	if len(sc.anchorTids) == 0 {
		return
	}
	sc.anchorOffs = append(sc.anchorOffs, int32(len(sc.anchorOccs)))
	d.pattern = append(sc.pattern[:0], pivot)
	d.expandAnchor(occList{sc.anchorTids, sc.anchorOffs, sc.anchorOccs}, nil)
}

// expandAnchor handles a left-anchor pattern (of the form Sl·w) shorter than
// λ: first all right-expansion chains, then the left expansions, each
// recursing as a new anchor (Alg. 2 lines 16-22) unless it has reached λ.
func (d *psmRun) expandAnchor(anchor occList, parentIdx *rIndex) {
	last := len(d.pattern) == d.cfg.Lambda-1
	// The right expansions of an anchor of length k record into its index
	// for the anchors of length k+1 to consult. At length λ−1 those children
	// have length λ and expand nothing, so there is no index to keep.
	var myIdx *rIndex
	if d.useIndex && !last {
		myIdx = d.sc.ridxAt(len(d.pattern), d.cfg.Lambda, d.words)
	}
	d.expandRight(d.endsOf(anchor), 1, parentIdx, myIdx)

	var lt *occTable
	if !last {
		lt = d.sc.leftAt(len(d.pattern))
	}
	for _, a := range d.collectLeft(anchor, lt) {
		d.stats.Explored++
		var support int64
		if last {
			support = d.sc.count.rows[a].support
		} else {
			support = lt.rows[a].support
		}
		if support < d.cfg.Sigma {
			continue
		}
		// Prepend a to the pattern.
		d.pattern = append(d.pattern, 0)
		copy(d.pattern[1:], d.pattern)
		d.pattern[0] = a
		d.emit(d.pattern, support)
		d.stats.Output++
		if !last {
			d.expandAnchor(lt.rows[a].list(), myIdx)
		}
		copy(d.pattern, d.pattern[1:])
		d.pattern = d.pattern[:len(d.pattern)-1]
	}
}

// expandRight extends the current pattern (shorter than λ) to the right,
// never with the pivot (it never appears in Sr: unique decomposition) and
// only with items the parent anchor's index holds at this depth. Both tests
// run inside the scan: a candidate they drop has no support computed and
// nothing stored.
func (d *psmRun) expandRight(state postList, depth int, parentIdx, myIdx *rIndex) {
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
	for _, a := range d.collectRight(state, rt, d.p.Pivot, allow) {
		d.stats.Explored++
		support := d.rightSupport(rt, a)
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
			d.expandRight(rt.rows[a].list(), depth+1, parentIdx, myIdx)
		}
		d.pattern = d.pattern[:len(d.pattern)-1]
	}
}

// collectLeft gathers W^left: the generalizations of items occurring within
// gap γ before any occurrence start. With a table, new occurrences keep the
// old ends so that subsequent right expansions of the extended anchor stay
// exact. With lt nil the anchor is one item short of λ and only supports are
// taken (sc.count): positions need visiting once per sequence, so the
// windows of its occurrences (ascending by start) are merged.
func (d *psmRun) collectLeft(anchor occList, lt *occTable) []flist.Rank {
	ct := &d.sc.count
	if lt != nil {
		lt.begin(d.n)
	} else {
		ct.begin(d.n)
	}
	parent, bound, gamma := d.p.Parent, d.bound, int32(d.cfg.Gamma)
	for i, tid := range anchor.tids {
		ws := &d.p.Seqs[tid]
		seq := ws.Items
		next := int32(0) // first position no earlier window has counted
		for _, oc := range anchor.occs[anchor.offs[i]:anchor.offs[i+1]] {
			lo := max(oc.start-1-gamma, 0)
			if lt == nil {
				lo = max(lo, next)
				next = oc.start
			}
			for q := lo; q < oc.start; q++ {
				for a := seq[q]; a != flist.NoRank; {
					if a <= bound {
						if lt != nil {
							lt.add(a, tid, ws.Weight, occPair{q, oc.end})
						} else {
							ct.add(a, tid, ws.Weight)
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
