package miner

import (
	"slices"

	"lash/internal/flist"
)

// walk is what the scans shared by the miners read of one Mine call: the
// partition, the constraints, the candidate bound and the scratch they fill.
// Every scan climbs the rank-parent chain in place, from the item at a
// position up to its root, so a scanned item costs one Parent load per
// generalization and nothing is staged in between.
type walk struct {
	p     *Partition
	cfg   Config
	bound flist.Rank // largest admissible candidate rank
	sc    *Scratch
	n     int // dense table size: above every candidate rank
}

// itemPostings fills t with the hierarchy-aware single-item postings — the
// posting of item a holds every position where a or a descendant occurs —
// and returns the occurring ranks ascending. DFS starts its projections from
// them; BFS joins against them for the whole run.
func (w *walk) itemPostings(t *postTable) []flist.Rank {
	t.begin(w.n)
	parent, bound := w.p.Parent, w.bound
	for tid, ws := range w.p.Seqs {
		for pos, a := range ws.Items {
			for a != flist.NoRank {
				if a <= bound {
					t.add(a, int32(tid), ws.Weight, int32(pos), true)
				}
				if int(a) >= len(parent) {
					break
				}
				a = parent[a]
			}
		}
	}
	return t.finish()
}

// collectRight gathers the right candidates of a pattern from its occurrence
// ends: the generalizations of the items within gap γ after any end, the
// per-end windows of a sequence merged so that each position is visited once
// (ends are ascending). Candidates above the bound, equal to skip (PSM's
// pivot; flist.NoRank skips nothing) or outside the allow bitset (PSM's
// right-expansion index level; nil allows everything) are dropped inside the
// scan, before anything is stored for them.
//
// With a table, each candidate gets its posting list in rt. With rt nil the
// pattern is one item short of λ: its expansions are emitted and never
// expanded, so only their supports are taken, into sc.count. Either way the
// candidates come back in ascending rank order.
//
// On a grown partition the candidates are also limited to those the fresh
// entries of state reach (see the package doc).
func (w *walk) collectRight(state postList, rt *postTable, skip flist.Rank, allow []uint64) []flist.Rank {
	if w.p.Fresh > 0 {
		cands := w.scanRight(w.freshPosts(state), nil, skip, allow, nil)
		if len(cands) == 0 {
			return cands
		}
		allow = w.freshBits(cands)
	}
	return w.scanRight(state, rt, skip, allow, nil)
}

// freshEntries returns how many of a node's entries, listed by ascending
// sequence id, lie in the fresh sequences Seqs[:Fresh].
func (w *walk) freshEntries(tids []int32) int {
	k, _ := slices.BinarySearch(tids, int32(w.p.Fresh))
	return k
}

// freshPosts returns the entries of a posting list that lie in the fresh
// sequences.
func (w *walk) freshPosts(l postList) postList {
	k := w.freshEntries(l.tids)
	return postList{l.tids[:k], l.offs[:k+1], l.ends}
}

// freshBits returns the candidates a scan of the fresh entries found as the
// bitset the full scan is filtered by. The bitset is sc.fresh: it is read by
// that one scan only, before any child is collected.
func (w *walk) freshBits(cands []flist.Rank) []uint64 {
	words := (w.n + 63) / 64
	if cap(w.sc.fresh) < words {
		w.sc.fresh = make([]uint64, words)
	}
	bits := w.sc.fresh[:words]
	clear(bits)
	for _, a := range cands {
		bits[a>>6] |= 1 << (a & 63)
	}
	return bits
}

// scanRight is collectRight's scan over every entry of state. Sequence tid
// counts at weight wt[tid], or at its Weight when wt is nil.
func (w *walk) scanRight(state postList, rt *postTable, skip flist.Rank, allow []uint64, wt []int64) []flist.Rank {
	ct := &w.sc.count
	if rt != nil {
		rt.begin(w.n)
	} else {
		ct.begin(w.n)
	}
	parent, bound, gamma := w.p.Parent, w.bound, int32(w.cfg.Gamma)
	for i, tid := range state.tids {
		seq, weight := w.p.Seqs[tid].Items, w.p.Seqs[tid].Weight
		if wt != nil {
			weight = wt[tid]
		}
		last := int32(len(seq)) - 1
		next := int32(0) // first position no earlier window has visited
		for _, end := range state.ends[state.offs[i]:state.offs[i+1]] {
			lo := max(end+1, next)
			hi := min(end+1+gamma, last)
			for q := lo; q <= hi; q++ {
				for a := seq[q]; a != flist.NoRank; {
					if a <= bound && a != skip && (allow == nil || allow[a>>6]&(1<<(a&63)) != 0) {
						if rt != nil {
							rt.add(a, tid, weight, q, false) // q ascending per tid: sorted and unique
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
			next = max(next, hi+1)
		}
	}
	if rt != nil {
		return rt.finish()
	}
	return ct.finish()
}

// rightSupport reads the support of candidate a where collectRight, given
// the same rt, left it.
func (w *walk) rightSupport(rt *postTable, a flist.Rank) int64 {
	if rt == nil {
		return w.sc.count.rows[a].support
	}
	return rt.rows[a].support
}
