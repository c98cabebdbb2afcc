package miner

import "lash/internal/flist"

// DFS is a hierarchy-aware adaptation of PrefixSpan (§5.1 of the paper).
// Pattern growth starts from every locally frequent item and repeatedly
// right-expands: for the current pattern S, the projected database holds the
// end positions of S's occurrences per sequence; the right items of a
// sequence are the generalizations of the items within gap γ after any end.
//
// Projected databases are accumulated in the dense rank-indexed tables of
// Scratch, one table per pattern length, reused across sibling expansions
// via the epoch counter. A pattern of λ items is emitted and never expanded,
// so no projection is built for it: a pattern of λ−1 items takes only the
// supports of its expansions (Scratch's count table).
type DFS struct{}

// Mine implements Miner.
func (DFS) Mine(p *Partition, cfg Config, sc *Scratch, emit Emit) Stats {
	if sc == nil {
		sc = NewScratch()
	}
	d := &dfsRun{
		walk: walk{p: p, cfg: cfg, bound: cfg.bound(p), sc: sc, n: maxRankPlus1(p)},
		//lashvet:ignore emitgo dfsRun is call-scoped traversal state; Mine returns before the struct is released and emit never crosses a goroutine
		emit: emit,
	}
	d.run()
	sc.pattern = d.pattern[:0]
	return d.stats
}

type dfsRun struct {
	walk
	emit  Emit
	stats Stats

	pattern []flist.Rank
}

func (d *dfsRun) run() {
	// Initial projections: one per locally frequent item; the "ends" of a
	// single-item pattern are all positions where the item or one of its
	// descendants occurs.
	rt := d.sc.rightAt(0)
	d.pattern = d.sc.pattern[:0]
	for _, a := range d.itemPostings(rt) {
		row := &rt.rows[a]
		d.stats.Explored++ // the frequency of each single item is computed
		if row.support < d.cfg.Sigma {
			continue
		}
		d.pattern = append(d.pattern[:0], a)
		d.expand(row.list(), a == d.p.Pivot)
	}
}

// expand grows the current pattern (already frequent) to the right. The
// projections of a pattern of λ items would never be read, so the last level
// takes supports only (see walk.collectRight).
func (d *dfsRun) expand(proj postList, hasPivot bool) {
	if len(d.pattern) >= d.cfg.Lambda {
		return
	}
	last := len(d.pattern) == d.cfg.Lambda-1
	var rt *postTable
	if !last {
		rt = d.sc.rightAt(len(d.pattern))
	}
	for _, a := range d.collectRight(proj, rt, flist.NoRank, nil) {
		d.stats.Explored++
		support := d.rightSupport(rt, a)
		if support < d.cfg.Sigma {
			continue
		}
		d.pattern = append(d.pattern, a)
		hp := hasPivot || a == d.p.Pivot
		if !d.cfg.PivotOnly || hp {
			d.emit(d.pattern, support)
			d.stats.Output++
		}
		if !last {
			d.expand(rt.rows[a].list(), hp)
		}
		d.pattern = d.pattern[:len(d.pattern)-1]
	}
}
