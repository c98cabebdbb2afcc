// Delta mining: re-mining an appended corpus version by reusing the
// previous run's f-list counts and per-partition results.
//
// The engine's partition-by-pivot structure (§3.4/§4 of the paper) is what
// makes this tractable: a partition's input is fully determined by the set
// of sequences whose G1 contains the pivot and by each item's visibility to
// the pivot ("frequent with rank ≤ rank(pivot)"). Appending sequences only
// grows item frequencies (frequencies are additive over sequences and
// ancestor chains of existing items never change — Database.Append forbids
// re-parenting), so a partition whose pivot kept its frequency AND whose
// visible item set is provably unchanged receives byte-for-byte the same
// item-space input as in the previous version. Those partitions are never
// shuffled or mined again: their pattern sets are spliced from the captured
// previous state, and only the dirty remainder is recomputed.
//
// Reuse rule (the only one, decided before any shuffle): call an item dirty
// when the appended sequences changed its frequency (the item or a
// descendant occurs in them) — new items are always dirty. A clean frequent
// pivot w is reusable iff no dirty OLD item crosses it in the total order:
// for every dirty old item x, [rank(x) ≤ rank(w)] must agree between the
// versions. Clean items keep their pairwise order (the f-list comparator —
// freq desc, level asc, id asc — reads only unchanged fields), new items
// never occur in old sequences, and only the visible SET matters to the
// rewrite and to pattern-partition ownership, so an uncrossed clean pivot's
// partition is unchanged in item space. Crossings are computed in O(F + D)
// with clean-prefix counts and one interval per dirty item. Every other
// partition is shuffled, and a shuffled partition is always mined.
package core

import (
	"fmt"
	"sort"

	"lash/internal/flist"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
)

// DeltaState is the reusable residue of a batch run (Result.Delta): the
// corpus prefix it covers, the per-item f-list counts, and one DeltaPart per
// non-empty partition. It is immutable once returned and safe to share
// across goroutines.
type DeltaState struct {
	// NumSeqs is the number of input sequences the run covered; a delta
	// re-mine treats db.Seqs[NumSeqs:] as the appended suffix.
	NumSeqs int
	// Freqs are the per-item document frequencies of the covered corpus,
	// indexed by vocabulary item id (hierarchy-aware, or flat counts for
	// flat runs — a state only seeds runs with identical options).
	Freqs []int64
	// Parts holds one entry per non-empty partition, sorted by pivot item.
	Parts []DeltaPart
}

// DeltaPart is one partition's result — the record its Reduce emits and the
// one the state keeps — keyed by the pivot's version-stable vocabulary item.
type DeltaPart struct {
	Pivot hierarchy.Item
	// Seqs, Explored, Output are the partition's mining statistics, spliced
	// so a delta run reports the same counters a cold run would.
	Seqs     int64
	Explored int64
	Output   int64
	// Patterns are the partition's mined patterns in vocabulary item space
	// (version-stable ids), before any output restriction; their Items share
	// one array per partition. Nil on a streaming run, which delivered them.
	Patterns []gsm.Pattern
}

// part returns the captured partition for pivot, or nil.
func (s *DeltaState) part(pivot hierarchy.Item) *DeltaPart {
	lo, hi := 0, len(s.Parts)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.Parts[mid].Pivot < pivot {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.Parts) && s.Parts[lo].Pivot == pivot {
		return &s.Parts[lo]
	}
	return nil
}

// deltaFrequencies recomputes the full corpus frequencies incrementally:
// the previous run's counts (padded with zeros for newly interned items)
// plus the appended sequences' counts, computed with the same per-sequence
// distinct-G1 semantics as the f-list job. Counting is additive over
// sequences, so the sums are exactly the numbers a from-scratch count would
// produce. The returned add slice doubles as the dirty-item indicator.
func deltaFrequencies(db *gsm.Database, prev *DeltaState) (freq, add []int64, err error) {
	if prev.NumSeqs > len(db.Seqs) {
		return nil, nil, fmt.Errorf("core: delta state covers %d sequences but the database has %d", prev.NumSeqs, len(db.Seqs))
	}
	if len(prev.Freqs) > db.Forest.Size() {
		return nil, nil, fmt.Errorf("core: delta state has %d item frequencies but the vocabulary has %d items", len(prev.Freqs), db.Forest.Size())
	}
	add = flist.ComputeFrequencies(&gsm.Database{
		Seqs:   db.Seqs[prev.NumSeqs:],
		Forest: db.Forest,
	})
	freq = make([]int64, db.Forest.Size())
	copy(freq, prev.Freqs)
	for w, n := range add {
		freq[w] += n
	}
	return freq, add, nil
}

// deltaPlan is the per-run reuse decision: which new-rank partitions are
// provably unchanged, and the previous parts to splice from.
type deltaPlan struct {
	prev *DeltaState
	// reuse, indexed by new rank, marks partitions whose input is provably
	// identical to the previous version's — they are neither shuffled nor
	// mined.
	reuse []bool
}

// planDelta derives the reuse mask. fl is the new version's f-list, add the
// appended sequences' frequency contribution (the dirty indicator), sigma
// the shared support threshold.
func planDelta(forest *hierarchy.Forest, fl *flist.FList, prev *DeltaState, add []int64) (*deltaPlan, error) {
	// Rebuild the previous version's rank order from its stored counts:
	// padding new items with frequency 0 leaves them infrequent, so the
	// frequent set and its order are exactly the old run's.
	oldFreq := make([]int64, forest.Size())
	copy(oldFreq, prev.Freqs)
	oldFl, err := flist.Build(forest, oldFreq, fl.Sigma())
	if err != nil {
		return nil, fmt.Errorf("core: rebuilding previous rank order: %w", err)
	}
	oldSize := len(prev.Freqs)
	dirty := func(w hierarchy.Item) bool { return add[w] != 0 }

	// Clean-prefix counts in both orders. Clean items preserve pairwise
	// order across versions, so the p-th clean item of the old order is the
	// p-th clean item of the new order.
	numOld, numNew := oldFl.NumFrequent(), fl.NumFrequent()
	cleanBeforeOld := make([]int, numOld)
	c := 0
	for r := 0; r < numOld; r++ {
		cleanBeforeOld[r] = c
		if !dirty(oldFl.VocabOf(flist.Rank(r))) {
			c++
		}
	}
	cleanBeforeNew := make([]int, numNew)
	numClean := 0
	for r := 0; r < numNew; r++ {
		cleanBeforeNew[r] = numClean
		if !dirty(fl.VocabOf(flist.Rank(r))) {
			numClean++
		}
	}

	// One interval per dirty old item x frequent in either version: x is
	// visible to the clean pivot at clean position p iff its clean-prefix
	// count is ≤ p, so visibility changed exactly for p in
	// [min(ao,an), max(ao,an)). New items never occur in old sequences and
	// mark nothing.
	diff := make([]int, numClean+1)
	for w := 0; w < oldSize; w++ {
		wi := hierarchy.Item(w)
		if !dirty(wi) {
			continue
		}
		ro, rn := oldFl.RankOf(wi), fl.RankOf(wi)
		if ro == flist.NoRank && rn == flist.NoRank {
			continue // infrequent in both: invisible to every pivot
		}
		ao, an := numClean, numClean
		if ro != flist.NoRank {
			ao = cleanBeforeOld[ro]
		}
		if rn != flist.NoRank {
			an = cleanBeforeNew[rn]
		}
		lo, hi := min(ao, an), max(ao, an)
		if lo < hi {
			diff[lo]++
			diff[hi]--
		}
	}

	reuse := make([]bool, numNew)
	contaminated := 0
	p := 0
	for r := 0; r < numNew; r++ {
		if dirty(fl.VocabOf(flist.Rank(r))) {
			continue
		}
		// p == cleanBeforeNew[r]: this pivot is the p-th clean item.
		contaminated += diff[p]
		reuse[r] = contaminated == 0
		p++
	}
	return &deltaPlan{prev: prev, reuse: reuse}, nil
}

// assemble turns a run's per-partition records into its result: it sums the
// statistics and gathers the patterns of the mined records and of the
// reuse-masked partitions, which were never shuffled and come from the
// previous state, and when the run keeps state adopts the record slice as
// Result.Delta's parts. The caller canonicalizes the final pattern order
// with gsm.SortPatterns, which is total over the distinct patterns (each
// belongs to exactly one partition), so record order cannot leak into the
// output.
func assemble(res *Result, db *gsm.Database, fl *flist.FList, plan *deltaPlan, recs []DeltaPart, keep bool) {
	if plan != nil {
		res.DeltaDirty = len(recs)
		for r, reuse := range plan.reuse {
			if !reuse {
				continue
			}
			// nil: the partition is empty in both versions.
			if pp := plan.prev.part(fl.VocabOf(flist.Rank(r))); pp != nil {
				recs = append(recs, *pp)
			}
		}
		res.DeltaReused = len(recs) - res.DeltaDirty
	}
	res.NumPartitions = len(recs)
	for i := range recs {
		part := &recs[i]
		res.PartitionSeqs += part.Seqs
		res.MaxPartitionSeqs = max(res.MaxPartitionSeqs, part.Seqs)
		res.Miner.Explored += part.Explored
		res.Miner.Output += part.Output
		res.Patterns = append(res.Patterns, part.Patterns...)
	}
	if !keep {
		return
	}
	freqs := make([]int64, db.Forest.Size())
	for w := range freqs {
		freqs[w] = fl.Freq(hierarchy.Item(w))
	}
	// part() binary-searches by pivot item; records arrive in reduce order,
	// not id order.
	sort.Slice(recs, func(i, j int) bool { return recs[i].Pivot < recs[j].Pivot })
	res.Delta = &DeltaState{NumSeqs: len(db.Seqs), Freqs: freqs, Parts: recs}
}
