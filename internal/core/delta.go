// Delta mining: re-mining an appended corpus version by reusing the
// previous run's f-list counts and per-partition results.
//
// The engine's partition-by-pivot structure (§3.4/§4 of the paper) is what
// makes this tractable: a partition's input is fully determined by the set
// of sequences whose G1 contains the pivot and by each item's visibility to
// the pivot ("frequent with rank ≤ rank(pivot)"). Appending sequences only
// grows item frequencies (frequencies are additive over sequences and
// ancestor chains of existing items never change — Database.Append forbids
// re-parenting), and with them every support.
//
// A delta run keeps its state's rank order (DeltaState.Order): the old
// frequent items keep their ranks, and newly frequent items rank after them
// (flist.Build). That is all the partitioning needs (a parent still ranks
// before its child); frequency order only balances the partitions, and a
// lineage whose order has grown too dear to partition by goes cold again
// (DeltaState.Drift). So one rule, decided before anything is shuffled,
// gives every frequent pivot of the new version one of three outcomes.
// First, an old frequent pivot w sees the old items it saw before, and no
// newly frequent one: every old sequence rewrites to the same partition
// sequence for it, in item space, as before. (The rewrite of a sequence T
// for w reads only which items of G1(T) are visible to w, "frequent with
// rank ≤ rank(w)", and new items never occur in old sequences and are never
// ancestors of old items.) The owner of every pattern of w's partition is w
// as before too.
//
// Second, the appended suffix is rewritten once, on the driver, with the
// run's own Rewriter:
//
//   - An unchanged pivot that no appended rewrite reaches is reused: its
//     input is its old input, its pattern set is spliced from the state, and
//     nothing is shuffled for it.
//   - An unchanged pivot that some appended rewrite reaches is grown: its
//     input is its old input plus those rewrites. Reduce puts the entries
//     holding one of them first and mines only the patterns occurring there
//     (miner.Partition.Fresh). Every other pattern kept its old support, so
//     it is frequent iff the state holds it: gsm.MergeGrown completes the
//     output from the state's pattern set. Under PSM that set, and the
//     record's near-frequent border (DeltaPart.Border), also give supports:
//     Reduce hands them to the miner (miner.Partition.Known) with how many
//     appended sequences each fresh entry stands for, and a search node whose
//     reachable patterns the state holds, or bounds below σ, adds their
//     appended support to the state's without reading an old sequence.
//   - A newly frequent pivot is re-mined in full. So is a grown one under
//     BFS, which has no pattern-growth search to limit.
//
// A grown partition's old sequences have one of two sources. Every
// partition a delta run mines keeps its aggregated input in its record
// (DeltaPart.Input, in item space). When the previous record kept one, the
// map skips the pivot for old sequences exactly as for a reused one, and
// only the appended rewrites are shuffled. Reduce runs PSM's pre-pass on
// them first (miner.Prepass): a lean root reads no old sequence, so the
// fresh sequences are folded into the kept input on its encoded bytes
// (foldKept); otherwise Reduce appends the kept input after them, translated
// to this run's ranks, folding an old sequence equal to a fresh one into it
// (growKept). When it
// kept none — the first delta run after a cold mine, whose state keeps no
// inputs — the old sequences are shuffled with the appended ones and the
// fresh-entry walk picks the latter out, as it does for the fresh half of a
// kept partition.
//
// So an old sequence is read only for a re-mined pivot or for a grown one
// whose record kept no input. The plan marks every vocabulary item with such
// a pivot among its frequent generalizations, and the map skips an old
// sequence with no marked item before loading it into the rewriter.
//
// The result is the previous one plus what changed. σ is fixed and an
// append only raises supports, so no pattern ever leaves the result: the
// previous canonical list (DeltaState.Patterns) is a subsequence of the new
// one. A pattern no Reduce of the run mined belongs to a reused or grown
// partition whose pivot was its pivot before — its items kept their ranks —
// so the previous record held it, and it kept its support. So the run sorts
// only the patterns its Reduces mined and merges them into the previous list
// in one walk: an equal key takes the new support, a new key is inserted
// (canonicalize). The patterns are byte-identical to a cold mine of the
// same version; TestDeltaDifferential (package lash) holds every algorithm
// to that across seeds and corpora. Only the run's statistics differ.
package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"lash/internal/flist"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
	"lash/internal/miner"
	"lash/internal/rewrite"
	"lash/internal/seqenc"
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
	// Order is the rank order the state's partitions were mined under, rank
	// → item; a delta run from the state keeps it (see the package doc).
	Order []hierarchy.Item
	// Load and FreqLoad count partition sequences: both start at the
	// lineage's last cold mine's (Result.PartitionSeqs), and every later
	// append adds those it rewrites to under the lineage's order (Load) and
	// under frequency order (FreqLoad). Drift compares them.
	Load, FreqLoad int64
	// Parts holds one entry per non-empty partition, sorted by pivot item.
	Parts []DeltaPart
	// Patterns is the run's result before any output restriction, in
	// canonical order (gsm.SortPatterns): every pattern of every part, each
	// sharing its Items with the part's Patterns. A delta run merges the
	// patterns it mined into it (see assemble).
	Patterns []gsm.Pattern
}

// DeltaPart is one partition's result — the record its Reduce emits and the
// one the state keeps — keyed by the pivot's version-stable vocabulary item.
type DeltaPart struct {
	Pivot hierarchy.Item
	// Seqs, Explored, Output are the partition's mining statistics, spliced
	// so a delta run reports the counters a cold run would — except that a
	// grown partition's Explored counts only what its appended sequences
	// reached, a lower bound of the cold count that a record reused from it
	// keeps.
	Seqs     int64
	Explored int64
	Output   int64
	// Patterns are the partition's mined patterns in vocabulary item space
	// (version-stable ids), before any output restriction, in canonical order
	// once the run has assembled its state; their Items share one array per
	// partition.
	Patterns []gsm.Pattern
	// Border is the partition's near-frequent border under PSM
	// (miner.Partition.Border), in item space like Patterns: every pattern
	// the mines of the partition counted below σ but at least σ − ⌈σ/4⌉, its
	// Support an upper bound on its support — exact where the last mine
	// counted it in full, else the bound carried forward plus what later
	// appends added. A grown partition's mine decides from it, without
	// reading old occurrences, that a pattern Patterns lacks stays below σ.
	// Nil under BFS and DFS.
	Border []gsm.Pattern
	// Crossed holds the patterns of Patterns that reached σ in a grown run
	// since the partition was last mined in full, each with, as Support, the
	// bound on the support of its never-counted one-item extensions
	// (miner.Known.AddCrossed).
	Crossed []gsm.Pattern
	// Input is the partition's aggregated input, kept for the next delta run
	// to grow the partition from without shuffling its old sequences. Delta
	// runs keep it for every partition they mine; a cold run keeps none, and
	// neither do runs whose old input it could not stand for (BFS, which never
	// grows, and rewrite.ModeNone, whose sequences hold items the pivot cannot
	// see). A reused record shares its predecessor's. It is in vocabulary
	// item space — ranks move across a rebase (DeltaState.Drift), item ids
	// never: uvarint(positions), the total length of its sequences, then per
	// distinct sequence uvarint(weight), uvarint(length) and the sequence in
	// seqenc's token format over item ids.
	Input []byte
}

// minedPart is a Reduce's output: the partition's record, and what only
// assemble reads of the run that mined it.
type minedPart struct {
	DeltaPart
	// lean: the run grew the partition from a lean root, reading no old
	// sequence (Result.DeltaLean).
	lean bool
	// mined is how many patterns, at the front of Patterns, the Reduce mined:
	// all of a cold or re-mined partition's, a grown one's reached patterns
	// (gsm.MergeGrown puts them first).
	mined int32
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

// maxDrift bounds a lineage's drift (DeltaState.Drift): a delta run from a
// state that drifted further mines cold, re-ranking by frequency.
const maxDrift = 1.1

// drift returns a measure as a multiple of its reference value, 1 while the
// reference is 0 (nothing to compare against).
func drift(now, ref int64) float64 {
	if ref == 0 {
		return 1
	}
	return float64(now) / float64(ref)
}

// drifted is the one trigger that sends mined work cold again: a measure
// past maxDrift times its reference value.
func drifted(now, ref int64) bool { return drift(now, ref) > maxDrift }

// Drift returns Load as a multiple of FreqLoad: how much more the lineage's
// kept order has cost, in partition sequences, than frequency order would
// have since its last cold mine. Old sequences rewrite the same for an old
// pivot under a kept order, so only the appends move it. Past maxDrift, a
// delta run from the state mines cold (Result.Rebased).
func (s *DeltaState) Drift() float64 { return drift(s.Load, s.FreqLoad) }

// countByFrequency counts the partition sequences the appended sequences
// rewrite to under frequency order (DeltaState.FreqLoad), given the counted
// frequencies; planDelta counted them under fl, the lineage's order.
func (p *deltaPlan) countByFrequency(db *gsm.Database, fl *flist.FList, freq []int64, opt Options) (int64, error) {
	byFreq, err := flist.Build(db.Forest, freq, opt.Params.Sigma)
	if err != nil || slices.Equal(byFreq.Order(), fl.Order()) {
		return p.load, err
	}
	var n int64
	eachRewrite(db.Seqs[p.prev.NumSeqs:], byFreq, opt, func(flist.Rank, []flist.Rank) { n++ })
	return n, nil
}

// eachRewrite calls f with every non-empty rewrite of seqs under fl, and its
// pivot: what the map would emit for them.
func eachRewrite(seqs []gsm.Sequence, fl *flist.FList, opt Options, f func(flist.Rank, []flist.Rank)) {
	rw := rewrite.NewRewriter(fl, opt.Params.Gamma, opt.Params.Lambda)
	rw.Mode = opt.Rewrites
	var buf []flist.Rank
	for _, t := range seqs {
		rw.Load(t)
		for pivot, ok := rw.Next(); ok; pivot, ok = rw.Next() {
			if buf = rw.Rewritten(buf[:0]); len(buf) > 0 {
				f(pivot, buf)
			}
		}
	}
}

// deltaFrequencies recomputes the full corpus frequencies incrementally:
// the previous run's counts (padded with zeros for newly interned items)
// plus the appended sequences' counts, computed with the same per-sequence
// distinct-G1 semantics as the f-list job. Counting is additive over
// sequences, so the sums are exactly the numbers a from-scratch count would
// produce.
func deltaFrequencies(db *gsm.Database, prev *DeltaState) ([]int64, error) {
	if prev.NumSeqs > len(db.Seqs) {
		return nil, fmt.Errorf("core: delta state covers %d sequences but the database has %d", prev.NumSeqs, len(db.Seqs))
	}
	if len(prev.Freqs) > db.Forest.Size() {
		return nil, fmt.Errorf("core: delta state has %d item frequencies but the vocabulary has %d items", len(prev.Freqs), db.Forest.Size())
	}
	add := flist.ComputeFrequencies(&gsm.Database{
		Seqs:   db.Seqs[prev.NumSeqs:],
		Forest: db.Forest,
	})
	freq := make([]int64, db.Forest.Size())
	copy(freq, prev.Freqs)
	for w, n := range add {
		freq[w] += n
	}
	return freq, nil
}

// deltaPlan is the per-run outcome of every pivot: reused, grown, or (when
// neither) re-mined.
type deltaPlan struct {
	prev *DeltaState
	// reuse, indexed by new rank, marks the partitions spliced from prev:
	// they are neither shuffled nor mined.
	reuse []bool
	// fresh, indexed by new rank, holds a grown partition's appended
	// rewrites, encoded as the map side encodes them, sorted and distinct;
	// nil for every pivot that is not grown. appended[r][j] is how many
	// appended sequences rewrite to fresh[r][j].
	fresh    [][][]byte
	appended [][]int64
	// kept, indexed by new rank, marks the grown partitions whose previous
	// record kept its input: their old sequences are read from it, not
	// shuffled.
	kept []bool
	// oldNeeded, indexed by vocabulary item, marks the items with a frequent
	// generalization (self included) that is a pivot the map does not skip
	// old sequences for. The map skips an old sequence without one whole.
	oldNeeded []bool
	// keep: the run keeps every mined partition's input (DeltaPart.Input).
	keep bool
	// known: grown partitions are mined with the previous record's patterns
	// (miner.Partition.Known), which PSM, with or without the index, reads.
	known bool
	// load and freqLoad are the run's terms of DeltaState.Load and FreqLoad.
	load, freqLoad int64
}

// freshOf returns pivot's appended rewrites, and how many appended
// sequences rewrite to each, if its partition is grown.
func (p *deltaPlan) freshOf(pivot flist.Rank) ([][]byte, []int64) {
	if p == nil {
		return nil, nil
	}
	return p.fresh[pivot], p.appended[pivot]
}

// skips reports whether the map emits nothing for pivot from input sequence
// i: a reused partition takes no sequence, and a grown one whose input the
// state kept takes only the appended ones.
func (p *deltaPlan) skips(pivot flist.Rank, i int) bool {
	return p != nil && (p.reuse[pivot] || p.kept[pivot] && i < p.prev.NumSeqs)
}

// skipsSeq reports, without loading it, whether the map emits nothing at
// all from t, input sequence i: t is old and none of its items generalizes
// to a pivot that takes old sequences (skips).
func (p *deltaPlan) skipsSeq(i int, t gsm.Sequence) bool {
	if p == nil || i >= p.prev.NumSeqs {
		return false
	}
	for _, w := range t {
		if p.oldNeeded[w] {
			return false
		}
	}
	return true
}

// keptInput returns the input the previous state kept for a grown pivot
// whose old sequences are read from it, or nil.
func (p *deltaPlan) keptInput(pivot flist.Rank, w hierarchy.Item) []byte {
	if p == nil || !p.kept[pivot] {
		return nil
	}
	return p.prev.part(w).Input
}

// grownPart returns the previous record of pivot w if its partition is
// mined grown, with nFresh fresh entries, or nil: not grown, or empty in the
// previous version.
func (p *deltaPlan) grownPart(w hierarchy.Item, nFresh int) *DeltaPart {
	if nFresh == 0 {
		return nil
	}
	return p.prev.part(w)
}

// fillKnown restates a grown partition's previous record pp, in vocabulary
// item space, as k in this run's rank space (miner.Partition.Known) — its
// patterns, its border and its crossed patterns' bounds — through the
// reusable rank buffer *buf. The run kept the ranks of the items they hold
// (planDelta), so each translates to the rank it was mined under.
func fillKnown(k *miner.Known, buf *[]flist.Rank, fl *flist.FList, pivot flist.Rank, pp *DeltaPart) error {
	n := 0
	for _, p := range pp.Patterns {
		n += len(p.Items)
	}
	for _, p := range pp.Border {
		n += len(p.Items)
	}
	k.Reset(len(pp.Patterns)+len(pp.Border), n)
	k.SetBordered()
	ranks := func(p gsm.Pattern) ([]flist.Rank, error) {
		rs := (*buf)[:0]
		for _, w := range p.Items {
			r := fl.RankOf(w)
			if r == flist.NoRank {
				return nil, fmt.Errorf("core: partition %d: a previous pattern holds item %d, which is no longer frequent", pivot, w)
			}
			rs = append(rs, r)
		}
		*buf = rs
		return rs, nil
	}
	for _, p := range pp.Patterns {
		rs, err := ranks(p)
		if err != nil {
			return err
		}
		k.Add(rs, p.Support)
	}
	for _, p := range pp.Border {
		rs, err := ranks(p)
		if err != nil {
			return err
		}
		k.AddBorder(rs, p.Support)
	}
	for _, p := range pp.Crossed {
		rs, err := ranks(p)
		if err != nil {
			return err
		}
		if !k.AddCrossed(rs, p.Support) {
			return fmt.Errorf("core: partition %d: a crossed pattern is not among the previous patterns", pivot)
		}
	}
	return nil
}

// keepsInputs reports whether the run keeps its mined partitions' inputs.
func (p *deltaPlan) keepsInputs() bool { return p != nil && p.keep }

// planDelta decides every pivot's outcome (see the package doc). fl is the
// new version's f-list over db, the run's working database, in the order of
// opt.Prev.
func planDelta(db *gsm.Database, fl *flist.FList, opt Options) *deltaPlan {
	prev := opt.Prev
	// unchanged[r]: every old sequence rewrites the same for pivot r as
	// before, since the items ranked up to r are the ones that were.
	unchanged := make([]bool, fl.NumFrequent())
	for r := range prev.Order {
		unchanged[r] = true
	}

	// Which unchanged pivots the appended sequences reach, and with what; and
	// how many partition sequences they rewrite to in all (DeltaState.Load).
	fresh := make([][][]byte, len(unchanged))
	var load int64
	eachRewrite(db.Seqs[prev.NumSeqs:], fl, opt, func(pivot flist.Rank, seq []flist.Rank) {
		load++
		if unchanged[pivot] {
			fresh[pivot] = append(fresh[pivot], seqenc.AppendSeq(nil, seq))
		}
	})
	// Kept inputs are read only by runs that keep them: a state whose
	// options match this run's kept them under the same rule.
	keep := opt.Miner != miner.KindBFS && opt.Rewrites != rewrite.ModeNone
	kept := make([]bool, len(unchanged))
	appended := make([][]int64, len(unchanged))
	total := 0
	for _, keys := range fresh {
		total += len(keys)
	}
	counts := make([]int64, 0, total) // every pivot's appended, back to back
	for r, keys := range fresh {
		if keys == nil {
			continue
		}
		unchanged[r] = false // reached: grown, or re-mined under BFS
		if opt.Miner == miner.KindBFS {
			fresh[r] = nil
			continue
		}
		slices.SortFunc(keys, bytes.Compare)
		start, n := len(counts), 0
		for _, key := range keys {
			if n > 0 && bytes.Equal(key, keys[n-1]) {
				counts[len(counts)-1]++
				continue
			}
			keys[n] = key
			counts = append(counts, 1)
			n++
		}
		fresh[r], appended[r] = keys[:n], counts[start:len(counts):len(counts)]
		// Nil when the pivot's old partition is empty: then the old sequences
		// emit nothing for it anyway.
		if pp := prev.part(fl.VocabOf(flist.Rank(r))); keep && pp != nil && pp.Input != nil {
			kept[r] = true
		}
	}
	plan := &deltaPlan{
		prev: prev, reuse: unchanged, fresh: fresh, appended: appended, kept: kept, keep: keep,
		known: opt.Miner == miner.KindPSM || opt.Miner == miner.KindPSMNoIndex, load: load,
	}
	parent := fl.ParentTable()
	plan.oldNeeded = make([]bool, db.Forest.Size())
	for w := range plan.oldNeeded {
		for r := fl.FrequentRank(hierarchy.Item(w)); r != flist.NoRank; r = parent[r] {
			if !unchanged[r] && !kept[r] { // re-mined, or grown from the shuffle
				plan.oldNeeded[w] = true
				break
			}
		}
	}
	return plan
}

// keptBody returns a kept input's sequence records and the total length of
// their sequences (see DeltaPart.Input); ok is false if the header is
// corrupt.
func keptBody(input []byte) (body []byte, positions int, ok bool) {
	v, n := binary.Uvarint(input)
	if n <= 0 {
		return nil, 0, false
	}
	return input[n:], int(v), true
}

// sealInput returns a record's kept input: the header for positions, then
// body, in one exact-size array the record owns.
func sealInput(positions int, body []byte) []byte {
	in := make([]byte, 0, seqenc.UvarintLen(uint64(positions))+len(body))
	in = binary.AppendUvarint(in, uint64(positions))
	return append(in, body...)
}

// appendKept appends one aggregated partition sequence to a kept input's
// body: its weight, then appendKeptSeq.
func appendKept(dst []byte, fl *flist.FList, seq []flist.Rank, weight int64) []byte {
	return appendKeptSeq(binary.AppendUvarint(dst, uint64(weight)), fl, seq)
}

// appendKeptSeq appends a sequence in a kept input's format: its length,
// and its items as vocabulary ids in seqenc's token format.
func appendKeptSeq(dst []byte, fl *flist.FList, seq []flist.Rank) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(seq)))
	for i := 0; i < len(seq); {
		if seq[i] != flist.NoRank {
			dst = binary.AppendUvarint(dst, (uint64(fl.VocabOf(seq[i]))+1)<<1)
			i++
			continue
		}
		run := i
		for i < len(seq) && seq[i] == flist.NoRank {
			i++
		}
		dst = binary.AppendUvarint(dst, uint64(i-run)<<1|1)
	}
	return dst
}

// freshKey indexes a grown partition's fresh sequence by the hash of its
// ranks, for folding equal old sequences into it.
type freshKey struct {
	h uint64
	i int32
}

// hashRanks is FNV-1a over a rank sequence.
func hashRanks(s []flist.Rank) uint64 {
	h := uint64(14695981039346656037)
	for _, r := range s {
		h = (h ^ uint64(r)) * 1099511628211
	}
	return h
}

// hashBytes is FNV-1a over an encoded sequence.
func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// keptToken decodes the uvarint token at body[off:], inlining the one- and
// two-byte forms every item id below 8 191 takes.
func keptToken(body []byte, off int) (uint64, int) {
	if off+1 < len(body) {
		if b := body[off]; b < 0x80 {
			return uint64(b), 1
		} else if c := body[off+1]; c < 0x80 {
			return uint64(b&0x7f) | uint64(c)<<7, 2
		}
	}
	return binary.Uvarint(body[off:])
}

// growKept appends a grown partition's old sequences, read from the kept
// input body of its previous record, to the decoded partition in rs.sc,
// whose first nFresh sequences are the fresh ones. Each item is translated
// to its rank under fl on its way into the rank arena. An old sequence equal
// to a fresh one is folded into that fresh entry instead. It appends to out
// the body of the record's new input: the kept one with the folded weights,
// then the fresh sequences that folded into nothing. body is only read: the
// previous state, and every version that reused the record, share it.
func growKept(out []byte, rs *reduceScratch, fl *flist.FList, pivot flist.Rank, body []byte, nFresh int) ([]byte, error) {
	sc := rs.sc
	keys := rs.keys[:0]
	for i, s := range sc.Seqs[:nFresh] {
		keys = append(keys, freshKey{hashRanks(s.Items), int32(i)})
	}
	slices.SortFunc(keys, func(a, b freshKey) int { return cmp.Compare(a.h, b.h) })
	rs.keys = keys
	folded := slices.Grow(rs.folded[:0], nFresh)[:nFresh]
	clear(folded)
	rs.folded = folded
	corrupt := func() ([]byte, error) { return nil, fmt.Errorf("core: partition %d: corrupt kept input", pivot) }
	items := uint64(fl.Forest().Size())

	copied := 0
	for off := 0; off < len(body); {
		start := off
		w, n := binary.Uvarint(body[off:])
		if n <= 0 {
			return corrupt()
		}
		off += n
		weightEnd := off
		length, n := binary.Uvarint(body[off:])
		if n <= 0 || length > seqenc.MaxDecodedLen {
			return corrupt()
		}
		off += n
		seqStart := len(sc.RankArena)
		for pos := uint64(0); pos < length; {
			v, n := keptToken(body, off)
			if n <= 0 {
				return corrupt()
			}
			off += n
			if v&1 == 1 { // blank run
				run := v >> 1
				if run == 0 || pos+run > length {
					return corrupt()
				}
				for range run {
					sc.RankArena = append(sc.RankArena, flist.NoRank)
				}
				pos += run
				continue
			}
			item := v>>1 - 1
			if item >= items {
				return corrupt()
			}
			r := fl.RankOf(hierarchy.Item(item))
			if r == flist.NoRank {
				return nil, fmt.Errorf("core: partition %d: kept input holds item %d, which is no longer frequent", pivot, item)
			}
			sc.RankArena = append(sc.RankArena, r)
			pos++
		}
		seq := sc.RankArena[seqStart:len(sc.RankArena):len(sc.RankArena)]

		j := -1
		h := hashRanks(seq)
		k, _ := slices.BinarySearchFunc(keys, h, func(e freshKey, h uint64) int { return cmp.Compare(e.h, h) })
		for ; k < len(keys) && keys[k].h == h; k++ {
			if slices.Equal(sc.Seqs[keys[k].i].Items, seq) {
				j = int(keys[k].i)
				break
			}
		}
		if j < 0 {
			sc.Seqs = append(sc.Seqs, miner.WSeq{Items: seq, Weight: int64(w)})
			continue
		}
		sc.Seqs[j].Weight += int64(w)
		folded[j] = true
		sc.RankArena = sc.RankArena[:seqStart]
		out = append(out, body[copied:start]...)
		out = binary.AppendUvarint(out, uint64(sc.Seqs[j].Weight))
		copied = weightEnd
	}
	out = append(out, body[copied:]...)
	for i, s := range sc.Seqs[:nFresh] {
		if !folded[i] {
			out = appendKept(out, fl, s.Items, s.Weight)
		}
	}
	return out, nil
}

// foldKept is growKept for a partition whose mine reads none of its old
// sequences (a lean root, miner.Prepass): it folds the fresh sequences in
// rs.sc.Seqs into the kept input body, whose header gave positions, by
// comparing encoded bytes — nothing is translated into ranks — and appends to
// out the body growKept would. It returns how many distinct sequences the new
// input holds, and their total length.
func foldKept(out []byte, rs *reduceScratch, fl *flist.FList, pivot flist.Rank, body []byte, positions int) ([]byte, int, int, error) {
	fresh := rs.sc.Seqs
	enc, offs, keys := rs.enc[:0], rs.encOffs[:0], rs.keys[:0]
	var lens uint64 // bit n: a fresh sequence has length n, or one has 63 or more
	for i, s := range fresh {
		offs = append(offs, int32(len(enc)))
		enc = appendKeptSeq(enc, fl, s.Items)
		keys = append(keys, freshKey{hashBytes(enc[offs[i]:]), int32(i)})
		lens |= 1 << min(len(s.Items), 63)
	}
	offs = append(offs, int32(len(enc)))
	slices.SortFunc(keys, func(a, b freshKey) int { return cmp.Compare(a.h, b.h) })
	rs.enc, rs.encOffs, rs.keys = enc, offs, keys
	folded := slices.Grow(rs.folded[:0], len(fresh))[:len(fresh)]
	clear(folded)
	rs.folded = folded
	corrupt := func() ([]byte, int, int, error) {
		return nil, 0, 0, fmt.Errorf("core: partition %d: corrupt kept input", pivot)
	}

	seqs, copied := len(fresh), 0
	for off := 0; off < len(body); {
		start := off
		w, n := binary.Uvarint(body[off:])
		if n <= 0 {
			return corrupt()
		}
		off += n
		weightEnd := off
		length, n := binary.Uvarint(body[off:])
		if n <= 0 || length > seqenc.MaxDecodedLen {
			return corrupt()
		}
		off += n
		for pos := uint64(0); pos < length; {
			v, n := keptToken(body, off)
			if n <= 0 {
				return corrupt()
			}
			off += n
			step := uint64(1)
			if v&1 == 1 { // blank run
				step = v >> 1
			}
			if step == 0 || pos+step > length {
				return corrupt()
			}
			pos += step
		}
		if lens&(1<<min(length, 63)) == 0 {
			seqs++ // no fresh sequence is as long
			continue
		}
		seq := body[weightEnd:off]

		j := -1
		h := hashBytes(seq)
		k, _ := slices.BinarySearchFunc(keys, h, func(e freshKey, h uint64) int { return cmp.Compare(e.h, h) })
		for ; k < len(keys) && keys[k].h == h; k++ {
			if i := keys[k].i; bytes.Equal(enc[offs[i]:offs[i+1]], seq) {
				j = int(i)
				break
			}
		}
		if j < 0 {
			seqs++
			continue
		}
		fresh[j].Weight += int64(w)
		folded[j] = true
		out = append(out, body[copied:start]...)
		out = binary.AppendUvarint(out, uint64(fresh[j].Weight))
		copied = weightEnd
	}
	out = append(out, body[copied:]...)
	for i, s := range fresh {
		if !folded[i] {
			out = binary.AppendUvarint(out, uint64(s.Weight))
			out = append(out, enc[offs[i]:offs[i+1]]...)
			positions += len(s.Items)
		}
	}
	return out, seqs, positions, nil
}

// assemble turns a run's per-partition records into its result: it sums the
// statistics and adds the records of the reuse-masked partitions, which were
// never shuffled and come from the previous state. It builds the canonical
// pattern list (canonicalize), merged into prev's if the run had one, and
// adopts the record slice as Result.Delta's parts.
func assemble(res *Result, db *gsm.Database, fl *flist.FList, plan *deltaPlan, prev *DeltaState, out []minedPart) error {
	dirty := len(out)
	recs := make([]DeltaPart, dirty)
	mined := make([]int32, dirty)
	for i := range out {
		recs[i], mined[i] = out[i].DeltaPart, out[i].mined
		if out[i].lean {
			res.DeltaLean++
		}
	}
	if prev != nil {
		res.DeltaDirty = dirty
	}
	if plan != nil {
		for r, reuse := range plan.reuse {
			if plan.fresh[r] != nil {
				res.DeltaGrown++
			}
			if !reuse {
				continue
			}
			// nil: the partition is empty in both versions.
			if pp := plan.prev.part(fl.VocabOf(flist.Rank(r))); pp != nil {
				recs = append(recs, *pp)
			}
		}
		res.DeltaReused = len(recs) - dirty
	}
	res.NumPartitions = len(recs)
	for i := range recs {
		part := &recs[i]
		res.PartitionSeqs += part.Seqs
		res.MaxPartitionSeqs = max(res.MaxPartitionSeqs, part.Seqs)
		res.Miner.Explored += part.Explored
		res.Miner.Output += part.Output
	}
	// The run sorts only what its Reduces mined: on a delta run, the
	// re-mined partitions and what the appended sequences reached.
	n := 0
	for _, m := range mined {
		n += int(m)
	}
	pats := make([]gsm.Pattern, 0, n)
	for i, m := range mined {
		pats = append(pats, recs[i].Patterns[:m]...)
	}
	gsm.SortPatterns(pats)
	if err := canonicalize(res, fl, recs, mined, prev, pats); err != nil {
		return err
	}
	freqs := make([]int64, db.Forest.Size())
	for w := range freqs {
		freqs[w] = fl.Freq(hierarchy.Item(w))
	}
	// part() binary-searches by pivot item; records arrive in reduce order,
	// not id order.
	sort.Slice(recs, func(i, j int) bool { return recs[i].Pivot < recs[j].Pivot })
	res.Delta = &DeltaState{NumSeqs: len(db.Seqs), Freqs: freqs, Order: fl.Order(), Parts: recs, Patterns: res.Patterns,
		Load: res.PartitionSeqs, FreqLoad: res.PartitionSeqs}
	if plan != nil {
		res.Delta.Load, res.Delta.FreqLoad = prev.Load+plan.load, prev.FreqLoad+plan.freqLoad
	}
	return nil
}

// gallop returns the index of the first pattern of ps[i:] that does not sort
// before key, probing ahead in doubling steps and then bisecting: a merge of
// a few patterns into a long list compares few.
func gallop(ps []gsm.Pattern, i int, key gsm.Sequence) int {
	lo, hi := i, i
	for step := 1; hi < len(ps) && gsm.CompareSeq(ps[hi].Items, key) < 0; step *= 2 {
		lo, hi = hi+1, hi+step
	}
	k, _ := slices.BinarySearchFunc(ps[lo:min(hi, len(ps))], key, func(p gsm.Pattern, key gsm.Sequence) int {
		return gsm.CompareSeq(p.Items, key)
	})
	return lo + k
}

// Slots of canonicalize's partition table besides a mined record's index.
const (
	reusedPart = -1
	noPart     = -2
)

// canonicalize sets a run's canonical pattern list, merged into
// prev.Patterns on a delta run (prev non-nil), as res.Patterns, and what
// the merge changed as res.Changed and res.Inserted. pats are the patterns
// the run's Reduces mined, in canonical order; the first len(mined) records
// hold them, record i mined[i] of them at the front of its Patterns. It
// also puts those records' Patterns in canonical order, in place.
//
// A from-scratch run's list is pats. A delta run's is a merge (see the
// package doc): prev.Patterns is a subsequence of the new list, and one walk
// builds it: on an equal key the mined entry wins — a change when its
// support differs — a key prev lacks is inserted, every other entry of prev
// is carried. A carried pattern is a reused record's, whose arena the new
// state shares, or one a grown record kept (gsm.MergeGrown). The latter is re-pointed at the grown record's copy,
// so the list shares arenas only with records the new state holds and no
// version pins an older one's. The grown record holds its kept patterns
// after its mined ones in its previous record's order, canonical, so the
// walk meets them in that order. A carried pattern of a re-mined partition
// would mean the invariant broke: that fails the run, as does a record the
// list does not cover exactly.
func canonicalize(res *Result, fl *flist.FList, recs []DeltaPart, mined []int32, prev *DeltaState, pats []gsm.Pattern) error {
	dirty := len(mined)
	// slot, by rank, is the index of the pivot's mined record, or reusedPart
	// or noPart.
	slot := make([]int32, fl.NumFrequent())
	for r := range slot {
		slot[r] = noPart
	}
	for i := range recs {
		s := int32(reusedPart)
		if i < dirty {
			s = int32(i)
		}
		slot[fl.RankOf(recs[i].Pivot)] = s
	}
	cur := make([]recCursor, dirty)
	place := func(p *gsm.Pattern, carried bool) error {
		r := fl.RankOf(p.Items[0])
		for _, w := range p.Items[1:] {
			r = max(r, fl.RankOf(w))
		}
		if int(r) >= len(slot) || slot[r] == noPart {
			return fmt.Errorf("core: pattern %v belongs to no partition", p.Items)
		}
		s := slot[r]
		if s == reusedPart {
			return nil
		}
		rec, c := &recs[s], &cur[s]
		if carried {
			k := int(mined[s]) + c.kept
			if k >= len(rec.Patterns) || !slices.Equal(rec.Patterns[k].Items, p.Items) {
				return fmt.Errorf("core: partition %d: previous pattern %v was neither mined nor kept", rec.Pivot, p.Items)
			}
			c.kept++
			p.Items = rec.Patterns[k].Items
		}
		// In place: pats holds copies of the mined patterns, and a kept one
		// is read before its position can be written.
		if c.placed == len(rec.Patterns) {
			return fmt.Errorf("core: partition %d: the result holds more patterns than its record", rec.Pivot)
		}
		rec.Patterns[c.placed] = *p
		c.placed++
		return nil
	}

	if prev == nil {
		for i := range pats {
			if err := place(&pats[i], false); err != nil {
				return err
			}
		}
		res.Patterns = pats
		return covered(recs, mined, cur)
	}

	old := prev.Patterns
	list := make([]gsm.Pattern, 0, len(old)+len(pats))
	// A carried pattern is placed only to be re-pointed: with no grown record
	// keeping one, every carried pattern is a reused record's.
	kept := false
	for s, m := range mined {
		kept = kept || int(m) < len(recs[s].Patterns)
	}
	carry := func(run []gsm.Pattern) error {
		start := len(list)
		list = append(list, run...)
		for k := start; kept && k < len(list); k++ {
			if err := place(&list[k], true); err != nil {
				return err
			}
		}
		return nil
	}
	i := 0
	for _, m := range pats {
		j := gallop(old, i, m.Items)
		if err := carry(old[i:j]); err != nil {
			return err
		}
		at := int32(len(list))
		if i = j; i < len(old) && slices.Equal(old[i].Items, m.Items) {
			if old[i].Support != m.Support {
				res.Changed = append(res.Changed, at)
			}
			i++
		} else {
			res.Changed = append(res.Changed, at)
			res.Inserted = append(res.Inserted, at)
		}
		list = append(list, m)
		if err := place(&list[len(list)-1], false); err != nil {
			return err
		}
	}
	if err := carry(old[i:]); err != nil {
		return err
	}
	res.Patterns = list
	return covered(recs, mined, cur)
}

// recCursor is canonicalize's place in a record the run mined: how many of
// its patterns the walk placed, and how many of its kept ones (those after
// its mined ones) the walk met.
type recCursor struct{ placed, kept int }

// covered fails unless canonicalize's walk placed every pattern of each
// record the run mined, its kept patterns among them.
func covered(recs []DeltaPart, mined []int32, cur []recCursor) error {
	for s, m := range mined {
		if rec, c := &recs[s], cur[s]; c.placed != len(rec.Patterns) || int(m)+c.kept != len(rec.Patterns) {
			return fmt.Errorf("core: partition %d: the result holds %d of its %d patterns", rec.Pivot, c.placed, len(rec.Patterns))
		}
	}
	return nil
}
