package miner_test

import (
	"slices"
	"testing"

	"lash/internal/flist"
	"lash/internal/miner"
)

// flatPartition builds a partition over a flat rank space (no hierarchy).
func flatPartition(pivot flist.Rank, nRanks int, weights []int64, seqs ...[]flist.Rank) *miner.Partition {
	parent := make([]flist.Rank, nRanks)
	for i := range parent {
		parent[i] = flist.NoRank
	}
	p := &miner.Partition{Pivot: pivot, Parent: parent}
	for i, s := range seqs {
		w := int64(1)
		if weights != nil {
			w = weights[i]
		}
		p.Seqs = append(p.Seqs, miner.WSeq{Items: s, Weight: w})
	}
	return p
}

// The right-expansion index scenario of §5.2: if Sw' is an infrequent right
// expansion of S, then w”Sw' is pruned without a support computation. We
// build a partition where pattern "pivot·x" is infrequent but after the left
// expansion "y·pivot" the item x would still be collected as a candidate —
// the indexed run must explore strictly fewer candidates and emit the same
// patterns.
func TestPSMIndexPruningScenario(t *testing.T) {
	// Ranks: 0=y, 1=x, 2=pivot.
	const y, x, pivot = flist.Rank(0), flist.Rank(1), flist.Rank(2)
	p := flatPartition(pivot, 3, nil,
		[]flist.Rank{y, pivot, x}, // y·pivot frequent; pivot·x occurs once
		[]flist.Rank{y, pivot, y},
		[]flist.Rank{y, pivot, y},
	)
	cfg := miner.Config{Sigma: 2, Gamma: 0, Lambda: 3, PivotOnly: true}
	noIdx, sPlain := collect(miner.New(miner.KindPSMNoIndex), p, cfg, nil)
	withIdx, sIdx := collect(miner.New(miner.KindPSM), p, cfg, nil)
	if len(noIdx) != len(withIdx) {
		t.Fatalf("index changed output: %d vs %d patterns", len(noIdx), len(withIdx))
	}
	for i := range noIdx {
		if noIdx[i].Weight != withIdx[i].Weight {
			t.Fatalf("index changed supports")
		}
	}
	if sIdx.Explored >= sPlain.Explored {
		t.Fatalf("index did not prune: explored %d vs %d", sIdx.Explored, sPlain.Explored)
	}
	// Expected frequent pivot patterns: y·pivot (3), pivot·y (2), y·pivot·y (2).
	want := map[string]int64{
		rankKey([]flist.Rank{y, pivot}):    3,
		rankKey([]flist.Rank{pivot, y}):    2,
		rankKey([]flist.Rank{y, pivot, y}): 2,
	}
	if len(noIdx) != len(want) {
		t.Fatalf("got %d patterns, want %d", len(noIdx), len(want))
	}
	for _, g := range noIdx {
		if want[rankKey(g.Items)] != g.Weight {
			t.Fatalf("unexpected pattern %v:%d", g.Items, g.Weight)
		}
	}
}

// A pattern whose unique decomposition has the pivot in the middle must be
// built by left-expansions first, then right-expansions — and only once.
func TestPSMUniqueDecomposition(t *testing.T) {
	// Ranks: 0=a, 1=pivot. Sequence a·p·a·p contains p a p (pivot twice).
	const a, pv = flist.Rank(0), flist.Rank(1)
	p := flatPartition(pv, 2, nil,
		[]flist.Rank{a, pv, a, pv},
		[]flist.Rank{a, pv, a, pv},
	)
	cfg := miner.Config{Sigma: 2, Gamma: 0, Lambda: 4, PivotOnly: true}
	got, _ := collect(miner.New(miner.KindPSMNoIndex), p, cfg, nil)
	if want := oracleMine(p, cfg); !equalWSeqs(got, want) {
		t.Fatalf("PSM output %v, by definition %v", got, want)
	}
	// p·a·p must be present exactly once with support 2 — the duplicate-free
	// enumeration of Fig. 3's discussion.
	if !slices.ContainsFunc(got, func(w miner.WSeq) bool { return slices.Equal(w.Items, []flist.Rank{pv, a, pv}) && w.Weight == 2 }) {
		t.Fatalf("pivot-in-middle pattern wrong: %v", got)
	}
}

// Isolated pivot occurrences (beyond gap range of everything) contribute no
// patterns but must not break counting of other occurrences.
func TestPSMRepeatedPivotOccurrences(t *testing.T) {
	const a, pv = flist.Rank(0), flist.Rank(1)
	p := flatPartition(pv, 2, nil,
		[]flist.Rank{pv, flist.NoRank, flist.NoRank, pv, a},
	)
	cfg := miner.Config{Sigma: 1, Gamma: 0, Lambda: 2, PivotOnly: true}
	got, _ := minerOutputMap(miner.New(miner.KindPSM), p, cfg)
	if len(got) != 1 || got[rankKey([]flist.Rank{pv, a})] != 1 {
		t.Fatalf("got %v, want only pv·a", got)
	}
}

// Weighted left-expansion counting: distinct tids accumulate weights once
// even with multiple occurrence pairs.
func TestPSMWeightedLeftExpansion(t *testing.T) {
	const a, pv = flist.Rank(0), flist.Rank(1)
	p := flatPartition(pv, 2, []int64{3},
		[]flist.Rank{a, pv, a, pv}, // two occurrences of a·pv in one tid
	)
	cfg := miner.Config{Sigma: 1, Gamma: 0, Lambda: 2, PivotOnly: true}
	got, _ := minerOutputMap(miner.New(miner.KindPSM), p, cfg)
	if got[rankKey([]flist.Rank{a, pv})] != 3 {
		t.Fatalf("weighted support = %v, want 3", got)
	}
}

type lastLevelCase struct {
	name     string
	p        *miner.Partition
	cfg      miner.Config
	kinds    []miner.Kind
	want     []miner.WSeq // patterns and supports, in emit order
	explored int64
}

// lastLevelCases are TestLastLevel's table and FuzzMinersAgree's seeds.
func lastLevelCases() []lastLevelCase {
	const none = flist.NoRank
	psmKinds := []miner.Kind{miner.KindPSM, miner.KindPSMNoIndex}
	twoDescendants := &miner.Partition{Pivot: 3, Parent: []flist.Rank{none, 0, 0, none},
		Seqs: []miner.WSeq{{Items: []flist.Rank{3, 1, 2}, Weight: 2}}}
	twoDescendantsCfg := miner.Config{Sigma: 2, Gamma: 1, Lambda: 2, PivotOnly: true}
	twoDescendantsWant := []miner.WSeq{
		{[]flist.Rank{3, 0}, 2},
		{[]flist.Rank{3, 1}, 2},
		{[]flist.Rank{3, 2}, 2},
	}
	return []lastLevelCase{
		{
			// The root is the last level: right counts, then left counts.
			name: "lambda 2 gamma 0",
			p: flatPartition(2, 3, []int64{2, 1},
				[]flist.Rank{0, 2, 1},
				[]flist.Rank{1, 2, 1}),
			cfg:   miner.Config{Sigma: 2, Gamma: 0, Lambda: 2, PivotOnly: true},
			kinds: psmKinds,
			want: []miner.WSeq{
				{[]flist.Rank{2, 1}, 3},
				{[]flist.Rank{0, 2}, 2},
			},
			explored: 3, // right: 1; left: 0, 1
		},
		{
			name: "lambda 2 gamma 1, a blank inside the window",
			p: flatPartition(2, 3, []int64{2, 1},
				[]flist.Rank{0, 1, 2, 0, 1},
				[]flist.Rank{2, none, 1}),
			cfg:      miner.Config{Sigma: 3, Gamma: 1, Lambda: 2, PivotOnly: true},
			kinds:    psmKinds,
			want:     []miner.WSeq{{[]flist.Rank{2, 1}, 3}},
			explored: 4, // right: 0 (2), 1 (3); left: 0 (2), 1 (2)
		},
		{
			// Both pivot occurrences see item 0, right and left: one
			// sequence, counted once at its weight.
			name: "a candidate in two windows of one sequence",
			p: flatPartition(1, 2, []int64{3},
				[]flist.Rank{0, 1, 0, 1, 0}),
			cfg:   miner.Config{Sigma: 1, Gamma: 0, Lambda: 2, PivotOnly: true},
			kinds: psmKinds,
			want: []miner.WSeq{
				{[]flist.Rank{1, 0}, 3},
				{[]flist.Rank{0, 1}, 3},
			},
			explored: 2,
		},
		{
			// Ranks 1 and 2 both generalize to 0; one window holds both.
			name:     "two descendants of one ancestor",
			p:        twoDescendants,
			cfg:      twoDescendantsCfg,
			kinds:    psmKinds,
			want:     twoDescendantsWant,
			explored: 3,
		},
		{
			name:     "two descendants of one ancestor, by DFS",
			p:        twoDescendants,
			cfg:      twoDescendantsCfg,
			kinds:    []miner.Kind{miner.KindDFS},
			want:     twoDescendantsWant,
			explored: 11, // the 4 items, then the right expansions of 3 (3), 1 (2) and 0 (2)
		},
		{
			// The pivot is no right candidate (unique decomposition) but is
			// a left one.
			name: "pivot to the right skipped",
			p: flatPartition(1, 2, nil,
				[]flist.Rank{1, 1, 0}),
			cfg:   miner.Config{Sigma: 1, Gamma: 0, Lambda: 2, PivotOnly: true},
			kinds: psmKinds,
			want: []miner.WSeq{
				{[]flist.Rank{1, 0}, 1},
				{[]flist.Rank{1, 1}, 1},
			},
			explored: 2,
		},
		{
			// TestPSMIndexPruningScenario's partition: x (1) is infrequent
			// after the pivot, so under the anchor y·pivot — a last level at
			// λ 3 — the index drops it before its support is counted.
			name: "index-pruned candidate",
			p: flatPartition(2, 3, nil,
				[]flist.Rank{0, 2, 1},
				[]flist.Rank{0, 2, 0},
				[]flist.Rank{0, 2, 0}),
			cfg:   miner.Config{Sigma: 2, Gamma: 0, Lambda: 3, PivotOnly: true},
			kinds: []miner.Kind{miner.KindPSM},
			want: []miner.WSeq{
				{[]flist.Rank{2, 0}, 2},
				{[]flist.Rank{0, 2}, 3},
				{[]flist.Rank{0, 2, 0}, 2},
			},
			explored: 4, // 5 without the index
		},
		{
			// A rank above the pivot (rewrite.ModeNone) is no candidate.
			name: "rank above the pivot",
			p: flatPartition(1, 3, nil,
				[]flist.Rank{2, 1, 2},
				[]flist.Rank{0, 1, 2}),
			cfg:      miner.Config{Sigma: 1, Gamma: 0, Lambda: 2, PivotOnly: true},
			kinds:    psmKinds,
			want:     []miner.WSeq{{[]flist.Rank{0, 1}, 1}},
			explored: 1,
		},
	}
}

// The last level: a pattern of λ−1 items takes only the supports of its
// expansions (Scratch's count table) — no postings, no occurrence pairs.
// Each case pins the emissions in order and Stats.Explored by hand, and
// holds the patterns to the definition too.
func TestLastLevel(t *testing.T) {
	for _, tc := range lastLevelCases() {
		for _, kind := range tc.kinds {
			var got []miner.WSeq
			stats := miner.New(kind).Mine(tc.p, tc.cfg, nil, func(pat []flist.Rank, sup int64) {
				got = append(got, miner.WSeq{Items: slices.Clone(pat), Weight: sup})
			})
			sorted := slices.Clone(got)
			sortWSeqs(sorted)
			if want := oracleMine(tc.p, tc.cfg); !equalWSeqs(sorted, want) || stats.Output != int64(len(want)) {
				t.Errorf("%s/%s: %v %+v, by definition %v", tc.name, kind, sorted, stats, want)
			}
			if stats.Explored != tc.explored {
				t.Errorf("%s/%s: explored %d, want %d", tc.name, kind, stats.Explored, tc.explored)
			}
			if kind == miner.KindDFS {
				got = sorted // the same set in its own order; the cases list theirs sorted
			}
			if !equalWSeqs(got, tc.want) {
				t.Errorf("%s/%s: emitted %v, want %v", tc.name, kind, got, tc.want)
			}
		}
	}
}

// A panic out of emit in the middle of a last level (how core.mineJob
// cancels an in-flight miner) leaves the Scratch ready: the next Mine with
// it equals one with a fresh Scratch.
func TestLastLevelPanicThenReuse(t *testing.T) {
	p := flatPartition(2, 3, []int64{2, 1, 1},
		[]flist.Rank{0, 1, 2, 0, 1},
		[]flist.Rank{1, 2, 1, 0},
		[]flist.Rank{0, 2, 2, 1})
	cfg := miner.Config{Sigma: 1, Gamma: 1, Lambda: 3, PivotOnly: true}
	for _, kind := range []miner.Kind{miner.KindPSM, miner.KindPSMNoIndex, miner.KindDFS} {
		want, wantStats := collect(miner.New(kind), p, cfg, nil)
		lastLevel := 0
		for _, w := range want {
			if len(w.Items) == cfg.Lambda {
				lastLevel++
			}
		}
		if lastLevel < 4 {
			t.Fatalf("%s: only %d patterns of length λ; the case does not reach mid last level", kind, lastLevel)
		}
		sc := miner.NewScratch()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: emit never reached a second pattern of length λ", kind)
				}
			}()
			seen := 0
			miner.New(kind).Mine(p, cfg, sc, func(pat []flist.Rank, _ int64) {
				if len(pat) == cfg.Lambda {
					if seen++; seen == 2 {
						panic("abort mid last level")
					}
				}
			})
		}()
		got, gotStats := collect(miner.New(kind), p, cfg, sc)
		if !equalWSeqs(got, want) || gotStats != wantStats {
			t.Errorf("%s: after an aborted mine the reused scratch gave %v %+v, want %v %+v", kind, got, gotStats, want, wantStats)
		}
	}
}
