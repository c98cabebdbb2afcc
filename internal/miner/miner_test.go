package miner_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lash/internal/flist"
	"lash/internal/gsm"
	"lash/internal/miner"
	"lash/internal/paperex"
	"lash/internal/rewrite"
)

var allKinds = []miner.Kind{miner.KindPSM, miner.KindPSMNoIndex, miner.KindBFS, miner.KindDFS}

// paperPartition builds partition P_w of the running example (σ=2, γ=1, λ=3)
// through the real rewrite path, with duplicate aggregation (§4.4).
func paperPartition(t testing.TB, pivotName string) (*miner.Partition, *flist.FList) {
	t.Helper()
	db := paperex.Database()
	fl, err := flist.Build(db.Forest, flist.ComputeFrequencies(db), 2)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := fl.Forest().Lookup(pivotName)
	if !ok {
		t.Fatalf("unknown pivot %q", pivotName)
	}
	pivot := fl.RankOf(w)
	rw := rewrite.NewRewriter(fl, 1, 3)
	agg := make(map[string]int64)
	var order []string
	for _, seq := range db.Seqs {
		out := rw.Rewrite(nil, seq, pivot)
		if out == nil {
			continue
		}
		k := rankKey(out)
		if _, dup := agg[k]; !dup {
			order = append(order, k)
		}
		agg[k]++
	}
	p := &miner.Partition{Pivot: pivot, Parent: fl.ParentTable()}
	for _, k := range order {
		p.Seqs = append(p.Seqs, miner.WSeq{Items: ranksFromKey(k), Weight: agg[k]})
	}
	return p, fl
}

func rankKey(rs []flist.Rank) string {
	b := make([]byte, 0, 4*len(rs))
	for _, r := range rs {
		b = append(b, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
	}
	return string(b)
}

func ranksFromKey(k string) []flist.Rank {
	rs := make([]flist.Rank, len(k)/4)
	for i := range rs {
		rs[i] = flist.Rank(k[4*i]) | flist.Rank(k[4*i+1])<<8 |
			flist.Rank(k[4*i+2])<<16 | flist.Rank(k[4*i+3])<<24
	}
	return rs
}

func patStr(fl *flist.FList, s []flist.Rank) string {
	parts := make([]string, len(s))
	for i, r := range s {
		parts[i] = fl.Forest().Name(fl.VocabOf(r))
	}
	return strings.Join(parts, " ")
}

// Golden: every miner reproduces Fig. 2's per-partition mining output.
func TestPaperPartitionsAllMiners(t *testing.T) {
	want := map[string]map[string]int64{
		"a":  {"a a": 2},
		"B":  {"a B": 3, "B a": 2},
		"b1": {"a b1": 2, "b1 a": 2},
		"c":  {"B c": 2, "a c": 2, "a B c": 2},
		"D":  {"b1 D": 2, "B D": 2},
	}
	cfg := miner.Config{Sigma: 2, Gamma: 1, Lambda: 3, PivotOnly: true}
	for pivotName, wantPats := range want {
		p, fl := paperPartition(t, pivotName)
		for _, kind := range allKinds {
			got, stats := collect(miner.New(kind), p, cfg, nil)
			if len(got) != len(wantPats) {
				var names []string
				for _, g := range got {
					names = append(names, patStr(fl, g.Items))
				}
				t.Fatalf("%s on P_%s: got %d patterns %v, want %d", kind, pivotName, len(got), names, len(wantPats))
			}
			for _, g := range got {
				name := patStr(fl, g.Items)
				if wantPats[name] != g.Weight {
					t.Errorf("%s on P_%s: %q support %d, want %d", kind, pivotName, name, g.Weight, wantPats[name])
				}
			}
			if stats.Output != int64(len(wantPats)) {
				t.Errorf("%s on P_%s: Output = %d, want %d", kind, pivotName, stats.Output, len(wantPats))
			}
			if stats.Explored < stats.Output {
				t.Errorf("%s on P_%s: Explored %d < Output %d", kind, pivotName, stats.Explored, stats.Output)
			}
		}
	}
}

// Without the pivot filter, BFS and DFS also produce locally frequent
// non-pivot sequences (§5.1 "Overhead") — e.g. aB in partition P_c.
func TestPivotOnlyFilter(t *testing.T) {
	p, fl := paperPartition(t, "c")
	cfg := miner.Config{Sigma: 2, Gamma: 1, Lambda: 3, PivotOnly: false}
	for _, kind := range []miner.Kind{miner.KindBFS, miner.KindDFS} {
		got, _ := collect(miner.New(kind), p, cfg, nil)
		found := false
		for _, g := range got {
			if patStr(fl, g.Items) == "a B" {
				found = true
				if g.Weight != 2 {
					t.Errorf("%s: aB support %d, want 2", kind, g.Weight)
				}
			}
		}
		if !found {
			t.Errorf("%s: non-pivot sequence aB not mined with PivotOnly=false", kind)
		}
	}
}

// --- randomized cross-validation ----------------------------------------

// randPartition builds a random rank-space partition: a random parent table
// (parent rank < child rank), a pivot, and sequences whose items are ≤ pivot
// with occasional blanks, with random weights.
func randPartition(r *rand.Rand) *miner.Partition {
	nRanks := 2 + r.Intn(6)
	parent := make([]flist.Rank, nRanks)
	for i := range parent {
		if i == 0 || r.Intn(2) == 0 {
			parent[i] = flist.NoRank
		} else {
			parent[i] = flist.Rank(r.Intn(i))
		}
	}
	pivot := flist.Rank(1 + r.Intn(nRanks-1))
	p := &miner.Partition{Pivot: pivot, Parent: parent}
	for i, k := 0, 1+r.Intn(6); i < k; i++ {
		l := 2 + r.Intn(7)
		items := make([]flist.Rank, l)
		for j := range items {
			if r.Intn(6) == 0 {
				items[j] = flist.NoRank
			} else {
				items[j] = flist.Rank(r.Intn(int(pivot) + 1))
			}
		}
		p.Seqs = append(p.Seqs, miner.WSeq{Items: items, Weight: 1 + int64(r.Intn(3))})
	}
	return p
}

func minerOutputMap(m miner.Miner, p *miner.Partition, cfg miner.Config) (map[string]int64, miner.Stats) {
	out := make(map[string]int64)
	stats := m.Mine(p, cfg, nil, func(pat []flist.Rank, sup int64) {
		out[rankKey(pat)] = sup
	})
	return out, stats
}

func mapsEqual(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Property: all four miners agree with the definition (oracleMine) on random
// partitions, in pivot-only mode.
func TestQuickMinersMatchBrute(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPartition(r)
		cfg := miner.Config{
			Sigma:     1 + int64(r.Intn(4)),
			Gamma:     r.Intn(3),
			Lambda:    2 + r.Intn(3),
			PivotOnly: true,
		}
		want := oracleMine(p, cfg)
		for _, kind := range allKinds {
			if got, _ := collect(miner.New(kind), p, cfg, nil); !equalWSeqs(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(101))}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS and DFS agree with the definition when mining everything
// (PivotOnly = false) — the whole-database mode.
func TestQuickFullMiningMatchesBrute(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPartition(r)
		cfg := miner.Config{
			Sigma:  1 + int64(r.Intn(4)),
			Gamma:  r.Intn(3),
			Lambda: 2 + r.Intn(3),
		}
		want := oracleMine(p, cfg)
		for _, kind := range []miner.Kind{miner.KindBFS, miner.KindDFS} {
			if got, _ := collect(miner.New(kind), p, cfg, nil); !equalWSeqs(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(103))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the right-expansion index never changes PSM's output and never
// increases the explored count (Fig. 4d).
func TestQuickIndexPrunesSafely(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPartition(r)
		cfg := miner.Config{
			Sigma:     1 + int64(r.Intn(3)),
			Gamma:     r.Intn(3),
			Lambda:    2 + r.Intn(4),
			PivotOnly: true,
		}
		plain, sPlain := minerOutputMap(miner.New(miner.KindPSMNoIndex), p, cfg)
		idx, sIdx := minerOutputMap(miner.New(miner.KindPSM), p, cfg)
		return mapsEqual(plain, idx) && sIdx.Explored <= sPlain.Explored
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(107))}); err != nil {
		t.Fatal(err)
	}
}

// With σ=1 every candidate is frequent, so explored counts reduce to the
// sizes of the search spaces: PSM must explore no more than DFS (§5.2
// analysis).
func TestQuickPSMSearchSpaceSmaller(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPartition(r)
		cfg := miner.Config{Sigma: 1, Gamma: r.Intn(2), Lambda: 2 + r.Intn(3), PivotOnly: true}
		_, sPSM := minerOutputMap(miner.New(miner.KindPSMNoIndex), p, cfg)
		_, sDFS := minerOutputMap(miner.New(miner.KindDFS), p, cfg)
		return sPSM.Explored <= sDFS.Explored
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(109))}); err != nil {
		t.Fatal(err)
	}
}

// Weighted duplicate aggregation must contribute full weights to supports.
func TestWeightedSupport(t *testing.T) {
	// Partition with pivot 1, flat hierarchy: "0 1" x5 aggregated + "1 0" x1.
	p := &miner.Partition{
		Pivot:  1,
		Parent: []flist.Rank{flist.NoRank, flist.NoRank},
		Seqs: []miner.WSeq{
			{Items: []flist.Rank{0, 1}, Weight: 5},
			{Items: []flist.Rank{1, 0}, Weight: 1},
		},
	}
	cfg := miner.Config{Sigma: 5, Gamma: 0, Lambda: 2, PivotOnly: true}
	for _, kind := range allKinds {
		got, _ := minerOutputMap(miner.New(kind), p, cfg)
		if len(got) != 1 || got[rankKey([]flist.Rank{0, 1})] != 5 {
			t.Errorf("%s: weighted support wrong: %v", kind, got)
		}
	}
}

// λ bounds the pattern length; γ=0 requires adjacency.
func TestConstraintEdges(t *testing.T) {
	p := &miner.Partition{
		Pivot:  1,
		Parent: []flist.Rank{flist.NoRank, flist.NoRank},
		Seqs: []miner.WSeq{
			{Items: []flist.Rank{0, 1, 0, 1, 0}, Weight: 1},
		},
	}
	for _, kind := range allKinds {
		cfg := miner.Config{Sigma: 1, Gamma: 0, Lambda: 3, PivotOnly: true}
		got, _ := minerOutputMap(miner.New(kind), p, cfg)
		for k := range got {
			if n := len(ranksFromKey(k)); n > 3 || n < 2 {
				t.Errorf("%s: pattern length %d outside [2,3]", kind, n)
			}
		}
		// γ=0: "0 1 0" occurs (adjacent); "1 1" must not (needs gap 1).
		if _, ok := got[rankKey([]flist.Rank{0, 1, 0})]; !ok {
			t.Errorf("%s: missing adjacent pattern 0 1 0", kind)
		}
		if _, ok := got[rankKey([]flist.Rank{1, 1})]; ok {
			t.Errorf("%s: gap-violating pattern 1 1 mined at γ=0", kind)
		}
	}
}

// Blanks are placeholders: they match nothing but still consume gap budget.
func TestBlankSemantics(t *testing.T) {
	p := &miner.Partition{
		Pivot:  1,
		Parent: []flist.Rank{flist.NoRank, flist.NoRank},
		Seqs: []miner.WSeq{
			{Items: []flist.Rank{1, flist.NoRank, 0}, Weight: 1},
		},
	}
	// γ=0: 1 and 0 are 2 apart → no pattern. γ=1: "1 0" appears.
	for _, kind := range allKinds {
		got0, _ := minerOutputMap(miner.New(kind), p, miner.Config{Sigma: 1, Gamma: 0, Lambda: 2, PivotOnly: true})
		if len(got0) != 0 {
			t.Errorf("%s: blank did not consume gap budget: %v", kind, got0)
		}
		got1, _ := minerOutputMap(miner.New(kind), p, miner.Config{Sigma: 1, Gamma: 1, Lambda: 2, PivotOnly: true})
		if len(got1) != 1 || got1[rankKey([]flist.Rank{1, 0})] != 1 {
			t.Errorf("%s: pattern across blank missing: %v", kind, got1)
		}
	}
}

// An empty partition or a partition without pivot occurrences mines nothing.
func TestEmptyPartitions(t *testing.T) {
	for _, kind := range allKinds {
		empty := &miner.Partition{Pivot: 0, Parent: []flist.Rank{flist.NoRank}}
		if got, _ := minerOutputMap(miner.New(kind), empty, miner.Config{Sigma: 1, Gamma: 1, Lambda: 3, PivotOnly: true}); len(got) != 0 {
			t.Errorf("%s: mined from empty partition", kind)
		}
	}
	noPivot := &miner.Partition{
		Pivot:  1,
		Parent: []flist.Rank{flist.NoRank, flist.NoRank},
		Seqs:   []miner.WSeq{{Items: []flist.Rank{0, 0}, Weight: 1}},
	}
	got, _ := minerOutputMap(miner.New(miner.KindPSM), noPivot, miner.Config{Sigma: 1, Gamma: 1, Lambda: 3, PivotOnly: true})
	if len(got) != 0 {
		t.Errorf("PSM mined pivot sequences without pivot occurrences: %v", got)
	}
}

// Mining the paper's database as one whole partition (items pre-generalized
// to their closest frequent ancestor) with PivotOnly=false reproduces the
// paper's full expected output — a second, independent path to the golden
// result of §2.
func TestWholeDatabaseMining(t *testing.T) {
	db := paperex.Database()
	fl, err := flist.Build(db.Forest, flist.ComputeFrequencies(db), 2)
	if err != nil {
		t.Fatal(err)
	}
	p := &miner.Partition{Pivot: flist.NoRank, Parent: fl.ParentTable()}
	for _, seq := range db.Seqs {
		items := make([]flist.Rank, len(seq))
		for i, w := range seq {
			items[i] = fl.FrequentRank(w)
		}
		p.Seqs = append(p.Seqs, miner.WSeq{Items: items, Weight: 1})
	}
	cfg := miner.Config{Sigma: 2, Gamma: 1, Lambda: 3, PivotOnly: false}
	want := paperex.Expected(db.Forest)
	for _, kind := range []miner.Kind{miner.KindBFS, miner.KindDFS} {
		got, _ := minerOutputMap(miner.New(kind), p, cfg)
		if len(got) != len(want) {
			t.Fatalf("%s whole-DB: %d patterns, want %d", kind, len(got), len(want))
		}
		for _, wp := range want {
			ranks := make([]flist.Rank, len(wp.Items))
			for i, w := range wp.Items {
				ranks[i] = fl.RankOf(w)
			}
			if got[rankKey(ranks)] != wp.Support {
				t.Errorf("%s whole-DB: %s = %d, want %d", kind,
					gsm.String(db.Forest, wp.Items), got[rankKey(ranks)], wp.Support)
			}
		}
	}
}
