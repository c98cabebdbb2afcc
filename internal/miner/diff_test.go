package miner_test

// Equivalence tests for the local miners on randomized weighted partitions
// across PivotOnly/γ/λ/σ configurations: every miner must mine exactly the
// patterns and supports of the definition (oracleMine, gsm.MineBruteForce
// over the partition) — also when one Scratch is reused across partitions,
// kinds and configurations — and TestMinerGolden pins what the definition
// leaves open, Stats and emission order.

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"lash/internal/flist"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
	"lash/internal/miner"
)

// diffPartition builds a random weighted partition. Unlike randPartition it
// also exercises large rank spaces (ranks ≥ 256, multi-byte interning keys)
// and deeper hierarchies, and one partition in four holds ranks above the
// pivot — the shape rewrite.ModeNone hands the miners, which is what their
// "a ≤ bound" test exists for.
func diffPartition(r *rand.Rand) *miner.Partition {
	nRanks := 2 + r.Intn(8)
	if r.Intn(4) == 0 {
		nRanks = 250 + r.Intn(300) // stress multi-byte rank keys
	}
	parent := make([]flist.Rank, nRanks)
	for i := range parent {
		if i == 0 || r.Intn(3) == 0 {
			parent[i] = flist.NoRank
		} else {
			parent[i] = flist.Rank(r.Intn(i))
		}
	}
	pivot := flist.Rank(1 + r.Intn(nRanks-1))
	p := &miner.Partition{Pivot: pivot, Parent: parent}
	top := int(pivot) + 1
	if r.Intn(4) == 0 {
		top = nRanks
	}
	for i, k := 0, 1+r.Intn(7); i < k; i++ {
		l := 2 + r.Intn(9)
		items := make([]flist.Rank, l)
		for j := range items {
			if r.Intn(6) == 0 {
				items[j] = flist.NoRank
			} else {
				items[j] = flist.Rank(r.Intn(top))
			}
		}
		p.Seqs = append(p.Seqs, miner.WSeq{Items: items, Weight: 1 + int64(r.Intn(4))})
	}
	return p
}

func diffConfig(r *rand.Rand) miner.Config {
	return miner.Config{
		Sigma:     1 + int64(r.Intn(4)),
		Gamma:     r.Intn(3),
		Lambda:    2 + r.Intn(4),
		PivotOnly: r.Intn(2) == 0,
	}
}

// collect runs a miner and returns its output in canonical order plus stats.
func collect(m miner.Miner, p *miner.Partition, cfg miner.Config, sc *miner.Scratch) ([]miner.WSeq, miner.Stats) {
	var out []miner.WSeq
	stats := m.Mine(p, cfg, sc, func(pat []flist.Rank, sup int64) {
		out = append(out, miner.WSeq{Items: append([]flist.Rank(nil), pat...), Weight: sup})
	})
	sortWSeqs(out)
	return out, stats
}

func sortWSeqs(out []miner.WSeq) {
	// Canonical order: length, then rank-lexicographic (matches
	// gsm.SortPatterns).
	slices.SortFunc(out, func(a, b miner.WSeq) int {
		if len(a.Items) != len(b.Items) {
			return len(a.Items) - len(b.Items)
		}
		return slices.Compare(a.Items, b.Items)
	})
}

func equalWSeqs(a, b []miner.WSeq) bool {
	return slices.EqualFunc(a, b, func(x, y miner.WSeq) bool {
		return x.Weight == y.Weight && slices.Equal(x.Items, y.Items)
	})
}

// oracleMine mines a partition by the definition. It restates p as a
// gsm.Database — rank r as item r, Parent as the forest's edges, a blank as
// one more item with no parent, a sequence of weight w as w copies — and
// returns gsm.MineBruteForce's patterns without a blank, in canonical order.
// Under PivotOnly it keeps those whose largest rank is the pivot (p(S), which
// on a rewrite.ModeNone-shaped partition is not "contains the pivot").
func oracleMine(p *miner.Partition, cfg miner.Config) []miner.WSeq {
	n := len(p.Parent)
	b := hierarchy.NewBuilder()
	for r := 0; r <= n; r++ { // item n is the blank
		b.Add(strconv.Itoa(r))
	}
	for r, par := range p.Parent {
		if par != flist.NoRank {
			b.AddEdge(strconv.Itoa(r), strconv.Itoa(int(par)))
		}
	}
	f, err := b.Build()
	if err != nil {
		panic(err)
	}
	db := &gsm.Database{Forest: f}
	for _, ws := range p.Seqs {
		seq := make(gsm.Sequence, len(ws.Items))
		for i, r := range ws.Items {
			seq[i] = hierarchy.Item(min(int(r), n))
		}
		for range ws.Weight {
			db.Seqs = append(db.Seqs, seq)
		}
	}
	var out []miner.WSeq
	for _, pat := range gsm.MineBruteForce(db, gsm.Params{Sigma: cfg.Sigma, Gamma: cfg.Gamma, Lambda: cfg.Lambda}) {
		items := make([]flist.Rank, len(pat.Items))
		for i, w := range pat.Items {
			items[i] = flist.Rank(w)
		}
		if !slices.Contains(pat.Items, hierarchy.Item(n)) {
			out = append(out, miner.WSeq{Items: items, Weight: pat.Support})
		}
	}
	if cfg.PivotOnly {
		out = pivotSeqs(out, p.Pivot)
	}
	return out
}

// pivotSeqs keeps, in place, the patterns whose largest rank is the pivot.
func pivotSeqs(ws []miner.WSeq, pivot flist.Rank) []miner.WSeq {
	return slices.DeleteFunc(ws, func(w miner.WSeq) bool { return slices.Max(w.Items) != pivot })
}

// oracleBudget bounds oracleCost for the tests that consult the oracle on
// random partitions; above it they check the miners against each other only.
const oracleBudget = 20_000

// oracleCost estimates the oracle's enumeration of generalized subsequences:
// per sequence copy, the walks of up to λ positions, each step within γ+1 of
// the last, times each position's generalizations.
func oracleCost(p *miner.Partition, cfg miner.Config) int64 {
	var total int64
	for _, ws := range p.Seqs {
		deg := make([]int64, len(ws.Items))
		for i, r := range ws.Items {
			for deg[i] = 1; r != flist.NoRank && p.Parent[r] != flist.NoRank; r = p.Parent[r] {
				deg[i]++
			}
		}
		walks := slices.Clone(deg)
		for k := 1; k < cfg.Lambda; k++ {
			next := make([]int64, len(deg))
			for i := range deg {
				next[i] = 1
				for j := i + 1; j <= i+1+cfg.Gamma && j < len(deg); j++ {
					next[i] += walks[j]
				}
				next[i] *= deg[i]
			}
			walks = next
		}
		for _, w := range walks {
			total += w * ws.Weight
		}
	}
	return total
}

// diffTable is a seeded table of random partitions and configurations.
type diffTable struct {
	seed   int64
	trials int
	shared bool // mine every trial through one Scratch, with one kind drawn per trial
}

var (
	allKindsTable = diffTable{211, 400, false}
	reuseTable    = diffTable{223, 300, true}
)

// run mines every trial of the table with its kinds and hands each mine to fn.
func (tab diffTable) run(fn func(trial int, p *miner.Partition, cfg miner.Config, kind miner.Kind, emitted []miner.WSeq, stats miner.Stats)) {
	r := rand.New(rand.NewSource(tab.seed))
	var sc *miner.Scratch
	if tab.shared {
		sc = miner.NewScratch()
	}
	for trial := 0; trial < tab.trials; trial++ {
		p, cfg := diffPartition(r), diffConfig(r)
		kinds := allKinds
		if tab.shared {
			kinds = allKinds[r.Intn(len(allKinds)):][:1]
		}
		for _, kind := range kinds {
			var emitted []miner.WSeq
			stats := miner.New(kind).Mine(p, cfg, sc, func(pat []flist.Rank, sup int64) {
				emitted = append(emitted, miner.WSeq{Items: slices.Clone(pat), Weight: sup})
			})
			fn(trial, p, cfg, kind, emitted, stats)
		}
	}
}

// checkTable holds every mine of a table the oracle can afford to the
// definition.
func checkTable(t *testing.T, tab diffTable) {
	mines, checked, sawOutput := 0, 0, false
	last, full := -1, []miner.WSeq(nil) // the oracle's patterns of trial last
	tab.run(func(trial int, p *miner.Partition, cfg miner.Config, kind miner.Kind, emitted []miner.WSeq, _ miner.Stats) {
		if mines++; oracleCost(p, cfg) > oracleBudget {
			return
		}
		if trial != last {
			last, full = trial, oracleMine(p, miner.Config{Sigma: cfg.Sigma, Gamma: cfg.Gamma, Lambda: cfg.Lambda})
		}
		want, got := full, slices.Clone(emitted)
		if cfg.PivotOnly || kind == miner.KindPSM || kind == miner.KindPSMNoIndex {
			want = pivotSeqs(slices.Clone(full), p.Pivot) // PSM mines pivot sequences whatever PivotOnly says
		}
		sortWSeqs(got)
		if !equalWSeqs(got, want) {
			t.Fatalf("trial %d %s cfg %+v on %+v: mined %v, by definition %v", trial, kind, cfg, *p, got, want)
		}
		checked++
		sawOutput = sawOutput || len(want) > 0
	})
	if !sawOutput || checked < mines*3/4 {
		t.Fatalf("seed %d: %d of %d mines checked against the oracle, output seen: %v", tab.seed, checked, mines, sawOutput)
	}
	t.Logf("seed %d: %d of %d mines checked against the oracle", tab.seed, checked, mines)
}

func TestDiffMinersMatchReference(t *testing.T) { checkTable(t, allKindsTable) }

// A single Scratch reused across partitions, miner kinds, and configurations
// must behave exactly like a fresh one — stale epochs, arenas, or index
// bitsets from a previous call must never leak into the next.
func TestDiffScratchReuse(t *testing.T) { checkTable(t, reuseTable) }

// TestMinerGolden pins, per table and miner kind, an FNV-64 digest of every
// trial's sorted patterns and supports, its Stats, and — for PSM and DFS,
// which expand candidates in ascending rank order at every node — the order
// of its emissions. The digests were recorded while the miners matched an
// independent implementation of each algorithm in all three; a change that
// moves one must say why.
func TestMinerGolden(t *testing.T) {
	for _, tc := range []struct {
		tab  diffTable
		want [4]uint64 // by miner.Kind
	}{
		{allKindsTable, [4]uint64{0x5de7952b990617aa, 0x3a23f0700afc6aef, 0x758e648dfe32d747, 0x7f716f27dd2b68d7}},
		{reuseTable, [4]uint64{0xdf6cb9b29bdeb4bb, 0xa541e931059aee18, 0x793f4fa7ff4c35fe, 0x1f48decb089b110d}},
	} {
		var h [4]hash.Hash64
		for i := range h {
			h[i] = fnv.New64a()
		}
		tc.tab.run(func(trial int, _ *miner.Partition, _ miner.Config, kind miner.Kind, emitted []miner.WSeq, stats miner.Stats) {
			sorted := slices.Clone(emitted)
			sortWSeqs(sorted)
			fmt.Fprintf(h[kind], "%d %v %+v\n", trial, sorted, stats)
			if kind != miner.KindBFS {
				fmt.Fprintf(h[kind], "%v\n", emitted)
			}
		})
		var got [4]uint64
		for i := range h {
			got[i] = h[i].Sum64()
		}
		if got != tc.want {
			t.Errorf("seed %d: digests %#x, want %#x", tc.tab.seed, got, tc.want)
		}
	}
}
