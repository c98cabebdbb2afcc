package miner_test

// Differential tests for the dense-table miner rewrite: on randomized
// weighted partitions across PivotOnly/γ/λ/σ configurations, every new miner
// must produce byte-identical patterns and supports and identical
// Stats.Explored/Output to the preserved PR 2 implementations
// (refminer_test.go) — including when one Scratch is reused across
// partitions, kinds, and configurations.

import (
	"fmt"
	"math/rand"
	"testing"

	"lash/internal/flist"
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
	// CollectPatterns).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && lessWSeq(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
}

func lessWSeq(a, b miner.WSeq) bool {
	if len(a.Items) != len(b.Items) {
		return len(a.Items) < len(b.Items)
	}
	for k := range a.Items {
		if a.Items[k] != b.Items[k] {
			return a.Items[k] < b.Items[k]
		}
	}
	return false
}

func equalWSeqs(a, b []miner.WSeq) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Weight != b[i].Weight || len(a[i].Items) != len(b[i].Items) {
			return false
		}
		for k := range a[i].Items {
			if a[i].Items[k] != b[i].Items[k] {
				return false
			}
		}
	}
	return true
}

func TestDiffMinersMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(211))
	sawOutput := false
	for trial := 0; trial < 400; trial++ {
		p := diffPartition(r)
		cfg := diffConfig(r)
		for _, kind := range allKinds {
			want, wantStats := collect(refNew(kind), p, cfg, nil)
			got, gotStats := collect(miner.New(kind), p, cfg, nil)
			if !equalWSeqs(got, want) {
				t.Fatalf("trial %d %s cfg %+v: output diverges\n got: %v\nwant: %v", trial, kind, cfg, got, want)
			}
			if gotStats != wantStats {
				t.Fatalf("trial %d %s cfg %+v: stats diverge: got %+v want %+v", trial, kind, cfg, gotStats, wantStats)
			}
			if wantStats.Output > 0 {
				sawOutput = true
			}
		}
	}
	if !sawOutput {
		t.Fatal("differential test vacuous: no trial produced patterns")
	}
}

// A single Scratch reused across partitions, miner kinds, and configurations
// must behave exactly like a fresh one — stale epochs, arenas, or index
// bitsets from a previous call must never leak into the next.
func TestDiffScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(223))
	sc := miner.NewScratch()
	for trial := 0; trial < 300; trial++ {
		p := diffPartition(r)
		cfg := diffConfig(r)
		kind := allKinds[r.Intn(len(allKinds))]
		want, wantStats := collect(refNew(kind), p, cfg, nil)
		got, gotStats := collect(miner.New(kind), p, cfg, sc)
		if !equalWSeqs(got, want) {
			t.Fatalf("trial %d %s cfg %+v: reused scratch diverges\n got: %v\nwant: %v", trial, kind, cfg, got, want)
		}
		if gotStats != wantStats {
			t.Fatalf("trial %d %s cfg %+v: reused scratch stats diverge: got %+v want %+v", trial, kind, cfg, gotStats, wantStats)
		}
	}
}

// PSM and DFS expand candidates in ascending rank order at every node, so
// even their emission *order* (not just the sorted output) must match the
// reference exactly.
func TestDiffEmissionOrderPSMDFS(t *testing.T) {
	r := rand.New(rand.NewSource(227))
	sc := miner.NewScratch()
	for trial := 0; trial < 200; trial++ {
		p := diffPartition(r)
		cfg := diffConfig(r)
		for _, kind := range []miner.Kind{miner.KindPSM, miner.KindPSMNoIndex, miner.KindDFS} {
			var want, got []string
			refNew(kind).Mine(p, cfg, nil, func(pat []flist.Rank, sup int64) {
				want = append(want, fmt.Sprintf("%v:%d", pat, sup))
			})
			miner.New(kind).Mine(p, cfg, sc, func(pat []flist.Rank, sup int64) {
				got = append(got, fmt.Sprintf("%v:%d", pat, sup))
			})
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: %d emissions, want %d", trial, kind, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d %s: emission %d = %s, want %s", trial, kind, i, got[i], want[i])
				}
			}
		}
	}
}
