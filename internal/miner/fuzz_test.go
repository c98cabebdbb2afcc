package miner_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lash/internal/flist"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
	"lash/internal/miner"
)

// The fuzzed bytes of FuzzMinersAgree, in order: the number of ranks, σ, γ,
// λ, the pivot, one parent byte per rank from 1 up (parent < child, or a
// root), then the sequences — fuzzSeqBreak starts a new one, whose first
// byte is its weight; fuzzBlank is a blank; any other byte is a rank, above
// the pivot included (the rewrite.ModeNone shape).
const (
	fuzzSeqBreak = 0xff
	fuzzBlank    = 0xfe
	fuzzMaxRanks = 10
)

func decodeFuzzPartition(data []byte) (*miner.Partition, miner.Config, bool) {
	if len(data) < 5 {
		return nil, miner.Config{}, false
	}
	n := 2 + int(data[0])%(fuzzMaxRanks-1)
	cfg := miner.Config{
		Sigma:     1 + int64(data[1])%4,
		Gamma:     int(data[2]) % 3,
		Lambda:    2 + int(data[3])%4,
		PivotOnly: true,
	}
	p := &miner.Partition{Pivot: flist.Rank(int(data[4]) % n), Parent: make([]flist.Rank, n)}
	data = data[5:]
	if len(data) < n-1 {
		return nil, miner.Config{}, false
	}
	p.Parent[0] = flist.NoRank
	for i := 1; i < n; i++ {
		p.Parent[i] = flist.NoRank
		if par := int(data[i-1]) % (i + 1); par < i {
			p.Parent[i] = flist.Rank(par)
		}
	}
	start := true
	for _, c := range data[n-1:] {
		switch {
		case c == fuzzSeqBreak:
			start = true
		case start:
			p.Seqs = append(p.Seqs, miner.WSeq{Weight: 1 + int64(c)%4})
			start = false
		case c == fuzzBlank:
			last := &p.Seqs[len(p.Seqs)-1]
			last.Items = append(last.Items, flist.NoRank)
		default:
			last := &p.Seqs[len(p.Seqs)-1]
			last.Items = append(last.Items, flist.Rank(int(c)%n))
		}
	}
	return p, cfg, true
}

// encodeFuzzPartition is decodeFuzzPartition's inverse on what it can
// express (2–10 ranks, σ 1–4, γ 0–2, λ 2–5, weights 1–4).
func encodeFuzzPartition(p *miner.Partition, cfg miner.Config) []byte {
	n := len(p.Parent)
	data := []byte{byte(n - 2), byte(cfg.Sigma - 1), byte(cfg.Gamma), byte(cfg.Lambda - 2), byte(p.Pivot)}
	for i := 1; i < n; i++ {
		if p.Parent[i] == flist.NoRank {
			data = append(data, byte(i))
		} else {
			data = append(data, byte(p.Parent[i]))
		}
	}
	for i, ws := range p.Seqs {
		if i > 0 {
			data = append(data, fuzzSeqBreak)
		}
		data = append(data, byte(ws.Weight-1))
		for _, r := range ws.Items {
			if r == flist.NoRank {
				data = append(data, fuzzBlank)
			} else {
				data = append(data, byte(r))
			}
		}
	}
	return data
}

// addFuzzSeeds adds the seeds FuzzMinersAgree and FuzzGrownPartition share.
func addFuzzSeeds(f *testing.F) {
	for _, tc := range lastLevelCases() {
		data := encodeFuzzPartition(tc.p, tc.cfg)
		if p, cfg, ok := decodeFuzzPartition(data); !ok || cfg != tc.cfg || fmt.Sprint(*p) != fmt.Sprint(*tc.p) {
			f.Fatalf("seed %q does not decode to its case: %v %+v", tc.name, p, cfg)
		}
		f.Add(data)
	}
	// A deeper hierarchy, ranks above the pivot, λ 4, four weights.
	f.Add([]byte("\x06\x01\x01\x02\x04\x00\x01\x01\x03\x02\x05\x06\x00\x04\x01\x05\x04\x02\xfe\x04\x07\xff\x01\x03\x04\x04\x06\x00\xff\x02\x04\x03\x04\x01\x04\xff\x03\x07\x04\x02"))
}

// FuzzMinersAgree mines one fuzzed partition with every local miner through
// one shared Scratch: all four must agree on the pivot sequences and their
// supports, and — where the enumeration is affordable — these are the
// frequent sequences whose largest item is the pivot, by definition
// (oracleMine).
func FuzzMinersAgree(f *testing.F) {
	addFuzzSeeds(f)
	sc := miner.NewScratch()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			return
		}
		p, cfg, ok := decodeFuzzPartition(data)
		if !ok {
			return
		}
		label := fmt.Sprintf("pivot %d parent %v seqs %v cfg %+v", p.Pivot, p.Parent, p.Seqs, cfg)
		var first []miner.WSeq
		for i, kind := range allKinds {
			got, _ := collect(miner.New(kind), p, cfg, sc)
			if i == 0 {
				first = got
			} else if !equalWSeqs(got, first) {
				t.Fatalf("%s: %s and %s disagree\n%v\n%v", label, kind, allKinds[0], got, first)
			}
		}
		if oracleCost(p, cfg) > oracleBudget {
			return
		}
		if want := oracleMine(p, cfg); !equalWSeqs(first, want) {
			t.Fatalf("%s: mined %v, by definition %v", label, first, want)
		}
	})
}

// FuzzGrownPartition holds a grown partition's mine (Partition.Fresh) to what
// delta mining asks of it. A fuzzed partition splits into appended sequences
// (the first k) and old ones; for PSM, PSM without the index and DFS, the
// marked mine of the whole, merged (gsm.MergeGrown) with the definition's
// output on the old part, must equal the definition's output on the whole
// (oracleMine, where affordable), and explore no more than the miner's own
// full mine of the whole.
//
// For both PSMs the grown partition is mined once more with the old part's
// patterns (Partition.Known: the definition's output on the old part where
// affordable, else PSM's own mine of it) and the appended multiplicities.
// Every other appended entry also carries one folded old copy of itself in
// its Weight, as a fresh entry of a delta run does when an old sequence
// equals it; that copy counts in Known, not in Appended. The emission order,
// the supports and the Stats must be those of the grown mine without Known.
func FuzzGrownPartition(f *testing.F) {
	addFuzzSeeds(f)
	sc := miner.NewScratch()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			return
		}
		p, cfg, ok := decodeFuzzPartition(data)
		if !ok || len(p.Seqs) == 0 {
			return
		}
		grown := *p
		grown.Fresh = 1 + int(data[1]>>2)%len(p.Seqs) // σ reads data[1]'s low two bits
		old := &miner.Partition{Pivot: p.Pivot, Parent: p.Parent, Seqs: p.Seqs[grown.Fresh:]}
		label := fmt.Sprintf("pivot %d parent %v seqs %v (first %d appended) cfg %+v", p.Pivot, p.Parent, p.Seqs, grown.Fresh, cfg)
		var want, before []miner.WSeq
		affordable := oracleCost(p, cfg) <= oracleBudget
		if affordable {
			want, before = oracleMine(p, cfg), oracleMine(old, cfg)
		}
		for _, kind := range []miner.Kind{miner.KindPSM, miner.KindPSMNoIndex, miner.KindDFS} {
			_, fullStats := collect(miner.New(kind), p, cfg, sc)
			mined, stats := collect(miner.New(kind), &grown, cfg, sc)
			if stats.Explored > fullStats.Explored {
				t.Fatalf("%s %s: grown mine explored %d, a full mine %d", label, kind, stats.Explored, fullStats.Explored)
			}
			if !affordable {
				continue
			}
			got := gsm.MergeGrown(asPatterns(mined), asPatterns(before))
			gsm.SortPatterns(got)
			if !gsm.EqualPatterns(got, asPatterns(want)) {
				t.Fatalf("%s %s: grown mine %v merged with %v is %v, by definition %v", label, kind, mined, before, got, want)
			}
		}

		folded, oldSeqs := foldOldCopies(&grown)
		oldFolded := &miner.Partition{Pivot: p.Pivot, Parent: p.Parent, Seqs: oldSeqs}
		var prev []miner.WSeq
		if oracleCost(oldFolded, cfg) <= oracleBudget {
			prev = oracleMine(oldFolded, cfg)
		} else {
			prev, _ = collect(miner.New(miner.KindPSM), oldFolded, cfg, sc)
		}
		for _, kind := range []miner.Kind{miner.KindPSM, miner.KindPSMNoIndex} {
			wantOrder, wantStats := mineOrdered(miner.New(kind), folded, cfg, sc)
			lean := *folded
			lean.Known = knownOf(prev)
			gotOrder, gotStats := mineOrdered(miner.New(kind), &lean, cfg, sc)
			if gotStats != wantStats || !equalWSeqs(gotOrder, wantOrder) {
				t.Fatalf("%s %s: with the old patterns %v and appended %v mined %v %+v, without %v %+v",
					label, kind, prev, lean.Appended, gotOrder, gotStats, wantOrder, wantStats)
			}
		}
	})
}

// foldOldCopies returns grown with one old copy of every other appended
// entry folded into its Weight and the appended multiplicities those entries
// had before, and the old sequences that partition stands for: Seqs[Fresh:]
// and the folded copies.
func foldOldCopies(grown *miner.Partition) (*miner.Partition, []miner.WSeq) {
	folded := *grown
	folded.Seqs = slices.Clone(grown.Seqs)
	folded.Appended = make([]int64, grown.Fresh)
	old := slices.Clone(grown.Seqs[grown.Fresh:])
	for i := range folded.Appended {
		folded.Appended[i] = folded.Seqs[i].Weight
		if i%2 == 0 {
			folded.Seqs[i].Weight++
			old = append(old, miner.WSeq{Items: folded.Seqs[i].Items, Weight: 1})
		}
	}
	return &folded, old
}

// knownOf restates mined patterns as a Known.
func knownOf(pats []miner.WSeq) *miner.Known {
	k := new(miner.Known)
	k.Reset(len(pats), 0)
	for _, p := range pats {
		k.Add(p.Items, p.Weight)
	}
	return k
}

// mineOrdered runs a miner and returns its output in emission order.
func mineOrdered(m miner.Miner, p *miner.Partition, cfg miner.Config, sc *miner.Scratch) ([]miner.WSeq, miner.Stats) {
	var out []miner.WSeq
	stats := m.Mine(p, cfg, sc, func(pat []flist.Rank, sup int64) {
		out = append(out, miner.WSeq{Items: slices.Clone(pat), Weight: sup})
	})
	return out, stats
}

// TestGrownLeanRoot is FuzzGrownPartition's non-vacuity case. An append that
// repeats old sequences, at σ 1, reaches only patterns the old mine holds:
// the root is lean, and the mine with Known must read no old sequence. It
// must mine the same with the old sequences emptied — while the mine without
// Known, which reads them, must not, on some partition.
func TestGrownLeanRoot(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	sc := miner.NewScratch()
	reads := 0
	for trial := range 300 {
		p := diffPartition(r)
		cfg := diffConfig(r)
		cfg.Sigma, cfg.PivotOnly = 1, true
		k := 1 + r.Intn(len(p.Seqs))
		grown := &miner.Partition{Pivot: p.Pivot, Parent: p.Parent, Fresh: k}
		for range k {
			grown.Seqs = append(grown.Seqs, miner.WSeq{Items: p.Seqs[r.Intn(len(p.Seqs))].Items, Weight: 1 + int64(r.Intn(3))})
		}
		grown.Seqs = append(grown.Seqs, p.Seqs...)
		folded, oldSeqs := foldOldCopies(grown)
		prev, _ := collect(miner.New(miner.KindPSM), &miner.Partition{Pivot: p.Pivot, Parent: p.Parent, Seqs: oldSeqs}, cfg, sc)

		emptied := *folded
		emptied.Seqs = slices.Clone(folded.Seqs)
		for i := k; i < len(emptied.Seqs); i++ {
			emptied.Seqs[i].Items = nil
		}
		for _, kind := range []miner.Kind{miner.KindPSM, miner.KindPSMNoIndex} {
			want, wantStats := mineOrdered(miner.New(kind), folded, cfg, sc)
			if without, _ := mineOrdered(miner.New(kind), &emptied, cfg, sc); !equalWSeqs(without, want) {
				reads++
			}
			lean := emptied
			lean.Known = knownOf(prev)
			got, gotStats := mineOrdered(miner.New(kind), &lean, cfg, sc)
			if gotStats != wantStats || !equalWSeqs(got, want) {
				t.Fatalf("trial %d %s: old sequences emptied, mined %v %+v; want %v %+v", trial, kind, got, gotStats, want, wantStats)
			}
		}
	}
	if reads == 0 {
		t.Fatal("no trial's old sequences changed the mine without Known")
	}
}

// asPatterns restates rank-space sequences as patterns, rank r as item r.
func asPatterns(ws []miner.WSeq) []gsm.Pattern {
	out := make([]gsm.Pattern, len(ws))
	for i, w := range ws {
		items := make(gsm.Sequence, len(w.Items))
		for j, r := range w.Items {
			items[j] = hierarchy.Item(r)
		}
		out[i] = gsm.Pattern{Items: items, Support: w.Weight}
	}
	return out
}
