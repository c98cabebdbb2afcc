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
//
// Then, for both PSMs, a chain with borders: the old part is mined cold with
// its border recorded (Partition.Border), the partition grows by a second
// slice of the appended sequences and is mined with that border, then by the
// rest and mined with the border the first grown mine recorded. Each grown
// mine must match the grown mine without Known: same order, supports and
// Stats.
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

		// The chain: Seqs[mid:] old, Seqs[:mid] appended in two steps.
		mid := grown.Fresh
		if mid < 2 {
			return
		}
		first := 1 + int(data[2]>>2)%(mid-1) // γ reads data[2] mod 3
		for _, kind := range []miner.Kind{miner.KindPSM, miner.KindPSMNoIndex} {
			m := miner.New(kind)
			cold := &miner.Partition{Pivot: p.Pivot, Parent: p.Parent, Seqs: p.Seqs[mid:]}
			pats, _, border, crossed := borderMine(m, cold, cfg, sc)
			for step, fresh := range []int{mid - first, first} {
				seqs := p.Seqs[mid-fresh:]
				if step == 1 {
					seqs = p.Seqs
				}
				part := &miner.Partition{Pivot: p.Pivot, Parent: p.Parent, Seqs: seqs, Fresh: fresh, Appended: weightsOf(seqs[:fresh])}
				want, wantStats := mineOrdered(m, part, cfg, sc)
				part.Known = knownFrom(pats, border, crossed)
				got, gotStats, nextBorder, newCrossed := borderMine(m, part, cfg, sc)
				if gotStats != wantStats || !equalWSeqs(got, want) {
					t.Fatalf("%s %s: grown mine %d with the border %v (crossed %v) of %v mined %v %+v, without %v %+v",
						label, kind, step+1, border, crossed, pats, got, gotStats, want, wantStats)
				}
				pats, border, crossed = mergeWSeqs(got, pats), nextBorder, append(crossed, newCrossed...)
			}
		}
	})
}

// borderMine runs a miner with p's border recorded and returns its output in
// emission order, its Stats, the border and the crossed patterns it
// reported.
func borderMine(m miner.Miner, p *miner.Partition, cfg miner.Config, sc *miner.Scratch) (out []miner.WSeq, st miner.Stats, border, crossed []miner.WSeq) {
	p.Border = func(pat []flist.Rank, bound int64, isCrossed bool) {
		e := miner.WSeq{Items: slices.Clone(pat), Weight: bound}
		if isCrossed {
			crossed = append(crossed, e)
		} else {
			border = append(border, e)
		}
	}
	defer func() { p.Border = nil }()
	out, st = mineOrdered(m, p, cfg, sc)
	return out, st, border, crossed
}

// knownFrom restates a mine's patterns, border and crossed patterns as a
// bordered Known.
func knownFrom(pats, border, crossed []miner.WSeq) *miner.Known {
	k := knownOf(pats)
	k.SetBordered()
	for _, b := range border {
		k.AddBorder(b.Items, b.Weight)
	}
	for _, c := range crossed {
		if !k.AddCrossed(c.Items, c.Weight) {
			panic(fmt.Sprintf("crossed pattern %v is not among the patterns", c.Items))
		}
	}
	return k
}

// mergeWSeqs is gsm.MergeGrown in rank space: the grown mine's patterns, and
// the old ones it did not reach.
func mergeWSeqs(mined, old []miner.WSeq) []miner.WSeq {
	seen := map[string]bool{}
	out := slices.Clone(mined)
	for _, p := range mined {
		seen[fmt.Sprint(p.Items)] = true
	}
	for _, p := range old {
		if !seen[fmt.Sprint(p.Items)] {
			out = append(out, p)
		}
	}
	return out
}

// weightsOf returns the weights of seqs: the appended multiplicities of
// fresh entries that folded in no old copy.
func weightsOf(seqs []miner.WSeq) []int64 {
	w := make([]int64, len(seqs))
	for i, s := range seqs {
		w[i] = s.Weight
	}
	return w
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

// borderCase is the partition TestGrownBorderIndexPruned and
// TestGrownBorderCrossed grow: pivot p over items a and b, σ 8, γ 0, λ 3, so
// the border starts at 6 and a counted pattern below it has bound 5.
var (
	borderCfg                 = miner.Config{Sigma: 8, Gamma: 0, Lambda: 3, PivotOnly: true}
	borderA, borderB, borderP = flist.Rank(0), flist.Rank(1), flist.Rank(2)
	borderParent              = []flist.Rank{flist.NoRank, flist.NoRank, flist.NoRank}
	borderAPB                 = []flist.Rank{borderA, borderP, borderB}
	borderAP                  = []flist.Rank{borderA, borderP}
	borderPB                  = []flist.Rank{borderP, borderB}
)

// hasWSeq reports whether ws holds items with the given support.
func hasWSeq(ws []miner.WSeq, items []flist.Rank, support int64) bool {
	for _, w := range ws {
		if slices.Equal(w.Items, items) && w.Weight == support {
			return true
		}
	}
	return false
}

// TestGrownBorderIndexPruned grows a partition at a pattern the index
// pruned. Old: seven a·p·b and one a·p, so a·p is frequent (8), p·b is in the
// border (7), and under PSM+Index a·p·b was never counted — the root's index
// holds no b, since p·b was not frequent. An appended a·p·b lifts p·b and
// a·p·b to 8: the pre-pass must bound a·p·b by p·b's entry, not by 5, and
// mark a·p. Then a second partition whose append keeps p·b and a·p·b below
// σ: old five a·p·b and three a·p, one more a·p·b folded into the appended
// one (Weight 2, Appended 1), so p·b is in the border at 6 and reaches 7.
// Its root must be lean — bounded at the appended multiplicity, not the
// Weight — so the mine with Known must mine the same with the old sequences
// emptied.
func TestGrownBorderIndexPruned(t *testing.T) {
	sc := miner.NewScratch()
	for _, kind := range []miner.Kind{miner.KindPSM, miner.KindPSMNoIndex} {
		m := miner.New(kind)
		old := []miner.WSeq{{Items: borderAPB, Weight: 7}, {Items: borderAP, Weight: 1}}
		cold := &miner.Partition{Pivot: borderP, Parent: borderParent, Seqs: old}
		pats, _, border, _ := borderMine(m, cold, borderCfg, sc)
		if !hasWSeq(border, borderPB, 7) || kind == miner.KindPSM && len(border) != 1 {
			t.Fatalf("%s: cold border %v, want p·b at 7 (and, under the index, nothing else)", kind, border)
		}
		grown := &miner.Partition{Pivot: borderP, Parent: borderParent, Fresh: 1, Appended: []int64{1},
			Seqs: append([]miner.WSeq{{Items: borderAPB, Weight: 1}}, old...)}
		want, wantStats := mineOrdered(m, grown, borderCfg, sc)
		if !hasWSeq(want, borderAPB, 8) {
			t.Fatalf("%s: the append lifts no a·p·b: %v", kind, want)
		}
		grown.Known = knownFrom(pats, border, nil)
		if got, gotStats := mineOrdered(m, grown, borderCfg, sc); gotStats != wantStats || !equalWSeqs(got, want) {
			t.Fatalf("%s: with the border mined %v %+v, without %v %+v", kind, got, gotStats, want, wantStats)
		}

		old = []miner.WSeq{{Items: borderAPB, Weight: 5}, {Items: borderAP, Weight: 3}}
		pats, _, border, _ = borderMine(m, &miner.Partition{Pivot: borderP, Parent: borderParent,
			Seqs: append(slices.Clone(old), miner.WSeq{Items: borderAPB, Weight: 1})}, borderCfg, sc)
		grown = &miner.Partition{Pivot: borderP, Parent: borderParent, Fresh: 1, Appended: []int64{1},
			Seqs: append([]miner.WSeq{{Items: borderAPB, Weight: 2}}, old...)}
		want, wantStats = mineOrdered(m, grown, borderCfg, sc)
		emptied := *grown
		emptied.Seqs = slices.Clone(grown.Seqs)
		for i := 1; i < len(emptied.Seqs); i++ {
			emptied.Seqs[i].Items = nil
		}
		emptied.Known = knownFrom(pats, border, nil)
		if got, gotStats := mineOrdered(m, &emptied, borderCfg, sc); gotStats != wantStats || !equalWSeqs(got, want) {
			t.Fatalf("%s: old sequences emptied, with the border mined %v %+v; want %v %+v", kind, got, gotStats, want, wantStats)
		}
	}
}

// TestGrownBorderCrossed grows a partition twice. Old: seven a·p·b and one
// a·p, as in TestGrownBorderIndexPruned. The first append, p·b, lifts p·b
// over σ without reaching a·p·b; the second, a·p·b, reaches a·p·b (now 8),
// which the first grown mine never counted and PSM+Index's cold mine pruned.
// Its bound is p·b's from before it crossed (Known.AddCrossed), so the
// pre-pass must mark a·p.
func TestGrownBorderCrossed(t *testing.T) {
	sc := miner.NewScratch()
	for _, kind := range []miner.Kind{miner.KindPSM, miner.KindPSMNoIndex} {
		m := miner.New(kind)
		seqs := []miner.WSeq{{Items: borderAPB, Weight: 7}, {Items: borderAP, Weight: 1}}
		pats, _, border, crossed := borderMine(m, &miner.Partition{Pivot: borderP, Parent: borderParent, Seqs: seqs}, borderCfg, sc)
		for step, fresh := range [][]flist.Rank{borderPB, borderAPB} {
			seqs = append([]miner.WSeq{{Items: fresh, Weight: 1}}, seqs...)
			grown := &miner.Partition{Pivot: borderP, Parent: borderParent, Seqs: seqs, Fresh: 1, Appended: []int64{1}}
			want, wantStats := mineOrdered(m, grown, borderCfg, sc)
			grown.Known = knownFrom(pats, border, crossed)
			got, gotStats, nextBorder, newCrossed := borderMine(m, grown, borderCfg, sc)
			if gotStats != wantStats || !equalWSeqs(got, want) {
				t.Fatalf("%s: grown mine %d with the border %v (crossed %v) mined %v %+v, without %v %+v",
					kind, step+1, border, crossed, got, gotStats, want, wantStats)
			}
			if step == 0 && !hasWSeq(newCrossed, borderPB, 7) {
				t.Fatalf("%s: p·b crossed with %v", kind, newCrossed)
			}
			pats, border, crossed = mergeWSeqs(got, pats), nextBorder, append(crossed, newCrossed...)
		}
		if !hasWSeq(pats, borderAPB, 8) {
			t.Fatalf("%s: the second append lifts no a·p·b: %v", kind, pats)
		}
	}
}
