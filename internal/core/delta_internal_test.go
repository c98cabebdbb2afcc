package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"lash/internal/datagen"
	"lash/internal/flist"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
	"lash/internal/mapreduce"
	"lash/internal/miner"
	"lash/internal/rewrite"
)

// TestDeltaMapSkip holds the map's whole-sequence skip (deltaPlan.skipsSeq)
// to what it stands for: an old sequence is loaded only if one of its
// pivots, as the rewriter enumerates them, takes old sequences — a re-mined
// pivot, or a grown one whose previous record kept no input. A topical append
// (new vocabulary only) leaves every old pivot reused, so every old sequence
// is skipped. Three resampled appends — the first resumed from the cold
// state, which keeps no input, the others from delta states, which keep the
// inputs of what they mined — skip exactly the old sequences all of whose
// pivots are reused or grown from a kept input.
func TestDeltaMapSkip(t *testing.T) {
	ctx := context.Background()
	db, err := datagen.GenerateText(datagen.TextConfig{Sentences: 600, Lemmas: 150, Seed: 5}).Build(datagen.HierarchyCLP)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Params: gsm.Params{Sigma: 8, Gamma: 1, Lambda: 4}, MR: mapreduce.Config{Workers: 2}}
	cold, err := Mine(ctx, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	planOf := func(db *gsm.Database, prev *DeltaState) (*deltaPlan, *flist.FList) {
		t.Helper()
		freq, err := deltaFrequencies(db, prev)
		if err != nil {
			t.Fatal(err)
		}
		fl, err := flist.Build(db.Forest, freq, opt.Params.Sigma, prev.Order...)
		if err != nil {
			t.Fatal(err)
		}
		o := opt
		o.Prev = prev
		return planDelta(db, fl, o), fl
	}

	topical := appendTopical(t, db, 50)
	plan, _ := planOf(topical, cold.Delta)
	for i, seq := range topical.Seqs[:len(db.Seqs)] {
		if !plan.skipsSeq(i, seq) {
			t.Fatalf("topical append: old sequence %d is loaded", i)
		}
	}

	rng := rand.New(rand.NewSource(5))
	prev, cur := cold.Delta, db
	skipped, loaded, unkept, kept := 0, 0, false, false
	for step := range 3 {
		seqs := append([]gsm.Sequence(nil), cur.Seqs...)
		for range 10 {
			seqs = append(seqs, cur.Seqs[rng.Intn(len(db.Seqs))])
		}
		cur = &gsm.Database{Seqs: seqs, Forest: cur.Forest}
		plan, fl := planOf(cur, prev)
		rw := rewrite.NewRewriter(fl, opt.Params.Gamma, opt.Params.Lambda)
		for i, seq := range cur.Seqs[:prev.NumSeqs] {
			want := true
			rw.Load(seq)
			for pivot, ok := rw.Next(); ok; pivot, ok = rw.Next() {
				grown := plan.fresh[pivot] != nil
				if !plan.reuse[pivot] && !grown || grown && !plan.kept[pivot] {
					want = false
				}
				unkept = unkept || grown && !plan.kept[pivot]
				kept = kept || plan.kept[pivot]
			}
			if got := plan.skipsSeq(i, seq); got != want {
				t.Fatalf("append %d: old sequence %d skipped %v, want %v", step+1, i, got, want)
			}
			if want {
				skipped++
			} else {
				loaded++
			}
		}
		o := opt
		o.Prev = prev
		res, err := Mine(ctx, cur, o)
		if err != nil {
			t.Fatal(err)
		}
		prev = res.Delta
	}
	if skipped == 0 || loaded == 0 || !unkept || !kept {
		t.Fatalf("vacuous: %d old sequences skipped, %d loaded; grown pivots without (%v) and with (%v) a kept input",
			skipped, loaded, unkept, kept)
	}
	t.Logf("%d old sequences skipped, %d loaded", skipped, loaded)
}

// appendTopical returns db with n sequences appended over ten items no
// version of it has seen.
func appendTopical(t *testing.T, db *gsm.Database, n int) *gsm.Database {
	t.Helper()
	f := db.Forest
	b := hierarchy.NewBuilder()
	for w := range f.Size() {
		b.Add(f.Name(hierarchy.Item(w)))
	}
	for w := range f.Size() {
		if p := f.Parent(hierarchy.Item(w)); p != hierarchy.NoItem {
			b.AddEdge(f.Name(hierarchy.Item(w)), f.Name(p))
		}
	}
	name := func(j int) string { return fmt.Sprintf("topic_%d", j%10) }
	for j := range 10 {
		b.Add(name(j))
	}
	forest, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	item := func(j int) hierarchy.Item {
		w, _ := forest.Lookup(name(j))
		return w
	}
	seqs := append([]gsm.Sequence(nil), db.Seqs...)
	for i := range n {
		seqs = append(seqs, gsm.Sequence{item(i), item(i + 1), item(i + 3), item(i + 7)})
	}
	return &gsm.Database{Seqs: seqs, Forest: forest}
}

// TestDeltaFlipRescue holds a delta run to the order it resumes. Over y (in
// every sequence) and three items of one order — t1 and t2 in five
// sequences each, x in four, three of them with t1 — an append of three x·y
// and one y·t2 would lift x over t1 and t2 (and t2 over t1) in frequency
// order, and t1·x, which x owns, to t1. The lineage keeps its order instead:
// the ranks of t1, t2 and x must not move, no pivot may be re-mined, and the
// patterns must equal the cold mine's.
func TestDeltaFlipRescue(t *testing.T) {
	ctx := context.Background()
	b := hierarchy.NewBuilder()
	y, t1, t2, x := b.Add("y"), b.Add("t1"), b.Add("t2"), b.Add("x")
	forest, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var seqs []gsm.Sequence
	for i := range 5 {
		if i < 3 {
			seqs = append(seqs, gsm.Sequence{y, t1, x})
		} else {
			seqs = append(seqs, gsm.Sequence{y, t1})
		}
		seqs = append(seqs, gsm.Sequence{y, t2})
	}
	seqs = append(seqs, gsm.Sequence{x, y})
	db := &gsm.Database{Seqs: seqs, Forest: forest}
	opt := Options{Params: gsm.Params{Sigma: 3, Gamma: 1, Lambda: 3}, MR: mapreduce.Config{Workers: 1}}
	prev, err := Mine(ctx, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	grown := &gsm.Database{Seqs: append(slices.Clone(seqs), gsm.Sequence{x, y}, gsm.Sequence{x, y}, gsm.Sequence{x, y}, gsm.Sequence{y, t2}), Forest: forest}
	o := opt
	o.Prev = prev.Delta
	delta, err := Mine(ctx, grown, o)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Mine(ctx, grown, opt)
	if err != nil {
		t.Fatal(err)
	}
	old, fl := prev.FList, delta.FList
	if c := cold.FList; !(c.RankOf(x) < c.RankOf(t2) && c.RankOf(t2) < c.RankOf(t1)) {
		t.Fatal("the append does not reverse t1, t2 and x in frequency order")
	}
	for _, w := range []hierarchy.Item{t1, t2, x} {
		if fl.RankOf(w) != old.RankOf(w) {
			t.Fatalf("%s moved from rank %d to %d", forest.Name(w), old.RankOf(w), fl.RankOf(w))
		}
	}
	if delta.Rebased || delta.DeltaDirty != delta.DeltaGrown || delta.DeltaGrown == 0 {
		t.Fatalf("resume rebased %v, mined %d partitions, grew %d: want none re-mined", delta.Rebased, delta.DeltaDirty, delta.DeltaGrown)
	}
	if !gsm.EqualPatterns(delta.Patterns, cold.Patterns) {
		t.Fatalf("resume differs from the cold mine:\n%s", gsm.DiffPatterns(forest, delta.Patterns, cold.Patterns))
	}
	if !gsm.EqualPatterns(delta.FrequentItems, cold.FrequentItems) {
		t.Fatalf("frequent items %v, cold mine %v", delta.FrequentItems, cold.FrequentItems)
	}
}

// TestDeltaLeanFold holds the record a lean root writes (foldKept, which
// folds the fresh sequences into the kept input on its encoded bytes) to the
// one growKept writes by decoding it: DFS never has a lean root, so a chain
// of resampled appends resumed under PSM and under DFS must keep
// byte-identical inputs and equal sequence counts in every record, and
// count the partition sequences a cold mine under the lineage's order
// counts.
func TestDeltaLeanFold(t *testing.T) {
	ctx := context.Background()
	db, err := datagen.GenerateText(datagen.TextConfig{Sentences: 600, Lemmas: 150, Seed: 9}).Build(datagen.HierarchyCLP)
	if err != nil {
		t.Fatal(err)
	}
	psm := Options{Params: gsm.Params{Sigma: 8, Gamma: 1, Lambda: 4}, MR: mapreduce.Config{Workers: 2}}
	dfs := psm
	dfs.Miner = miner.KindDFS
	var prev [2]*DeltaState
	for i, o := range []Options{psm, dfs} {
		res, err := Mine(ctx, db, o)
		if err != nil {
			t.Fatal(err)
		}
		prev[i] = res.Delta
	}
	rng := rand.New(rand.NewSource(9))
	lean := 0
	for step := range 3 {
		seqs := slices.Clone(db.Seqs)
		for range 10 {
			seqs = append(seqs, db.Seqs[rng.Intn(len(db.Seqs))])
		}
		db = &gsm.Database{Seqs: seqs, Forest: db.Forest}
		cold, err := MineUnder(ctx, db, psm, prev[0].Order)
		if err != nil {
			t.Fatal(err)
		}
		var res [2]*Result
		for i, o := range []Options{psm, dfs} {
			o.Prev = prev[i]
			if res[i], err = Mine(ctx, db, o); err != nil {
				t.Fatal(err)
			}
			prev[i] = res[i].Delta
		}
		if res[0].PartitionSeqs != cold.PartitionSeqs || res[0].NumPartitions != cold.NumPartitions {
			t.Fatalf("append %d: %d partitions, %d partition sequences; cold %d, %d",
				step+1, res[0].NumPartitions, res[0].PartitionSeqs, cold.NumPartitions, cold.PartitionSeqs)
		}
		for j, p := range prev[0].Parts {
			if d := prev[1].Parts[j]; p.Pivot != d.Pivot || p.Seqs != d.Seqs || !bytes.Equal(p.Input, d.Input) {
				t.Fatalf("append %d: partition %d keeps %d sequences in %d bytes under PSM, %d in %d under DFS",
					step+1, p.Pivot, p.Seqs, len(p.Input), d.Seqs, len(d.Input))
			}
		}
		if step > 0 {
			lean += res[0].DeltaLean
		}
	}
	if lean == 0 {
		t.Fatal("vacuous: no resume from kept inputs had a lean root")
	}
}

// TestDeltaExploredUnderOrder holds a resume's Explored to a from-scratch
// mine under the order the resume kept (mine): at most that count, and equal
// to it while no run of the chain grew a partition (never under BFS). Each
// corpus takes two chained appends — a hundredth of its own sequences plus
// a topical fragment over new items, then five of its own sequences — under
// LASH, flat LASH and MG-FSM. The patterns must equal a frequency-ordered
// cold mine's too.
func TestDeltaExploredUnderOrder(t *testing.T) {
	ctx := context.Background()
	modes := []struct {
		name string
		opt  Options
	}{
		{"LASH", Options{}},
		{"LASH-flat", Options{Flat: true}},
		{"MG-FSM", Options{Flat: true, Miner: miner.KindBFS}},
	}
	for _, seed := range []int64{1, 7} {
		text, err := datagen.GenerateText(datagen.TextConfig{Sentences: 400, Lemmas: 120, Seed: seed}).Build(datagen.HierarchyCLP)
		if err != nil {
			t.Fatal(err)
		}
		market, err := datagen.GenerateMarket(datagen.MarketConfig{Users: 250, Products: 300, Seed: seed}).Build(datagen.MaxLevels)
		if err != nil {
			t.Fatal(err)
		}
		for name, base := range map[string]*gsm.Database{"text": text, "market": market} {
			for _, m := range modes {
				t.Run(fmt.Sprintf("seed%d/%s/%s", seed, name, m.name), func(t *testing.T) {
					opt := m.opt
					opt.Params, opt.MR = gsm.Params{Sigma: 12, Gamma: 1, Lambda: 4}, mapreduce.Config{Workers: 2}
					res, err := Mine(ctx, base, opt)
					if err != nil {
						t.Fatal(err)
					}
					db, grown := base, 0
					for step, n := range []int{len(base.Seqs)/100 + 2, 5} {
						seqs := slices.Clone(db.Seqs)
						for i := range n {
							seqs = append(seqs, db.Seqs[(3+8*step+i)%len(base.Seqs)])
						}
						db = &gsm.Database{Seqs: seqs, Forest: db.Forest}
						if step == 0 {
							db = appendTopical(t, db, 20)
						}
						o := opt
						o.Prev = res.Delta
						if res, err = Mine(ctx, db, o); err != nil {
							t.Fatal(err)
						}
						grown += res.DeltaGrown
						cold, err := Mine(ctx, db, opt)
						if err != nil {
							t.Fatal(err)
						}
						ordered, err := MineUnder(ctx, db, opt, res.Delta.Order)
						if err != nil {
							t.Fatal(err)
						}
						if !gsm.EqualPatterns(res.Patterns, cold.Patterns) || !gsm.EqualPatterns(res.FrequentItems, cold.FrequentItems) {
							t.Fatalf("append %d: resume differs from the cold mine:\n%s", step+1, gsm.DiffPatterns(db.Forest, res.Patterns, cold.Patterns))
						}
						got, want := res.Miner.Explored, ordered.Miner.Explored
						if got > want || grown == 0 && got != want {
							t.Fatalf("append %d: explored %d after growing %d partitions; under the kept order from scratch, %d", step+1, got, grown, want)
						}
						if res.NumPartitions != ordered.NumPartitions || res.PartitionSeqs != ordered.PartitionSeqs {
							t.Fatalf("append %d: %d partitions, %d partition sequences; under the kept order from scratch, %d and %d",
								step+1, res.NumPartitions, res.PartitionSeqs, ordered.NumPartitions, ordered.PartitionSeqs)
						}
					}
					if grows := opt.Miner != miner.KindBFS; grows != (grown > 0) {
						t.Fatalf("%s grew %d partitions", m.name, grown)
					}
				})
			}
		}
	}
}

// TestDeltaStateAudit recounts a lineage's state by brute force at every
// cycle of its resampled appends, each resumed under PSM from the state
// before: 40 cycles over a corpus and appends drawn from seed 13 in plain
// `go test`, 100 from LASH_CHAOS_SEED when that is set (make chaos). For every partition record the cycle mined (at the last cycle,
// for every record) it counts, over the
// corpus sequences whose generalizations hold the pivot, the support of
// each of its patterns (which must be exact), of each border entry (whose
// bound must be at least that), and of each one-item extension, left or
// right, of a crossed pattern by an item the pivot sees. An extension the
// record neither holds nor bounds was never counted since the pattern
// crossed: its support must be within the larger of the floor below the
// border and the bounds of its two one-item reductions, crossed or border
// entries (miner.Known.AddCrossed, and the suffix bounds of miner's
// oldBound). A bound too low drops a pattern silently; the miner notices
// only when a full scan meets it.
func TestDeltaStateAudit(t *testing.T) {
	cycles, seed := 40, int64(13)
	if env := os.Getenv("LASH_CHAOS_SEED"); env != "" {
		n, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("LASH_CHAOS_SEED=%q: %v", env, err)
		}
		cycles, seed = 100, n
	}
	t.Logf("%d cycles from seed %d", cycles, seed)
	ctx := context.Background()
	db, err := datagen.GenerateText(datagen.TextConfig{Sentences: 200, Lemmas: 80, Seed: seed}).Build(datagen.HierarchyCLP)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Params: gsm.Params{Sigma: 6, Gamma: 1, Lambda: 3}, MR: mapreduce.Config{Workers: 2}}
	res, err := Mine(ctx, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var a stateAudit
	lean := 0
	for c := 1; c <= cycles; c++ {
		seqs := slices.Clone(db.Seqs)
		for range 1 + rng.Intn(8) {
			seqs = append(seqs, db.Seqs[rng.Intn(len(db.Seqs))])
		}
		db = &gsm.Database{Seqs: seqs, Forest: db.Forest}
		o := opt
		o.Prev = res.Delta
		if res, err = Mine(ctx, db, o); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if res.Rebased {
			t.Fatalf("cycle %d rebased: the audit follows one order", c)
		}
		lean += res.DeltaLean
		from := o.Prev
		if c == cycles {
			from = nil
		}
		if err := a.check(db, opt.Params, from, res.Delta); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
	}
	if lean == 0 || a.loose == 0 || a.crossed == 0 || a.extensions == 0 {
		t.Fatalf("vacuous: %d lean roots, %d border bounds above the support, %d crossed patterns, %d extensions", lean, a.loose, a.crossed, a.extensions)
	}
	t.Logf("%d lean roots; %d records, %d border entries (%d bounds above the support), %d crossed patterns (%d extensions bounded)",
		lean, a.records, a.border, a.loose, a.crossed, a.extensions)
}

// stateAudit is TestDeltaStateAudit's brute-force count, kept across the
// cycles of one lineage: which sequences hold each pivot among their
// generalizations, which items those hold, and each pattern's support over
// the first sequences of its pivot's. Old sequences never change, so a count
// only ever adds the appended ones. It also counts what it checked.
type stateAudit struct {
	seqs   int // sequences indexed
	of     map[hierarchy.Item][]gsm.Sequence
	near   map[hierarchy.Item]map[hierarchy.Item]bool
	counts map[hierarchy.Item]map[string]count

	records, border, loose, crossed, extensions int
}

// count is a pattern's support over the first upto sequences of its pivot's.
type count struct {
	n    int64
	upto int
}

// index adds db's sequences appended since the last call.
func (a *stateAudit) index(db *gsm.Database) {
	if a.of == nil {
		a.of, a.near, a.counts = map[hierarchy.Item][]gsm.Sequence{}, map[hierarchy.Item]map[hierarchy.Item]bool{}, map[hierarchy.Item]map[string]count{}
	}
	for _, t := range db.Seqs[a.seqs:] {
		g := gsm.AppendItemGeneralizations(nil, db.Forest, t)
		for _, w := range g {
			a.of[w] = append(a.of[w], t)
			if a.near[w] == nil {
				a.near[w], a.counts[w] = map[hierarchy.Item]bool{}, map[string]count{}
			}
			for _, v := range g {
				a.near[w][v] = true
			}
		}
	}
	a.seqs = len(db.Seqs)
}

// support returns the support of s, a pattern of pivot's partition, over
// the sequences index saw.
func (a *stateAudit) support(db *gsm.Database, gamma int, pivot hierarchy.Item, s gsm.Sequence) int64 {
	seqs, c := a.of[pivot], a.counts[pivot][gsm.Key(s)]
	for _, t := range seqs[c.upto:] {
		if gsm.IsGenSubseq(db.Forest, s, t, gamma) {
			c.n++
		}
	}
	c.upto = len(seqs)
	a.counts[pivot][gsm.Key(s)] = c
	return c.n
}

// check recounts every record of st over db that st did not take from prev,
// every record if prev is nil (see TestDeltaStateAudit).
func (a *stateAudit) check(db *gsm.Database, p gsm.Params, prev, st *DeltaState) error {
	f := db.Forest
	floor := max(p.Sigma-(p.Sigma+3)/4-1, 0)
	rank := make(map[hierarchy.Item]int, len(st.Order))
	for r, w := range st.Order {
		rank[w] = r
	}
	a.index(db)
	for _, part := range st.Parts {
		if prev != nil && sameRecord(prev.part(part.Pivot), &part) {
			continue // reused
		}
		a.records++
		support := func(s gsm.Sequence) int64 { return a.support(db, p.Gamma, part.Pivot, s) }
		// bound, by key: -1 for a pattern, else a border or crossed bound.
		bound := map[string]int64{}
		for _, q := range part.Patterns {
			bound[gsm.Key(q.Items)] = -1
			if n := support(q.Items); n != q.Support {
				return fmt.Errorf("partition %s: pattern %s has support %d, the record says %d",
					f.Name(part.Pivot), gsm.String(f, q.Items), n, q.Support)
			}
		}
		for _, q := range part.Border {
			bound[gsm.Key(q.Items)] = q.Support
			a.border++
			n := support(q.Items)
			if n > q.Support {
				return fmt.Errorf("partition %s: border entry %s has support %d above its bound %d",
					f.Name(part.Pivot), gsm.String(f, q.Items), n, q.Support)
			}
			if n < q.Support {
				a.loose++
			}
		}
		for _, q := range part.Crossed {
			if bound[gsm.Key(q.Items)] != -1 {
				return fmt.Errorf("partition %s: crossed pattern %s is not among its patterns", f.Name(part.Pivot), gsm.String(f, q.Items))
			}
			bound[gsm.Key(q.Items)] = q.Support
		}
		// uncounted bounds a pattern the record neither holds nor bounds:
		// the floor, or a reduction's bound, a reduction it does not hold
		// bounded the same way (support falls as a pattern grows).
		var uncounted func(e gsm.Sequence) int64
		uncounted = func(e gsm.Sequence) int64 {
			b := floor
			for _, r := range []gsm.Sequence{e[1:], e[:len(e)-1]} {
				if v, held := bound[gsm.Key(r)]; held {
					b = max(b, v)
				} else if slices.Contains(r, part.Pivot) && len(r) > 1 {
					b = max(b, uncounted(r))
				}
			}
			return b
		}
		for _, q := range part.Crossed {
			a.crossed++
			for _, w := range st.Order[:rank[part.Pivot]+1] {
				if !a.near[part.Pivot][w] {
					continue // no sequence of the pivot's holds w
				}
				for _, e := range []gsm.Sequence{append(gsm.Sequence{w}, q.Items...), append(slices.Clone(q.Items), w)} {
					if _, held := bound[gsm.Key(e)]; held {
						continue
					}
					a.extensions++
					if n, b := support(e), uncounted(e); n > b {
						return fmt.Errorf("partition %s: %s extends crossed %s and has support %d above its bound %d",
							f.Name(part.Pivot), gsm.String(f, e), gsm.String(f, q.Items), n, b)
					}
				}
			}
		}
	}
	return nil
}

// sameRecord reports whether b is a copy of a, sharing all its slices.
func sameRecord(a, b *DeltaPart) bool {
	return a != nil && a.Seqs == b.Seqs && unsafe.SliceData(a.Patterns) == unsafe.SliceData(b.Patterns) &&
		unsafe.SliceData(a.Border) == unsafe.SliceData(b.Border) && unsafe.SliceData(a.Crossed) == unsafe.SliceData(b.Crossed)
}
