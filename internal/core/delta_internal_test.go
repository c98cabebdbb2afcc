package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

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
		fl, err := flist.Build(db.Forest, freq, opt.Params.Sigma)
		if err != nil {
			t.Fatal(err)
		}
		o := opt
		o.Prev = prev
		plan, err := planDelta(db, fl, o)
		if err != nil {
			t.Fatal(err)
		}
		return plan, fl
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

// TestDeltaFlipRescue holds planDelta's rescue of moved pivots to its rule.
// Over y (in every sequence) and three items of one order — t1 and t2 in
// five sequences each, x in four, three of them with t1 — an append of
// three x·y and one y·t2 lifts x over t1 and t2 (and t2 over t1). Every one
// of them moved, but t2 shares no old sequence with an item whose order
// relative to it flipped: it must be grown, from the state, and match the
// cold mine. t1 and x share three: both must be re-mined, or the pattern
// t1·x, which x owned before and t1 owns now, would be lost.
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

	freq, err := deltaFrequencies(grown, prev.Delta)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := flist.Build(forest, freq, opt.Params.Sigma)
	if err != nil {
		t.Fatal(err)
	}
	if old := prev.FList; !(old.RankOf(t1) < old.RankOf(t2) && old.RankOf(t2) < old.RankOf(x) &&
		fl.RankOf(x) < fl.RankOf(t2) && fl.RankOf(t2) < fl.RankOf(t1)) {
		t.Fatal("x did not jump over t2 and t1")
	}
	o := opt
	o.Prev = prev.Delta
	plan, err := planDelta(grown, fl, o)
	if err != nil {
		t.Fatal(err)
	}
	if plan.fresh[fl.RankOf(t2)] == nil {
		t.Fatal("t2 shares no old sequence with x or t1, yet is not grown")
	}
	for _, w := range []hierarchy.Item{t1, x} {
		if r := fl.RankOf(w); plan.reuse[r] || plan.fresh[r] != nil {
			t.Fatalf("%s shares old sequences with an item it flipped with, yet is not re-mined", forest.Name(w))
		}
	}

	delta, err := Mine(ctx, grown, o)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Mine(ctx, grown, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !gsm.EqualPatterns(delta.Patterns, cold.Patterns) {
		t.Fatalf("resume differs from the cold mine:\n%s", gsm.DiffPatterns(forest, delta.Patterns, cold.Patterns))
	}
	if delta.NumPartitions != cold.NumPartitions || delta.PartitionSeqs != cold.PartitionSeqs || delta.Miner.Explored > cold.Miner.Explored {
		t.Fatalf("resume: %d partitions, %d partition sequences, explored %d; cold %d, %d, %d",
			delta.NumPartitions, delta.PartitionSeqs, delta.Miner.Explored, cold.NumPartitions, cold.PartitionSeqs, cold.Miner.Explored)
	}
}

// TestDeltaLeanFold holds the record a lean root writes (foldKept, which
// folds the fresh sequences into the kept input on its encoded bytes) to the
// one growKept writes by decoding it: DFS never has a lean root, so a chain
// of resampled appends resumed under PSM and under DFS must keep
// byte-identical inputs and equal sequence counts in every record, and
// count the partition sequences a cold mine counts.
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
		cold, err := Mine(ctx, db, psm)
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
