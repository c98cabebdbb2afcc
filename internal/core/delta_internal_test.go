package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"lash/internal/datagen"
	"lash/internal/flist"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
	"lash/internal/mapreduce"
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
