package baseline_test

import (
	"context"
	"testing"

	"lash/internal/baseline"
	"lash/internal/gsm"
	"lash/internal/mapreduce"
	"lash/internal/paperex"
)

var mr = mapreduce.Config{Workers: 2, MapTasks: 2, ReduceTasks: 2}

func TestNaiveEmitsDistinctSubsequences(t *testing.T) {
	// One sequence: the naïve algorithm must emit |G_λ(T)| records — the
	// distinct generalized subsequences (§3.2). For T4 = b11 a e a with
	// γ=1, λ=3 the paper lists exactly 19.
	db := paperex.Database()
	one := &gsm.Database{Forest: db.Forest, Seqs: db.Seqs[3:4]} // T4
	res, err := baseline.MineNaive(context.Background(), one, baseline.Options{
		Params: gsm.Params{Sigma: 1, Gamma: 1, Lambda: 3},
		MR:     mr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs.Mine.MapOutputRecords != 19 {
		t.Fatalf("naive emitted %d records for T4, want 19 (|G3(T4)|)", res.Jobs.Mine.MapOutputRecords)
	}
	if len(res.Patterns) != 19 { // σ=1: everything is frequent
		t.Fatalf("naive mined %d patterns, want 19", len(res.Patterns))
	}
}

func TestSemiNaiveGeneralizesInfrequentItems(t *testing.T) {
	// §3.3: for T4 = b11 a e a (σ=2) the semi-naïve algorithm rewrites to
	// b1 a _ a and emits exactly aa, b1a, b1aa, Ba, Baa — 5 records.
	db := paperex.Database()
	res, err := baseline.MineSemiNaive(context.Background(), db, baseline.Options{Params: paperex.Params(), MR: mr})
	if err != nil {
		t.Fatal(err)
	}
	// Whole-database record count is harder to pin; check T4 alone against
	// the paper's worked example. The f-list must come from the full DB, so
	// re-run with a one-sequence database is not equivalent; instead verify
	// the total is far below the naïve count and the output matches.
	nv, err := baseline.MineNaive(context.Background(), db, baseline.Options{Params: paperex.Params(), MR: mr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs.Mine.MapOutputRecords >= nv.Jobs.Mine.MapOutputRecords {
		t.Fatalf("semi-naive records %d not below naive %d",
			res.Jobs.Mine.MapOutputRecords, nv.Jobs.Mine.MapOutputRecords)
	}
	if !gsm.EqualPatterns(res.Patterns, nv.Patterns) {
		t.Fatal("baselines disagree")
	}
}

func TestBaselineValidation(t *testing.T) {
	db := paperex.Database()
	bad := baseline.Options{Params: gsm.Params{Sigma: 0, Gamma: 0, Lambda: 3}, MR: mr}
	if _, err := baseline.MineNaive(context.Background(), db, bad); err == nil {
		t.Error("naive accepted invalid params")
	}
	if _, err := baseline.MineSemiNaive(context.Background(), db, bad); err == nil {
		t.Error("semi-naive accepted invalid params")
	}
	empty := &gsm.Database{}
	good := baseline.Options{Params: paperex.Params(), MR: mr}
	if _, err := baseline.MineNaive(context.Background(), empty, good); err == nil {
		t.Error("naive accepted nil forest")
	}
	if _, err := baseline.MineSemiNaive(context.Background(), empty, good); err == nil {
		t.Error("semi-naive accepted nil forest")
	}
}
