//go:build !race

package lash_test

import (
	"context"
	"testing"

	"lash"
	"lash/internal/core"
	"lash/internal/experiments"
	"lash/internal/gsm"
)

// TestAllocBudget holds allocations per mine under a committed ceiling for
// both backings of the shuffle — the BenchmarkFig4aLASH shape unbudgeted and
// the BenchmarkSpillBudgeted shape under its quarter-of-shuffle budget — and
// for the Fig4aLASH corpus mined through the public API, which adds the
// translation to item names. All at one worker so the count does not depend
// on the host. Allocation counts are deterministic to a few percent
// (sync.Pool contents vary with GC timing), so unlike wall time they can gate
// in CI. Each ceiling is the count measured when it was last set plus 10%;
// lower it when a change earns it, raise it only with the reason in
// CHANGES.md.
func TestAllocBudget(t *testing.T) {
	benchCorpora()
	coreMine := func(db *gsm.Database, params gsm.Params, budget int64) func(string) error {
		return func(spillDir string) error {
			mr := benchMR()
			mr.Workers, mr.MemoryBudget, mr.SpillDir = 1, budget, spillDir
			_, err := core.Mine(context.Background(), db, core.Options{Params: params, MR: mr})
			return err
		}
	}
	scale, p := experiments.Tiny, fig4Params()
	public, err := lash.GenerateTextDatabase(lash.TextConfig{Sentences: scale.NYTSentences, Lemmas: scale.NYTLemmas, Hierarchy: "P", Seed: scale.Seed})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mine    func(spillDir string) error
		ceiling float64 // measured + 10%
	}{
		{"Fig4aLASH", coreMine(nytP, p, 0), 5_890},                                // 5 357
		{"SpillBudgeted", coreMine(nytCLP, spillParams(), spillBudget()), 19_600}, // 17 824
		{"Fig4aLASHPublic", func(string) error {
			_, err := lash.Mine(public, lash.Options{MinSupport: p.Sigma, MaxGap: p.Gamma, MaxLength: p.Lambda, Workers: 1})
			return err
		}, 6_620}, // 6 026
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			allocs := testing.AllocsPerRun(3, func() {
				if err := c.mine(dir); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%.0f allocs/op (ceiling %.0f)", allocs, c.ceiling)
			if allocs > c.ceiling {
				t.Errorf("%.0f allocs/op, over the budget of %.0f", allocs, c.ceiling)
			}
		})
	}
}
