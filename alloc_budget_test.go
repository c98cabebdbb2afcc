//go:build !race

package lash_test

import (
	"context"
	"testing"

	"lash/internal/core"
	"lash/internal/gsm"
)

// TestAllocBudget holds allocations per mine under a committed ceiling for
// both backings of the shuffle: the BenchmarkFig4aLASH shape unbudgeted and
// the BenchmarkSpillBudgeted shape under its quarter-of-shuffle budget, at
// one worker so the count does not depend on the host. Allocation counts
// are deterministic to a few percent (sync.Pool contents vary with GC
// timing), so unlike wall time they can gate in CI. Each ceiling is the
// count measured when it was last set plus 10%; lower it when a change
// earns it, raise it only with the reason in CHANGES.md.
func TestAllocBudget(t *testing.T) {
	benchCorpora()
	cases := []struct {
		name    string
		db      *gsm.Database
		params  gsm.Params
		budget  int64
		ceiling float64 // measured + 10%
	}{
		{"Fig4aLASH", nytP, fig4Params(), 0, 32_450},                     // 29 500
		{"SpillBudgeted", nytCLP, spillParams(), spillBudget(), 110_150}, // 100 150
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mr := benchMR()
			mr.Workers, mr.MemoryBudget, mr.SpillDir = 1, c.budget, t.TempDir()
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := core.Mine(context.Background(), c.db, core.Options{Params: c.params, MR: mr}); err != nil {
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
