package lash_test

import (
	"fmt"
	"testing"

	"lash"
)

// TestSpillDifferential: a memory budget forced far below the shuffle's
// table size must leave the mined output byte-identical — same patterns,
// same supports, same order, same frequent items and partition counters —
// across randomized databases and every algorithm, while actually spilling
// (asserted via the spill counters). This is the end-to-end guarantee the
// external-memory mode rests on.
func TestSpillDifferential(t *testing.T) {
	algorithms := []lash.Algorithm{
		lash.AlgorithmLASH,
		lash.AlgorithmLASHFlat,
		lash.AlgorithmMGFSM,
		lash.AlgorithmNaive,
		lash.AlgorithmSemiNaive,
	}
	for seed := int64(1); seed <= 3; seed++ {
		db := genDB(t, 400, seed)
		for _, alg := range algorithms {
			t.Run(fmt.Sprintf("seed%d/%s", seed, alg), func(t *testing.T) {
				opt := lash.Options{MinSupport: 8, MaxGap: 1, MaxLength: 3, Algorithm: alg}
				want, err := lash.Mine(db, opt)
				if err != nil {
					t.Fatal(err)
				}
				if want.Stats.SpillRuns != 0 || want.Stats.SpillBytes != 0 {
					t.Fatalf("in-memory run reported spills: %+v", want.Stats)
				}

				budgeted := opt
				budgeted.MemoryBudget = 4 << 10 // far below the shuffle's table size
				got, err := lash.Mine(db, budgeted)
				if err != nil {
					t.Fatal(err)
				}
				if got.Stats.SpillRuns == 0 || got.Stats.SpillBytes == 0 {
					t.Fatalf("budgeted run did not spill (runs=%d bytes=%d)",
						got.Stats.SpillRuns, got.Stats.SpillBytes)
				}

				assertSamePatterns(t, "Patterns", got.Patterns, want.Patterns)
				assertSamePatterns(t, "FrequentItems", got.FrequentItems, want.FrequentItems)
				if got.NumPartitions != want.NumPartitions {
					t.Errorf("NumPartitions = %d, want %d", got.NumPartitions, want.NumPartitions)
				}
				if got.Explored != want.Explored {
					t.Errorf("Explored = %d, want %d", got.Explored, want.Explored)
				}
			})
		}
	}
}

func assertSamePatterns(t *testing.T, what string, got, want []lash.Pattern) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Support != want[i].Support || len(got[i].Items) != len(want[i].Items) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
		for j := range want[i].Items {
			if got[i].Items[j] != want[i].Items[j] {
				t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
}
