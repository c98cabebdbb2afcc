package lash_test

import (
	"testing"
	"time"

	"lash"
)

// TestTraceCoverage: the direct children of a run's root "mine" span — its
// MapReduce jobs and "assemble", the work after them — cover at least 95%
// of it, so no stretch of a mine goes untimed. Before "assemble" was
// traced, the canonical merge and the naming of a 0.9 s text mine were a
// 34–41 ms hole between the last job and the root's end.
func TestTraceCoverage(t *testing.T) {
	db, err := lash.GenerateTextDatabase(lash.TextConfig{Sentences: 6000, Lemmas: 2000, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	tr := lash.NewTrace()
	if _, err := lash.Mine(db, lash.Options{MinSupport: 12, MaxGap: 1, MaxLength: 4, Workers: 2, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	root := -1
	for i, sp := range spans {
		if sp.Name == "mine" && sp.Parent == 0 {
			root = i
		}
	}
	if root < 0 {
		t.Fatal("the trace holds no root mine span")
	}
	var covered time.Duration
	children := 0
	for _, sp := range spans {
		if sp.Parent == spans[root].ID {
			covered += sp.Duration
			children++
		}
	}
	mine := spans[root].Duration
	t.Logf("%d children cover %v of the %v mine (%.1f%%)", children, covered, mine, 100*float64(covered)/float64(mine))
	if float64(covered) < 0.95*float64(mine) {
		t.Errorf("the mine span's %d children cover %v of its %v, want at least 95%%", children, covered, mine)
	}
}
