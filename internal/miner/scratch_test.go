package miner

import (
	"math"
	"testing"
)

// A pooled Scratch lives as long as its server: the count table's 32-bit
// epoch wraps after 2³² last-level nodes, and a row last written at the
// epoch it wraps onto must not read as current.
func TestCountTableEpochWrap(t *testing.T) {
	var ct countTable
	ct.begin(4) // epoch 1
	ct.add(2, 7, 5)
	ct.finish()

	ct.epoch = math.MaxUint32
	ct.begin(4) // wraps
	if ct.epoch == 0 {
		t.Fatal("epoch 0 after the wrap: every never-written row would read as current")
	}
	ct.add(2, 7, 3) // the same rank and tid as the stale row
	ct.add(3, 7, 1)
	if got := ct.finish(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("touched %v after the wrap, want [2 3]", got)
	}
	if got := ct.rows[2].support; got != 3 {
		t.Fatalf("support %d after the wrap, want 3: the stale row was counted into", got)
	}
}
