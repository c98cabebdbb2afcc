package lash_test

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"lash"
)

// maxDrift is the drift past which a resume mines from scratch
// (MineState.Drift).
const maxDrift = 1.1

// resumeChecked resumes from prev's state and checks the drift bound: the
// run rebases exactly when that state's drift exceeds maxDrift, so no
// resume starts from a state that drifted further.
func resumeChecked(t *testing.T, db *lash.Database, opt lash.Options, prev *lash.Result) *lash.Result {
	t.Helper()
	opt.Resume = prev.State
	res, err := lash.Mine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := prev.State.Drift(); res.Stats.Rebased != (d > maxDrift) {
		t.Fatalf("resumed from a state of drift %.3f: rebased %v", d, res.Stats.Rebased)
	}
	if res.Stats.Rebased && (res.State.Drift() != 1 || res.Stats.DeltaPartitionsDirty != int64(res.NumPartitions)) {
		t.Fatalf("a rebase left drift %.3f and mined %d of %d partitions", res.State.Drift(), res.Stats.DeltaPartitionsDirty, res.NumPartitions)
	}
	return res
}

// TestDeltaDriftRebase builds a lineage whose kept order grows dear. The
// base corpus ranks r before x1…x8. Every append adds ten sequences
// "x1 … x8" and five "r x1 r x2 … r x8", so from the third the x items
// outrank r in frequency while the lineage still ranks r first. Under
// γ = 0 each r-sequence then rewrites to eight partition sequences (one per
// x pivot, which sees r beside it) where frequency order gives it one (r's
// pivot; the x pivots see only blanks beside them). The first two appends
// add as much content with no order cost, and must leave the drift at 1. The
// lineage must rebase once, never resume from a state past the bound, equal
// a cold mine at every cycle, and keep drift 1 after the rebase, since its
// order is then frequency order.
func TestDeltaDriftRebase(t *testing.T) {
	b := lash.NewDatabaseBuilder()
	xs := make([]string, 8)
	var rx []string
	for i := range xs {
		xs[i] = fmt.Sprintf("x%d", i+1)
		rx = append(rx, "r", xs[i])
	}
	for range 30 {
		b.AddSequence("r", "z")
	}
	for range 10 {
		b.AddSequence(xs...)
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := lash.Options{MinSupport: 5, MaxGap: 0, MaxLength: 3}
	res, err := lash.Mine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	rebased := 0
	for c := 1; c <= 8; c++ {
		b := lash.NewDatabaseBuilder()
		for range 10 {
			b.AddSequence(xs...)
		}
		for range 5 {
			b.AddSequence(rx...)
		}
		frag, err := b.Build()
		if err == nil {
			db, err = db.Append(frag)
		}
		if err != nil {
			t.Fatal(err)
		}
		next := resumeChecked(t, db, opt, res)
		cold, err := lash.Mine(db, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(next.Patterns, cold.Patterns) || !reflect.DeepEqual(next.FrequentItems, cold.FrequentItems) {
			t.Fatalf("cycle %d: the resume differs from the cold mine", c)
		}
		d := next.State.Drift()
		t.Logf("cycle %d: drift %.3f, rebased %v", c, d, next.Stats.Rebased)
		if next.Stats.Rebased {
			rebased = c
		}
		if (c <= 2 || rebased > 0) && d != 1 {
			t.Fatalf("cycle %d: drift %.3f with the lineage in frequency order", c, d)
		}
		res = next
	}
	if rebased == 0 {
		t.Fatal("the lineage never rebased")
	}
}

// TestChaosDriftLineage runs a live lineage — each cycle a zipf append (ten
// of the corpus's own sentences, resampled) and a topical one (a hundred
// four-item sequences over ten new items), each resumed from the state
// before — and checks the drift bound at every resume and the cold mine at
// every tenth cycle and the last. Tier-1 runs 20 cycles from seed 1; with
// LASH_CHAOS_SEED set (make chaos) it runs 200 from that seed.
func TestChaosDriftLineage(t *testing.T) {
	cycles, seed := 20, int64(1)
	if os.Getenv("LASH_CHAOS_SEED") != "" {
		cycles, seed = 200, chaosSeeds(t)[0]
	}
	t.Logf("%d cycles from seed %d", cycles, seed)
	db, err := lash.GenerateTextDatabase(lash.TextConfig{Sentences: 1000, Lemmas: 300, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	opt := lash.Options{MinSupport: 10, MaxGap: 1, MaxLength: 3, Workers: 2}
	res, err := lash.Mine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	base, drift := db.NumSequences(), 0.0
	for c := 1; c <= cycles; c++ {
		for _, topical := range []bool{false, true} {
			b := lash.NewDatabaseBuilder()
			if topical {
				name := func(j int) string { return fmt.Sprintf("topic_%d_%d", c, j%10) }
				for i := range 100 {
					b.AddSequence(name(i), name(i+1), name(i+3), name(i+7))
				}
			} else {
				for range 10 {
					b.AddSequence(db.Sequence(r.Intn(base))...)
				}
			}
			frag, err := b.Build()
			if err == nil {
				db, err = db.Append(frag)
			}
			if err != nil {
				t.Fatal(err)
			}
			res = resumeChecked(t, db, opt, res)
			drift = max(drift, res.State.Drift())
		}
		if c%10 != 0 && c != cycles {
			continue
		}
		cold, err := lash.Mine(db, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Patterns, cold.Patterns) || !reflect.DeepEqual(res.FrequentItems, cold.FrequentItems) {
			t.Fatalf("cycle %d: the lineage differs from the cold mine", c)
		}
	}
	t.Logf("largest drift %.3f", drift)
}
