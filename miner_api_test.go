package lash_test

import (
	"strings"
	"sync/atomic"
	"testing"

	"lash"
)

// countFListJobs returns opt with a Progress hook that counts, into n, the
// f-list jobs the runs it is passed to execute — how the tests observe the
// per-snapshot frequency reuse (§3.4). The counter is atomic because hooks
// of concurrent runs are not serialized against each other.
func countFListJobs(opt lash.Options, n *atomic.Int64) lash.Options {
	opt.Progress = func(e lash.ProgressEvent) {
		if e.Job == "flist" && e.Phase == "done" {
			n.Add(1)
		}
	}
	return opt
}

// A snapshot must reuse its frequencies across parameter changes (§3.4)
// while producing exactly the same results as runs on a fresh snapshot.
func TestMinerFrequencyReuse(t *testing.T) {
	db := paperDB(t)
	var jobs atomic.Int64
	sweeps := []lash.Options{
		{MinSupport: 2, MaxGap: 1, MaxLength: 3},
		{MinSupport: 3, MaxGap: 1, MaxLength: 3}, // different σ
		{MinSupport: 2, MaxGap: 0, MaxLength: 3}, // different γ
		{MinSupport: 2, MaxGap: 1, MaxLength: 2}, // different λ
	}
	for _, opt := range sweeps {
		got, err := lash.Mine(db, countFListJobs(opt, &jobs))
		if err != nil {
			t.Fatal(err)
		}
		want, err := lash.Mine(paperDB(t), opt)
		if err != nil {
			t.Fatal(err)
		}
		if patternChecksum(got.Patterns) != patternChecksum(want.Patterns) {
			t.Fatalf("run on reused frequencies differs for %+v", opt)
		}
	}
	if n := jobs.Load(); n != 1 {
		t.Fatalf("f-list job ran %d times across the sweep, want 1", n)
	}
	// A flat-mode run needs (and the snapshot keeps) flat frequencies.
	for _, alg := range []lash.Algorithm{lash.AlgorithmMGFSM, lash.AlgorithmLASHFlat} {
		opt := lash.Options{MinSupport: 2, MaxGap: 1, MaxLength: 3, Algorithm: alg}
		if _, err := lash.Mine(db, countFListJobs(opt, &jobs)); err != nil {
			t.Fatal(err)
		}
	}
	if n := jobs.Load(); n != 2 {
		t.Fatalf("flat f-list job not shared: %d runs in total, want 2", n)
	}
}

// The baselines neither fill nor read the snapshot's frequencies: the
// semi-naïve f-list job runs on every call, and leaves a later LASH run its
// own to do.
func TestMinerBaselinePassthrough(t *testing.T) {
	db := paperDB(t)
	var jobs atomic.Int64
	semi := countFListJobs(lash.Options{MinSupport: 2, MaxGap: 1, MaxLength: 3, Algorithm: lash.AlgorithmSemiNaive}, &jobs)
	for i := 0; i < 2; i++ {
		res, err := lash.Mine(db, semi)
		if err != nil {
			t.Fatal(err)
		}
		checkPaperResult(t, res, "semi-naive on a shared snapshot")
	}
	if n := jobs.Load(); n != 2 {
		t.Fatalf("semi-naive ran %d f-list jobs in 2 runs, want 2 (baselines do not read the cache)", n)
	}
	if _, err := lash.Mine(db, countFListJobs(lash.Options{MinSupport: 2, MaxGap: 1, MaxLength: 3}, &jobs)); err != nil {
		t.Fatal(err)
	}
	if n := jobs.Load(); n != 3 {
		t.Fatalf("%d f-list jobs after the first LASH run, want 3 (baselines do not fill the cache)", n)
	}
}

// Restrictions compose with reused frequencies.
func TestMinerWithRestriction(t *testing.T) {
	db := paperDB(t)
	opt := lash.Options{MinSupport: 2, MaxGap: 1, MaxLength: 3}
	if _, err := lash.Mine(db, opt); err != nil { // counts the frequencies
		t.Fatal(err)
	}
	opt.Restriction = lash.RestrictMaximal
	res, err := lash.Mine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Patterns {
		if strings.Join(p.Items, " ") == "a B" {
			t.Fatal("non-maximal pattern survived restriction on reused frequencies")
		}
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no maximal patterns on reused frequencies")
	}
}
