package lash_test

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"lash"
	"lash/internal/faults"
)

// The chaos differential: runs with faults injected into every pipeline
// injection point, plus task retries, must reproduce the fault-free output
// byte-identically — same patterns, same supports, same order, same
// counters — across seeds, every algorithm, and both execution modes
// (in-memory and budgeted-spill). This is the end-to-end guarantee the
// fault-tolerance layer rests on: a retry is invisible in the output.
//
// Seeds default to 1..3; set LASH_CHAOS_SEED=n to shift the window to
// n..n+2 (CI randomizes it so the corpus space gets swept over time).
//
// The tests deliberately leave Options.MaxIntermediate unset: the
// baselines' emit-cap counter is cumulative across attempts, so a retried
// map task counts its emits twice and a cap could trip early (documented
// on Options.MaxIntermediate).
func chaosSeeds(t *testing.T) []int64 {
	base := int64(1)
	if env := os.Getenv("LASH_CHAOS_SEED"); env != "" {
		n, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("LASH_CHAOS_SEED=%q: %v", env, err)
		}
		base = n
	}
	return []int64{base, base + 1, base + 2}
}

var chaosAlgorithms = []lash.Algorithm{
	lash.AlgorithmLASH,
	lash.AlgorithmLASHFlat,
	lash.AlgorithmMGFSM,
	lash.AlgorithmNaive,
	lash.AlgorithmSemiNaive,
}

// mapreducePoints are the substrate's injection points (see Options.Faults
// and internal/faults). The spill points only see traffic on budgeted runs.
var mapreducePoints = []string{
	"mapreduce.map.task",
	"mapreduce.reduce.task",
	"mapreduce.spill.write",
	"mapreduce.spill.merge",
}

func assertSameResult(t *testing.T, got, want *lash.Result) {
	t.Helper()
	assertSamePatterns(t, "Patterns", got.Patterns, want.Patterns)
	assertSamePatterns(t, "FrequentItems", got.FrequentItems, want.FrequentItems)
	if got.NumPartitions != want.NumPartitions {
		t.Errorf("NumPartitions = %d, want %d", got.NumPartitions, want.NumPartitions)
	}
	if got.Explored != want.Explored {
		t.Errorf("Explored = %d, want %d", got.Explored, want.Explored)
	}
	if got.Stats.MapOutputBytes != want.Stats.MapOutputBytes ||
		got.Stats.MapOutputRecords != want.Stats.MapOutputRecords {
		t.Errorf("shuffle stats diverged: got %d records/%d bytes, want %d/%d",
			got.Stats.MapOutputRecords, got.Stats.MapOutputBytes,
			want.Stats.MapOutputRecords, want.Stats.MapOutputBytes)
	}
}

func TestChaosDifferential(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		db := genDB(t, 200, seed)
		for _, alg := range chaosAlgorithms {
			for _, budget := range []int64{0, 4 << 10} {
				mode := "in-memory"
				if budget > 0 {
					mode = "spill"
				}
				t.Run(fmt.Sprintf("seed%d/%s/%s", seed, alg, mode), func(t *testing.T) {
					// Workers is pinned so the task structure (and with it the
					// per-task fault-point traffic) is machine-independent.
					opt := lash.Options{
						MinSupport: 5, MaxGap: 1, MaxLength: 3,
						Algorithm: alg, MemoryBudget: budget, Workers: 4,
					}
					want, err := lash.Mine(db, opt)
					if err != nil {
						t.Fatal(err)
					}
					if budget > 0 && want.Stats.SpillRuns == 0 {
						t.Fatal("budgeted reference run did not spill — spill points see no traffic")
					}

					// Count-armed: each point fails on exactly its first hit,
					// so on budgeted runs all four injection points fire (the
					// spill points idle on in-memory runs) and every injection
					// costs exactly one retry.
					reg := &faults.Registry{}
					for _, p := range mapreducePoints {
						reg.FailNth(p, 1, faults.Error)
					}
					chaos := opt
					chaos.MaxAttempts = 3
					chaos.Faults = reg
					// A fresh snapshot of the same seed has no frequencies
					// yet, so the f-list job runs under fault too — and, its
					// tasks being the run's first, takes the task faults.
					flistFaults := int64(0)
					chaos.Progress = func(e lash.ProgressEvent) {
						if e.Job == "flist" && e.Phase == "done" {
							flistFaults = e.FaultsInjected
						}
					}
					got, err := lash.Mine(genDB(t, 200, seed), chaos)
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, got, want)
					wantFired := int64(2) // map.task + reduce.task
					if budget > 0 {
						wantFired = 4 // + spill.write + spill.merge
					}
					if got.Stats.FaultsInjected != wantFired || got.Stats.TaskRetries != wantFired {
						t.Errorf("count-armed: FaultsInjected=%d TaskRetries=%d, want %d/%d",
							got.Stats.FaultsInjected, got.Stats.TaskRetries, wantFired, wantFired)
					}
					if alg != lash.AlgorithmNaive && flistFaults == 0 {
						t.Error("count-armed: no injection landed in the f-list job")
					}

					// Probability-armed: seeded PRNG draws decide each hit, so
					// failures land at schedule-dependent points; generous
					// attempt headroom makes exhaustion vanishingly unlikely.
					// The rate must scale inversely with a point's per-attempt
					// traffic: map/reduce/merge draw once per attempt (0.1 →
					// exhaustion ~1e-8 per task), but spill.write draws once
					// per spilled run — the naive baselines write thousands —
					// so its rate targets ~3 expected fires per run, measured
					// off the reference run's spill volume. A retried attempt
					// then survives its whole write sequence with probability
					// ~exp(-3/mapTasks) per attempt.
					pWrite := 0.001
					if n := want.Stats.SpillRuns; n > 0 {
						pWrite = 3.0 / float64(n)
						if pWrite > 0.1 {
							pWrite = 0.1
						}
					}
					preg := &faults.Registry{}
					preg.FailProb("mapreduce.map.task", 0.1, uint64(seed), faults.Error)
					preg.FailProb("mapreduce.reduce.task", 0.1, uint64(seed)+1, faults.Error)
					preg.FailProb("mapreduce.spill.write", pWrite, uint64(seed)+2, faults.Error)
					preg.FailProb("mapreduce.spill.merge", 0.1, uint64(seed)+3, faults.Error)
					chaos.MaxAttempts = 8
					chaos.Faults = preg
					got, err = lash.Mine(genDB(t, 200, seed), chaos)
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, got, want)
					if got.Stats.FaultsInjected != preg.Injected() {
						t.Errorf("prob-armed: run counted %d injections, registry %d",
							got.Stats.FaultsInjected, preg.Injected())
					}
				})
			}
		}
		for _, alg := range []lash.Algorithm{lash.AlgorithmLASH, lash.AlgorithmLASHFlat} {
			for _, budget := range []int64{0, 4 << 10} {
				mode := "in-memory"
				if budget > 0 {
					mode = "spill"
				}
				t.Run(fmt.Sprintf("seed%d/%s/%s/chained-resume", seed, alg, mode), func(t *testing.T) {
					chaosChainedResume(t, db, seed, lash.Options{
						MinSupport: 5, MaxGap: 1, MaxLength: 3,
						Algorithm: alg, MemoryBudget: budget, Workers: 4,
					})
				})
			}
		}
	}
}

// chaosChainedResume is TestChaosDifferential's chained-resume row: two
// appends of the corpus's own sentences, the second resumed from the first
// resume's state, so that its grown partitions read their old sequences
// from the inputs that state kept. Resumed from that state again under
// faults at the map and reduce tasks (and the spill points, under a budget)
// with retries, it must reproduce the fault-free resume and the cold mine.
func chaosChainedResume(t *testing.T, db *lash.Database, seed int64, opt lash.Options) {
	v1, err := lash.Mine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if db, err = db.Append(fragmentOf(t, db, 7, 8, nil)); err != nil {
		t.Fatal(err)
	}
	ropt := opt
	ropt.Resume = v1.State
	v2, err := lash.Mine(db, ropt)
	if err != nil {
		t.Fatal(err)
	}
	if db, err = db.Append(fragmentOf(t, db, 31, 8, nil)); err != nil {
		t.Fatal(err)
	}
	cold, err := lash.Mine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	ropt.Resume = v2.State
	want, err := lash.Mine(db, ropt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMining(t, db, opt, cold, want, true)
	if want.Stats.DeltaPartitionsGrown == 0 {
		t.Fatal("the chained resume grew no partition — no kept input is read")
	}
	if opt.MemoryBudget > 0 && want.Stats.SpillRuns == 0 {
		t.Fatal("budgeted reference resume did not spill — spill points see no traffic")
	}

	// Count-armed, as above; a resume runs no f-list job, so every point
	// fires in the partition+mine job.
	points := mapreducePoints[:2]
	if opt.MemoryBudget > 0 {
		points = mapreducePoints
	}
	reg := &faults.Registry{}
	for _, p := range points {
		reg.FailNth(p, 1, faults.Error)
	}
	chaos := ropt
	chaos.MaxAttempts = 3
	chaos.Faults = reg
	got, err := lash.Mine(db, chaos)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, got, want)
	if n := int64(len(points)); got.Stats.FaultsInjected != n || got.Stats.TaskRetries != n {
		t.Errorf("count-armed: FaultsInjected=%d TaskRetries=%d, want %d/%d",
			got.Stats.FaultsInjected, got.Stats.TaskRetries, n, n)
	}

	// Probability-armed at the task points, so retries land on partitions
	// other than the first.
	preg := &faults.Registry{}
	preg.FailProb("mapreduce.map.task", 0.1, uint64(seed), faults.Error)
	preg.FailProb("mapreduce.reduce.task", 0.2, uint64(seed)+1, faults.Error)
	chaos.MaxAttempts = 8
	chaos.Faults = preg
	if got, err = lash.Mine(db, chaos); err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, got, want)
	if got.Stats.FaultsInjected != preg.Injected() {
		t.Errorf("prob-armed: run counted %d injections, registry %d",
			got.Stats.FaultsInjected, preg.Injected())
	}
}

// TestChaosNoRetryFails: with retries disabled the same injection fails the
// whole job with a substrate-annotated error wrapping the injection
// sentinel — and the run's private spill directory is still removed.
func TestChaosNoRetryFails(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp) // the run's spill dir lands under os.TempDir()

	db := genDB(t, 400, 1)
	reg := &faults.Registry{}
	reg.FailNth("mapreduce.spill.write", 1, faults.Error)
	_, err := lash.Mine(db, lash.Options{
		MinSupport: 8, MaxGap: 1, MaxLength: 3,
		MemoryBudget: 4 << 10, Faults: reg,
	})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want wrapped faults.ErrInjected", err)
	}
	if !strings.Contains(err.Error(), "mapreduce: job") {
		t.Fatalf("error not substrate-annotated: %v", err)
	}
	entries, rerr := os.ReadDir(tmp)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, e := range entries {
		t.Errorf("orphan temp entry %s after failed run", e.Name())
	}
}
