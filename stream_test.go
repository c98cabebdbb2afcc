package lash_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lash"
)

// genDB builds a deterministic synthetic text database through the public
// API.
func genDB(t testing.TB, sentences int, seed int64) *lash.Database {
	t.Helper()
	db, err := lash.GenerateTextDatabase(lash.TextConfig{Sentences: sentences, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestMineContextPreCancelled: an already-cancelled context returns
// ctx.Err() without running any jobs.
func TestMineContextPreCancelled(t *testing.T) {
	db := paperDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := lash.MineContext(ctx, db, lash.Options{MinSupport: 2, MaxGap: 1, MaxLength: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if res != nil {
		t.Errorf("got a result from a pre-cancelled run")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("pre-cancelled MineContext took %v", d)
	}
}

// TestMineContextCancelLatency: cancelling mid-run on a large generated
// database must return well under a second after the cancel, with
// ctx.Err() in the chain — the ISSUE's headline latency guarantee.
func TestMineContextCancelLatency(t *testing.T) {
	db := genDB(t, 50000, 7)
	for _, alg := range []lash.Algorithm{lash.AlgorithmLASH, lash.AlgorithmNaive} {
		t.Run(alg.String(), func(t *testing.T) {
			opt := lash.Options{MinSupport: 2, MaxGap: 2, MaxLength: 5, Algorithm: alg}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := lash.MineContext(ctx, db, opt)
				done <- err
			}()
			time.Sleep(30 * time.Millisecond) // let the run get going
			cancelAt := time.Now()
			cancel()
			select {
			case err := <-done:
				if latency := time.Since(cancelAt); latency > time.Second {
					t.Errorf("cancellation latency %v, want < 1s", latency)
				}
				// The run may have finished before the cancel on a fast
				// machine; only a still-running run must report Canceled.
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled in chain (or nil)", err)
				}
				if err == nil {
					t.Log("run completed before cancellation took effect")
				}
			case <-time.After(30 * time.Second):
				t.Fatal("cancelled mine did not return within 30s")
			}
		})
	}
}

// patternKey flattens a pattern for set comparison.
func patternKey(p lash.Pattern) string {
	return fmt.Sprintf("%s|%d", strings.Join(p.Items, " "), p.Support)
}

func patternSet(t *testing.T, ps []lash.Pattern) map[string]int {
	t.Helper()
	set := make(map[string]int, len(ps))
	for _, p := range ps {
		set[patternKey(p)]++
		if set[patternKey(p)] > 1 {
			t.Fatalf("duplicate pattern %q", patternKey(p))
		}
	}
	return set
}

// TestStreamMatchesMine: across randomized databases, every algorithm, and
// every local miner, the streamed patterns+supports are set-equal to
// Mine's output, and the streaming Result still carries FrequentItems.
func TestStreamMatchesMine(t *testing.T) {
	type combo struct {
		alg   lash.Algorithm
		miner lash.LocalMiner
	}
	combos := []combo{
		{lash.AlgorithmLASH, lash.MinerPSM},
		{lash.AlgorithmLASH, lash.MinerPSMNoIndex},
		{lash.AlgorithmLASH, lash.MinerBFS},
		{lash.AlgorithmLASH, lash.MinerDFS},
		{lash.AlgorithmLASHFlat, lash.MinerPSM},
		{lash.AlgorithmMGFSM, lash.MinerPSM}, // zero value doubles as "unset"
		{lash.AlgorithmNaive, lash.MinerPSM},
		{lash.AlgorithmSemiNaive, lash.MinerPSM},
	}
	for seed := int64(1); seed <= 2; seed++ {
		db := genDB(t, 400, seed)
		for _, c := range combos {
			t.Run(fmt.Sprintf("seed%d/%s/%s", seed, c.alg, c.miner), func(t *testing.T) {
				opt := lash.Options{
					MinSupport: 8, MaxGap: 1, MaxLength: 3,
					Algorithm: c.alg, LocalMiner: c.miner,
				}
				want, err := lash.Mine(db, opt)
				if err != nil {
					t.Fatal(err)
				}

				var streamed []lash.Pattern
				res, err := lash.Stream(context.Background(), db, opt, func(p lash.Pattern) error {
					streamed = append(streamed, p)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Patterns) != 0 {
					t.Errorf("streaming Result.Patterns has %d entries, want 0", len(res.Patterns))
				}
				wantSet, gotSet := patternSet(t, want.Patterns), patternSet(t, streamed)
				if len(wantSet) != len(gotSet) {
					t.Errorf("streamed %d distinct patterns, Mine produced %d", len(gotSet), len(wantSet))
				}
				for k := range wantSet {
					if gotSet[k] == 0 {
						t.Errorf("pattern %q mined but not streamed", k)
					}
				}
				for k := range gotSet {
					if wantSet[k] == 0 {
						t.Errorf("pattern %q streamed but not mined", k)
					}
				}
				// FrequentItems still arrive with the final Result.
				if len(res.FrequentItems) != len(want.FrequentItems) {
					t.Errorf("stream returned %d frequent items, Mine %d",
						len(res.FrequentItems), len(want.FrequentItems))
				}
			})
		}
	}
}

// TestStreamEmitErrorCancelsRun: an error from emit cancels the run and is
// returned verbatim.
func TestStreamEmitErrorCancelsRun(t *testing.T) {
	db := genDB(t, 400, 3)
	boom := errors.New("consumer is full")
	calls := 0
	start := time.Now()
	_, err := lash.Stream(context.Background(), db,
		lash.Options{MinSupport: 5, MaxGap: 1, MaxLength: 3},
		func(p lash.Pattern) error {
			calls++
			return boom
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if calls != 1 {
		t.Errorf("emit called %d times after returning an error, want 1", calls)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("emit-error cancellation took %v", d)
	}
}

// TestStreamRejectsRestrictions: closed/maximal need the full output and
// are rejected up front.
func TestStreamRejectsRestrictions(t *testing.T) {
	db := paperDB(t)
	for _, r := range []lash.Restriction{lash.RestrictClosed, lash.RestrictMaximal} {
		opt := lash.Options{MinSupport: 2, MaxGap: 1, MaxLength: 3, Restriction: r}
		if err := opt.ValidateStream(); err == nil {
			t.Errorf("ValidateStream(%s) = nil, want error", r)
		}
		if _, err := lash.Stream(context.Background(), db, opt, discard); err == nil {
			t.Errorf("Stream(%s) = nil error, want rejection", r)
		}
		// The plain paths still accept restrictions.
		if _, err := lash.Mine(db, opt); err != nil {
			t.Errorf("Mine(%s) = %v, want success", r, err)
		}
	}
}

func discard(lash.Pattern) error { return nil }

// TestMinerStreamReusesFrequencies: Stream reads the same per-snapshot
// frequencies Mine counted.
func TestMinerStreamReusesFrequencies(t *testing.T) {
	db := paperDB(t)
	var jobs atomic.Int64
	opt := countFListJobs(lash.Options{MinSupport: 2, MaxGap: 1, MaxLength: 3}, &jobs)
	want, err := lash.Mine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []lash.Pattern
	if _, err := lash.Stream(context.Background(), db, opt, func(p lash.Pattern) error {
		streamed = append(streamed, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := jobs.Load(); n != 1 {
		t.Errorf("%d f-list jobs after Mine+Stream on one snapshot, want 1 (reuse)", n)
	}
	sort.Slice(streamed, func(i, j int) bool { return patternKey(streamed[i]) < patternKey(streamed[j]) })
	wantSorted := append([]lash.Pattern(nil), want.Patterns...)
	sort.Slice(wantSorted, func(i, j int) bool { return patternKey(wantSorted[i]) < patternKey(wantSorted[j]) })
	if len(streamed) != len(wantSorted) {
		t.Fatalf("streamed %d patterns, want %d", len(streamed), len(wantSorted))
	}
	for i := range streamed {
		if patternKey(streamed[i]) != patternKey(wantSorted[i]) {
			t.Fatalf("pattern %d: streamed %q, want %q", i, patternKey(streamed[i]), patternKey(wantSorted[i]))
		}
	}
}

// TestProgressEvents: the Options.Progress hook reports both jobs of a
// LASH run, finishes each with a "done" event, and counts partitions up to
// the total.
func TestProgressEvents(t *testing.T) {
	db := genDB(t, 400, 5)
	var events []lash.ProgressEvent
	opt := lash.Options{
		MinSupport: 5, MaxGap: 1, MaxLength: 3,
		Progress: func(e lash.ProgressEvent) { events = append(events, e) },
	}
	if _, err := lash.Mine(db, opt); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events delivered")
	}
	jobs := map[string]bool{}
	var mineDone *lash.ProgressEvent
	for i := range events {
		e := events[i]
		jobs[e.Job] = true
		if e.Job == "partition+mine" && e.Phase == "done" {
			mineDone = &events[i]
		}
		if e.MapTasksDone > e.MapTasks || e.PartitionsMined > e.Partitions {
			t.Fatalf("event overflows totals: %+v", e)
		}
	}
	if !jobs["flist"] || !jobs["partition+mine"] {
		t.Errorf("saw jobs %v, want flist and partition+mine", jobs)
	}
	if mineDone == nil {
		t.Fatal("no done event for the mining job")
	}
	if mineDone.MapTasksDone != mineDone.MapTasks {
		t.Errorf("done event has map %d/%d", mineDone.MapTasksDone, mineDone.MapTasks)
	}
	if mineDone.PartitionsMined != mineDone.Partitions {
		t.Errorf("done event has partitions %d/%d", mineDone.PartitionsMined, mineDone.Partitions)
	}
	if mineDone.ShuffleBytes <= 0 {
		t.Errorf("done event reports %d shuffle bytes, want > 0", mineDone.ShuffleBytes)
	}
}

// TestStreamBaselineCapAborts: when a baseline trips MaxIntermediate its
// aggregated supports may be undercounted; a streaming run must fail with
// ErrAborted before delivering any of them.
func TestStreamBaselineCapAborts(t *testing.T) {
	db := genDB(t, 400, 9)
	for _, alg := range []lash.Algorithm{lash.AlgorithmNaive, lash.AlgorithmSemiNaive} {
		t.Run(alg.String(), func(t *testing.T) {
			streamed := 0
			_, err := lash.Stream(context.Background(), db,
				lash.Options{MinSupport: 5, MaxGap: 1, MaxLength: 3,
					Algorithm: alg, MaxIntermediate: 50},
				func(p lash.Pattern) error {
					streamed++
					return nil
				})
			if !errors.Is(err, lash.ErrAborted) {
				t.Fatalf("err = %v, want ErrAborted", err)
			}
			if streamed != 0 {
				t.Errorf("%d possibly-undercounted patterns were streamed before the cap abort", streamed)
			}
		})
	}
}
