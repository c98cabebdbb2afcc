package lash_test

import (
	"context"
	"errors"
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
