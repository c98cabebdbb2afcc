package mapreduce_test

import (
	"context"
	"errors"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lash/internal/mapreduce"
)

// TestRunPreCancelled: a context that is already done must return before
// any task function runs and before a budgeted run creates its spill
// directory, naming the job it interrupted.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var maps atomic.Int64
	spillDir := t.TempDir()
	_, _, err := mapreduce.RunAgg(ctx, mapreduce.Config{Workers: 2, MemoryBudget: 1, SpillDir: spillDir},
		[]string{"a", "b", "c"},
		mapreduce.AggJob[string, string]{
			Name: "pre-cancelled",
			Map: func(item string, emit func(uint32, []byte, int64)) {
				maps.Add(1)
			},
			Reduce: func(g uint32, es []mapreduce.Entry, emit func(string)) error { return nil },
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if !strings.Contains(err.Error(), `job "pre-cancelled"`) {
		t.Errorf("error %q does not name the job", err)
	}
	if n := maps.Load(); n != 0 {
		t.Errorf("%d map calls ran despite pre-cancelled context", n)
	}
	if left, _ := os.ReadDir(spillDir); len(left) != 0 {
		t.Errorf("pre-cancelled budgeted run left %d entries in the spill dir", len(left))
	}
}

// TestRunAggPreCancelled is TestRunPreCancelled for an in-memory run.
func TestRunAggPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var maps atomic.Int64
	_, _, err := mapreduce.RunAgg(ctx, mapreduce.Config{Workers: 2},
		[]string{"a", "b", "c"},
		mapreduce.AggJob[string, string]{
			Name: "pre-cancelled-agg",
			Map: func(item string, emit func(uint32, []byte, int64)) {
				maps.Add(1)
			},
			Reduce: func(g uint32, es []mapreduce.Entry, emit func(string)) error { return nil },
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if n := maps.Load(); n != 0 {
		t.Errorf("%d map calls ran despite pre-cancelled context", n)
	}
}

// TestRunCancelMidEmit: a single map task spinning on emit must observe
// cancellation at an emit point, not run to completion — and a merge must
// observe it between groups.
func TestRunCancelMidEmit(t *testing.T) {
	cancelInMerge(t, mapreduce.Config{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var once atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, _, err := mapreduce.RunAgg(ctx, mapreduce.Config{Workers: 1, MapTasks: 1},
			[]int{0},
			mapreduce.AggJob[int, string]{
				Name: "spin",
				Map: func(item int, emit func(uint32, []byte, int64)) {
					key := []byte("k")
					for i := 0; ; i++ { // unbounded without cancellation
						if once.CompareAndSwap(false, true) {
							close(started)
						}
						emit(uint32(i%7), key, 1)
					}
				},
				Reduce: func(g uint32, es []mapreduce.Entry, emit func(string)) error { return nil },
			})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled in chain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled run did not return within 5s")
	}
}

// TestRunCancelCauseInChain: a cancellation cause set via WithCancelCause
// must be matchable on the returned error.
func TestRunCancelCauseInChain(t *testing.T) {
	cause := errors.New("operator hit the big red button")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	_, _, err := mapreduce.RunAgg(ctx, mapreduce.Config{Workers: 1},
		[]string{"a"},
		mapreduce.AggJob[string, string]{
			Name:   "cause",
			Map:    func(item string, emit func(uint32, []byte, int64)) {},
			Reduce: func(g uint32, es []mapreduce.Entry, emit func(string)) error { return nil },
		})
	if !errors.Is(err, context.Canceled) || !errors.Is(err, cause) {
		t.Fatalf("err = %v, want both context.Canceled and the cause in chain", err)
	}
}

// TestRunAggProgress: the progress hook sees every map task and partition
// retire, and a final "done" snapshot.
func TestRunAggProgress(t *testing.T) {
	var mu sync.Mutex
	var events []mapreduce.Progress
	cfg := mapreduce.Config{Workers: 2, MapTasks: 3, ReduceTasks: 4,
		Progress: func(p mapreduce.Progress) {
			mu.Lock()
			events = append(events, p)
			mu.Unlock()
		}}
	_, _, err := mapreduce.RunAgg(context.Background(), cfg,
		[]string{"a b", "b c", "c a"},
		mapreduce.AggJob[string, string]{
			Name: "progress",
			Map: func(item string, emit func(uint32, []byte, int64)) {
				for _, w := range strings.Fields(item) {
					emit(0, []byte(w), 1)
				}
			},
			Reduce: func(g uint32, es []mapreduce.Entry, emit func(string)) error { return nil },
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events delivered")
	}
	last := events[len(events)-1]
	if last.Phase != "done" {
		t.Errorf("last event phase = %q, want done", last.Phase)
	}
	if last.MapTasksDone != last.MapTasks || last.MapTasks != 3 {
		t.Errorf("final map progress %d/%d, want 3/3", last.MapTasksDone, last.MapTasks)
	}
	if last.ReduceTasksDone != last.ReduceTasks || last.ReduceTasks != 4 {
		t.Errorf("final reduce progress %d/%d, want 4/4", last.ReduceTasksDone, last.ReduceTasks)
	}
	var mapEvents, reduceEvents int
	for _, e := range events {
		switch e.Phase {
		case "map":
			mapEvents++
		case "reduce":
			reduceEvents++
		}
		if e.Job != "progress" {
			t.Fatalf("event names job %q, want progress", e.Job)
		}
	}
	if mapEvents != 3 || reduceEvents != 4 {
		t.Errorf("got %d map / %d reduce events, want 3 / 4", mapEvents, reduceEvents)
	}
}
