package mapreduce_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"lash/internal/faults"
	"lash/internal/mapreduce"
	"lash/internal/obs"
)

// runClean runs the reference fault-free job for comparison.
func runClean(t *testing.T, cfg mapreduce.Config, input []int, job mapreduce.AggJob[int, string]) []string {
	t.Helper()
	out, _, err := mapreduce.RunAgg(context.Background(), cfg, input, job)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func assertSameOutput(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestRetryRecoversInjectedMapFault injects one map-task fault and asserts a
// retried run reproduces the fault-free output exactly, with the retry and
// the injection both counted.
func TestRetryRecoversInjectedMapFault(t *testing.T) {
	input := spillInput(200)
	base := mapreduce.Config{Workers: 4, MapTasks: 8, ReduceTasks: 5}
	want := runClean(t, base, input, spillJob())

	reg := &faults.Registry{}
	reg.FailNth("mapreduce.map.task", 1, faults.Error)
	cfg := base
	cfg.Retry = mapreduce.RetryPolicy{MaxAttempts: 3}
	cfg.Faults = reg
	got, stats, err := mapreduce.RunAgg(context.Background(), cfg, input, spillJob())
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutput(t, got, want)
	if stats.TaskRetries != 1 || stats.FaultsInjected != 1 {
		t.Fatalf("TaskRetries=%d FaultsInjected=%d, want 1/1", stats.TaskRetries, stats.FaultsInjected)
	}
}

// TestRetryDisabledInjectedFaultFails asserts that without retries an
// injected fault fails the whole job with a package-annotated error wrapping
// the injection sentinel, and that the spill directory is still torn down.
func TestRetryDisabledInjectedFaultFails(t *testing.T) {
	dir := t.TempDir()
	reg := &faults.Registry{}
	reg.FailNth("mapreduce.map.task", 1, faults.Error)
	cfg := mapreduce.Config{Workers: 2, MapTasks: 4, ReduceTasks: 3,
		MemoryBudget: 64, SpillDir: dir, Faults: reg}
	_, _, err := mapreduce.RunAgg(context.Background(), cfg, spillInput(50), spillJob())
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want wrapped faults.ErrInjected", err)
	}
	if !strings.Contains(err.Error(), `mapreduce: job "spill-diff": map task`) {
		t.Fatalf("error not annotated with job/phase/task: %v", err)
	}
	assertEmptyDir(t, dir)
}

// TestPanicFaultNotRetried: a panic-mode fault models a bug, not a flaky
// device — it must fail the job even with retry headroom.
func TestPanicFaultNotRetried(t *testing.T) {
	reg := &faults.Registry{}
	reg.FailNth("mapreduce.map.task", 1, faults.Panic)
	cfg := mapreduce.Config{Workers: 2, MapTasks: 4, ReduceTasks: 3,
		Retry: mapreduce.RetryPolicy{MaxAttempts: 5}, Faults: reg}
	_, stats, err := mapreduce.RunAgg(context.Background(), cfg, spillInput(50), spillJob())
	if err == nil || !strings.Contains(err.Error(), "panic:") {
		t.Fatalf("err = %v, want recovered panic", err)
	}
	if stats.TaskRetries != 0 {
		t.Fatalf("TaskRetries = %d, want 0 (panics are deterministic)", stats.TaskRetries)
	}
}

// TestUserPanicNotRetried: same classification for panics out of user code.
func TestUserPanicNotRetried(t *testing.T) {
	job := spillJob()
	var calls atomic.Int64
	inner := job.Map
	job.Map = func(item int, emit func(uint32, []byte, int64)) {
		if calls.Add(1) == 1 {
			panic("synthetic map bug")
		}
		inner(item, emit)
	}
	cfg := mapreduce.Config{Workers: 1, MapTasks: 2, ReduceTasks: 2,
		Retry: mapreduce.RetryPolicy{MaxAttempts: 4}}
	_, stats, err := mapreduce.RunAgg(context.Background(), cfg, spillInput(20), job)
	if err == nil || !strings.Contains(err.Error(), "synthetic map bug") {
		t.Fatalf("err = %v, want recovered user panic", err)
	}
	if stats.TaskRetries != 0 {
		t.Fatalf("TaskRetries = %d, want 0", stats.TaskRetries)
	}
}

// TestReduceRetryGate: a transiently-failing reducer recovers under
// Config.Retry — Reduce is retryable by contract. The flake comes after
// emitting, so the failed attempt leaves records the retry must discard.
func TestReduceRetryGate(t *testing.T) {
	input := spillInput(100)
	base := mapreduce.Config{Workers: 2, MapTasks: 4, ReduceTasks: 3}
	want := runClean(t, base, input, spillJob())

	var failed atomic.Bool
	job := spillJob()
	inner := job.Reduce
	job.Reduce = func(group uint32, entries []mapreduce.Entry, emit func(string)) error {
		if err := inner(group, entries, emit); err != nil {
			return err
		}
		if failed.CompareAndSwap(false, true) {
			return fmt.Errorf("synthetic flake: %w", mapreduce.ErrTransient)
		}
		return nil
	}
	cfg := base
	cfg.Retry = mapreduce.RetryPolicy{MaxAttempts: 3}
	got, stats, err := mapreduce.RunAgg(context.Background(), cfg, input, job)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutput(t, got, want)
	if stats.TaskRetries != 1 {
		t.Fatalf("TaskRetries = %d, want 1", stats.TaskRetries)
	}
}

// TestRetryExhaustion: a persistently-failing task burns every allowed
// attempt, then fails the job with the annotated underlying error.
func TestRetryExhaustion(t *testing.T) {
	var attempts atomic.Int64
	job := spillJob()
	job.Reduce = func(uint32, []mapreduce.Entry, func(string)) error {
		attempts.Add(1)
		return fmt.Errorf("always down: %w", mapreduce.ErrTransient)
	}
	cfg := mapreduce.Config{Workers: 1, MapTasks: 2, ReduceTasks: 1,
		Retry: mapreduce.RetryPolicy{MaxAttempts: 3}}
	_, _, err := mapreduce.RunAgg(context.Background(), cfg, spillInput(30), job)
	if !errors.Is(err, mapreduce.ErrTransient) {
		t.Fatalf("err = %v, want exhausted transient failure", err)
	}
	if !strings.Contains(err.Error(), "reduce partition task") {
		t.Fatalf("error not annotated: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("reduce ran %d times, want exactly MaxAttempts=3", got)
	}
}

// TestSpillWriteFaultRecovered injects a spill-append failure (worst case:
// a full run buffered but unflushed) and asserts the rollback plus map-task
// retry reproduce the fault-free output byte-identically.
func TestSpillWriteFaultRecovered(t *testing.T) {
	input := spillInput(300)
	base := mapreduce.Config{Workers: 4, MapTasks: 8, ReduceTasks: 5}
	want := runClean(t, base, input, spillJob())

	reg := &faults.Registry{}
	reg.FailNth("mapreduce.spill.write", 2, faults.Error)
	cfg := base
	cfg.MemoryBudget = 512
	cfg.SpillDir = t.TempDir()
	cfg.Retry = mapreduce.RetryPolicy{MaxAttempts: 3}
	cfg.Faults = reg
	got, stats, err := mapreduce.RunAgg(context.Background(), cfg, input, spillJob())
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutput(t, got, want)
	if stats.TaskRetries == 0 || stats.FaultsInjected != 1 {
		t.Fatalf("TaskRetries=%d FaultsInjected=%d, want >0/1", stats.TaskRetries, stats.FaultsInjected)
	}
	assertEmptyDir(t, cfg.SpillDir)
}

// TestSpillMergeFaultRecovered injects a merge failure on the reduce side;
// the retried reduce task re-merges the (intact) runs and the output stays
// byte-identical.
func TestSpillMergeFaultRecovered(t *testing.T) {
	input := spillInput(300)
	base := mapreduce.Config{Workers: 4, MapTasks: 8, ReduceTasks: 5}
	want := runClean(t, base, input, spillJob())

	reg := &faults.Registry{}
	reg.FailNth("mapreduce.spill.merge", 1, faults.Error)
	job := spillJob()
	cfg := base
	cfg.MemoryBudget = 512
	cfg.SpillDir = t.TempDir()
	cfg.Retry = mapreduce.RetryPolicy{MaxAttempts: 3}
	cfg.Faults = reg
	got, stats, err := mapreduce.RunAgg(context.Background(), cfg, input, job)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutput(t, got, want)
	if stats.TaskRetries != 1 || stats.FaultsInjected != 1 {
		t.Fatalf("TaskRetries=%d FaultsInjected=%d, want 1/1", stats.TaskRetries, stats.FaultsInjected)
	}
	assertEmptyDir(t, cfg.SpillDir)
}

// TestPipelineCountersAddedOnEveryExit: the process-wide counters are the
// run's own, added once when RunAgg returns — after a retried success, a
// failure and a cancellation alike.
func TestPipelineCountersAddedOnEveryExit(t *testing.T) {
	pm := obs.NewPipelineMetrics(obs.NewRegistry())
	var want mapreduce.Counters
	check := func(name string, st *mapreduce.Stats) {
		t.Helper()
		want.MapOutputRecords += st.MapOutputRecords
		want.MapOutputBytes += st.MapOutputBytes
		want.SpillRuns += st.SpillRuns
		want.SpillBytes += st.SpillBytes
		want.SpillRecords += st.SpillRecords
		want.TaskRetries += st.TaskRetries
		want.FaultsInjected += st.FaultsInjected
		got := mapreduce.Counters{
			MapOutputRecords: pm.ShuffleRecords.Value(), MapOutputBytes: pm.ShuffleBytes.Value(),
			SpillRuns: pm.SpillRuns.Value(), SpillBytes: pm.SpillBytes.Value(), SpillRecords: pm.SpillRecords.Value(),
			TaskRetries: pm.TaskRetries.Value(), FaultsInjected: pm.FaultsInjected.Value(),
		}
		if got != want {
			t.Fatalf("%s: process-wide counters %+v, want the runs' totals %+v", name, got, want)
		}
	}
	input := spillInput(300)
	cfg := mapreduce.Config{Workers: 2, MapTasks: 6, ReduceTasks: 4, MemoryBudget: 512,
		SpillDir: t.TempDir(), Obs: &obs.Run{Metrics: pm}}

	reg := &faults.Registry{}
	reg.FailNth("mapreduce.spill.merge", 1, faults.Error)
	retried := cfg
	retried.Retry, retried.Faults = mapreduce.RetryPolicy{MaxAttempts: 3}, reg
	_, st, err := mapreduce.RunAgg(context.Background(), retried, input, spillJob())
	if err != nil || st.TaskRetries != 1 || st.SpillRuns == 0 {
		t.Fatalf("retried run: err %v, %d retries, %d spill runs", err, st.TaskRetries, st.SpillRuns)
	}
	check("retried", st)
	if pm.SpillFlushes.Value() == 0 {
		t.Fatal("a spilling run counted no flush")
	}

	reg = &faults.Registry{}
	reg.FailNth("mapreduce.reduce.task", 2, faults.Error)
	failed := cfg
	failed.Faults = reg
	if _, st, err = mapreduce.RunAgg(context.Background(), failed, input, spillJob()); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("failed run: err %v", err)
	}
	check("failed", st)

	ctx, cancel := context.WithCancel(context.Background())
	job := spillJob()
	var reduces atomic.Int64
	reduce := job.Reduce
	job.Reduce = func(g uint32, es []mapreduce.Entry, emit func(string)) error {
		if reduces.Add(1) == 3 {
			cancel()
		}
		return reduce(g, es, emit)
	}
	if _, st, err = mapreduce.RunAgg(ctx, cfg, input, job); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err %v", err)
	}
	check("cancelled", st)
	assertEmptyDir(t, cfg.SpillDir)
}
