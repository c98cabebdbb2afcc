// Package mapreduce is the in-process MapReduce substrate the distributed
// algorithms run on. It executes map / aggregate / shuffle / reduce with
// real (bounded) parallelism on the host and collects Hadoop-style counters
// (MAP_OUTPUT_BYTES, record counts) and each task's counted work.
//
// This substitutes for the paper's 11-node Hadoop cluster (§6.1): LASH's
// experimental claims rest on bytes shuffled and relative per-phase work,
// both of which are preserved by counting each task's records and real
// encoded bytes. Scheduling those counted tasks onto a simulated cluster
// (Fig. 6) is the experiment harness's business — see experiments.Simulate.
//
// There is one job shape and one shuffle. RunAgg executes a byte-key
// weighted-aggregation job (AggJob): map emits (group, key bytes, int64
// weight) triples that each map task aggregates into flat hash tables (open
// addressing over a shared key arena — no per-emit allocations), one per
// reduce partition, and flushes as sorted runs; a partition is reduced
// *streamingly*, the moment its last map task retires, by k-way merging its
// runs — overlapping map and reduce work instead of phase barriers.
// Config.MemoryBudget picks where a run's bytes live (memory, or a spill
// file once the budget makes tasks flush early) and nothing else; see
// spill.go for the run format and the two backings. Both LASH jobs run on
// it: the f-list count (group = item, empty key) and partition+mine
// (group = pivot, key = encoded rewritten sequence).
//
// Error contract: a panic inside any user-supplied task function (Map,
// Reduce, Size, Hash) is recovered, annotated with the job name,
// phase, and task index, and returned as an error — one misbehaving job must
// not take down the process hosting the substrate (lashd runs many). The
// first task error cancels the run: unstarted tasks are skipped and the
// partial output is discarded.
//
// Fault tolerance: Config.Retry re-executes failed tasks when the failure
// classifies as transient (I/O errors, injected faults, errors marked
// ErrTransient — see IsTransient) with capped exponential backoff. A
// retried task's partial output is attempt-scoped and discarded — its runs
// are dropped and its tables rebuilt — so a retried run's output is
// byte-identical to a fault-free run's. Recovered panics and corrupt runs
// are deterministic and never retried. Map and Reduce are retryable by
// contract: a job's one output is RunAgg's return value, made of committed
// attempts only. Config.Faults wires in a fault-injection registry
// (internal/faults) for chaos testing.
//
// Cancellation contract: RunAgg takes a context.Context and observes it
// cooperatively — between tasks, between reduce groups, and at every emit
// point inside a task — so even a single long-running map or reduce task
// is interrupted promptly. A cancelled run drains its worker pool, discards
// the partial output, and returns ctx.Err() wrapped with the job name and
// phase (the cancellation cause, if one was set via
// context.WithCancelCause, is also in the chain and matchable with
// errors.Is).
package mapreduce

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lash/internal/faults"
	"lash/internal/obs"
)

// Config controls a job run.
type Config struct {
	Workers     int // real goroutines (default NumCPU)
	MapTasks    int // input splits (default 4×Workers)
	ReduceTasks int // key-space partitions (default 4×Workers)

	// MemoryBudget, when positive, bounds the memory the shuffle may hold,
	// in bytes, by moving its sorted runs to temp files: each map task gets
	// an equal share (MemoryBudget / Workers) for its aggregation tables
	// and flushes them as runs whenever it is exceeded, not only when the
	// task retires, and the reduce side merges each partition's runs back
	// through small read windows, so only one group at a time is
	// materialized. 0 keeps the runs in memory and never touches disk. The
	// shuffle is the same either way — only where a run's bytes live
	// differs — and so are the results. The budget covers the shuffle, not
	// the input slice or the reduce outputs, and within the shuffle the
	// aggregation tables, not the scratch of a flush: while a worker writes
	// one table out it also holds that table's sort records (at most 24
	// bytes per entry, pooled across flushes) and its encoded run.
	MemoryBudget int64

	// SpillDir is the base directory for spill temp files (default
	// os.TempDir()). Each run creates a private subdirectory and removes it
	// when the run returns — on success, error, and cancellation alike.
	SpillDir string

	// Progress, when non-nil, receives progress snapshots as the run
	// advances: after every retired map task, after every completed reduce
	// task (partition), and once with phase "done" when the run returns,
	// successfully or not. It is invoked concurrently from worker
	// goroutines and must be fast and safe for concurrent use. Snapshots
	// are derived reads of the run's live counters (obs.RunCounters) — the
	// same source the final Stats are drawn from.
	Progress func(Progress)

	// Obs, when non-nil, attaches observability to the run: span tracing
	// (job, phase, and per-task spans) and/or process-wide pipeline
	// metrics — see internal/obs. A nil Obs, or nil fields inside it,
	// records nothing; every handle is nil-receiver safe, so the task
	// bodies need no "is observability on?" branches.
	Obs *obs.Run

	// Retry re-executes failed map and reduce tasks whose failure
	// classifies as transient (see IsTransient). The zero policy disables
	// retries.
	Retry RetryPolicy

	// Faults, when non-nil, arms the substrate's fault-injection points
	// (internal/faults) for chaos testing: mapreduce.map.task,
	// mapreduce.reduce.task, mapreduce.spill.write, mapreduce.spill.merge.
	// nil (the production default) costs one branch per point.
	Faults *faults.Registry
}

// Progress is a point-in-time snapshot of a running job, delivered to
// Config.Progress. Counts are cumulative; map, shuffle, and reduce overlap,
// so reduce counters can advance while map tasks are still retiring.
type Progress struct {
	Job             string
	Phase           string // "map", "reduce", or "done"
	MapTasksDone    int
	MapTasks        int
	ReduceTasksDone int
	ReduceTasks     int
	ShuffleRecords  int64 // aggregated records shuffled so far
	ShuffleBytes    int64 // encoded bytes shuffled so far (MAP_OUTPUT_BYTES)
	SpillRuns       int64 // sorted runs written to spill files so far (budgeted runs)
	SpillBytes      int64 // physical spill bytes written so far
	TaskRetries     int64 // task re-executions after transient failures
	FaultsInjected  int64 // synthetic faults injected so far (chaos runs)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.MapTasks <= 0 {
		c.MapTasks = 4 * c.Workers
	}
	if c.ReduceTasks <= 0 {
		c.ReduceTasks = 4 * c.Workers
	}
	return c
}

// Counters are Hadoop-style job counters. MapOutputRecords counts aggregated
// (group, key) entries — each distinct entry in a map task's table is one
// shuffled record, mirroring what a Hadoop combiner would actually ship —
// and ReduceInputKeys counts the groups handed to Reduce.
type Counters struct {
	MapInputRecords     int64
	MapOutputRecords    int64 // after aggregation, i.e. records shuffled
	MapOutputBytes      int64 // encoded size of shuffled records (MAP_OUTPUT_BYTES)
	ReduceInputKeys     int64
	ReduceOutputRecords int64

	// Spill counters (physical I/O — zero unless Config.MemoryBudget put
	// the shuffle's runs on disk): sorted runs written, bytes written to
	// spill files, and aggregated entries spilled. An entry aggregated in
	// several runs counts once per run — the re-aggregation happens in the
	// reduce-side merge.
	SpillRuns    int64
	SpillBytes   int64
	SpillRecords int64

	// Fault-tolerance counters: task re-executions after transient
	// failures (Config.Retry) and synthetic faults injected through
	// Config.Faults. Both zero on healthy, un-instrumented runs.
	TaskRetries    int64
	FaultsInjected int64
}

// PhaseTimes breaks a job into the phases the paper reports. The phases
// overlap, so the wall times are cumulative watermarks: Map is the time
// until the last map task had mapped its split and sorted and encoded its
// runs, Shuffle the additional time until the last task had retired (every
// partition holds all its runs; next to nothing in-process, where handing a
// run over is an append), and Reduce the remaining tail until the last
// Reduce returned — the k-way merges happen there, at the head of each
// partition's reduce. Their sum is still the true job wall time.
type PhaseTimes struct {
	Map     time.Duration
	Shuffle time.Duration
	Reduce  time.Duration
}

// Total sums the phases.
func (p PhaseTimes) Total() time.Duration { return p.Map + p.Shuffle + p.Reduce }

// Stats reports everything measured about one job run. A task's counted work
// (a map task's input records; a reduce partition's merged entries, for the
// mine job its partition sequences) depends only on the input and task counts.
type Stats struct {
	Wall PhaseTimes // actually elapsed on this host, on Workers goroutines
	Counters
	Workers           int
	MapTaskRecords    []int64
	ReduceTaskEntries []int64
}

// errOnce records the first task error of a run and flips a cancellation
// flag that unstarted tasks observe. External cancellation (a done context)
// flips the flag without recording an error; the run's exit path translates
// the context state into the returned error.
type errOnce struct {
	canceled atomic.Bool
	mu       sync.Mutex
	err      error
}

func (e *errOnce) set(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
	e.canceled.Store(true)
}

func (e *errOnce) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// taskAborted is the panic sentinel used to unwind a user task from inside
// an emit callback once the run has been cancelled. guard recognizes it and
// retires the task silently — the run's error comes from the first real
// task error or from the cancelled context, never from the unwinding.
type taskAborted struct{}

// checkAbort panics with the abort sentinel when the run has been
// cancelled. Emit closures call it so that even a single long-running map
// or reduce task observes cancellation at its next emit.
func checkAbort(errs *errOnce) {
	if errs.canceled.Load() {
		panic(taskAborted{})
	}
}

// watchContext flips the run's cancellation flag when ctx is done and
// returns a stop function for the watcher.
func watchContext(ctx context.Context, errs *errOnce) func() bool {
	return context.AfterFunc(ctx, func() { errs.canceled.Store(true) })
}

// wrapCtxErr annotates a context cancellation with the job and phase it
// interrupted. The returned error matches ctx.Err() under errors.Is, and
// also the cancellation cause when one was set via context.WithCancelCause.
func wrapCtxErr(ctx context.Context, jobName, phase string) error {
	err := ctx.Err()
	if cause := context.Cause(ctx); cause != nil && cause != err {
		return fmt.Errorf("mapreduce: job %q: %s: %w: %w", jobName, phase, err, cause)
	}
	return fmt.Errorf("mapreduce: job %q: %s: %w", jobName, phase, err)
}

// runErr resolves a run's exit error: the first recorded task error wins;
// otherwise a done context is translated into a wrapped ctx.Err().
func runErr(ctx context.Context, errs *errOnce, jobName, phase string) error {
	if err := errs.get(); err != nil {
		return err
	}
	if ctx.Err() != nil {
		return wrapCtxErr(ctx, jobName, phase)
	}
	return nil
}

// HashBytes is an FNV-1a partitioner for byte keys.
func HashBytes(b []byte) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(b); i++ {
		h ^= uint32(b[i])
		h *= 16777619
	}
	return h
}

// HashUint32 is a Fibonacci-style partitioner for integer keys.
func HashUint32(x uint32) uint32 {
	return x * 2654435761
}
