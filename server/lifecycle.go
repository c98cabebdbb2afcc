package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"lash"
	"lash/internal/obs"
)

// run executes one job on its own goroutine and a worker slot — the only
// place one is acquired — and hands the outcome to finish. The job's context
// covers both the wait for the slot and the mining itself.
func (m *manager) run(j *job, db *lash.Database) {
	defer m.wg.Done()
	defer j.cancelCause(nil) // release the context's resources

	select {
	case m.sem <- struct{}{}:
	case <-j.ctx.Done():
		m.finish(j, nil, causeOf(j.ctx))
		return
	}
	defer func() { <-m.sem }()

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.finish(j, nil, errShutdown)
		return
	}
	j.status = JobRunning
	j.started = time.Now().UTC()
	j.trace.Record(obs.SpanRecord{Name: "queue", Partition: -1, Start: j.created, Duration: j.started.Sub(j.created)}, m.met.queueSeconds)
	// The run feeds the server-wide pipeline families (per-phase duration
	// histograms, spill counters, ...) scraped on GET /metrics, and hangs
	// its span tree from the job's "mine" span, which finish records. The
	// job key is unaffected: Canonical() zeroes Metrics and Trace.
	j.options.Metrics = m.met.pm
	j.mineSpan = j.trace.Tracer.NextID()
	j.options.Trace = lash.NewTraceUnder(j.trace.Tracer, j.mineSpan)
	m.met.jobsQueued.Dec()
	m.met.jobsRunning.Inc()
	m.met.minesRun.Inc()
	m.mu.Unlock()
	m.log.Info("job running", "job_id", j.id, "database", j.dbName,
		"queued_ms", j.started.Sub(j.created).Milliseconds())

	res, err := safeMine(func() (*lash.Result, error) {
		return m.mineFn(j.ctx, db, j.options)
	})
	m.finish(j, res, err)
}

// causeOf resolves a done context into its most specific error: the
// cancellation cause if one was set (errJobCancelled for DELETE,
// errShutdown when the manager's base context died), otherwise the plain
// context error.
func causeOf(ctx context.Context) error {
	if cause := context.Cause(ctx); cause != nil && cause != ctx.Err() {
		return cause
	}
	return ctx.Err()
}

// safeMine invokes one mining closure, converting a panic into an error.
// The MapReduce substrate already recovers panics inside map/reduce tasks;
// this guards the rest of the mining path so a single bad request can fail
// its run without taking down the long-running server.
func safeMine(fn func() (*lash.Result, error)) (res *lash.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("server: mining panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return fn()
}

// finish moves a job to its terminal status — the only place a run's
// outcome is decided and counted — hands its result to the cache, and wakes
// all waiters, including every request that coalesced onto the job. A run
// that ended because the job's context was cancelled — by DELETE
// /v1/jobs/{id} or by server shutdown — lands in JobCancelled, not
// JobFailed.
func (m *manager) finish(j *job, res *lash.Result, err error) {
	if err == nil {
		// Before the job leaves its singleflight slot, so a resubmission is
		// coalesced or a hit, never a re-mine; ahead of the lock, because
		// charging the named list walks every pattern.
		m.cache.add(j, res)
	}
	m.mu.Lock()
	j.finished = time.Now().UTC()
	j.options.Resume = nil // the run is over; only the cache retains states
	// Settle the state gauges from the status being left behind, and record
	// the interval the job just completed: its run when it held a worker,
	// or its whole queued life when it never got one.
	switch j.status {
	case JobQueued:
		m.met.jobsQueued.Dec()
		j.trace.Record(obs.SpanRecord{Name: "queue", Partition: -1, Start: j.created, Duration: j.finished.Sub(j.created)}, m.met.queueSeconds)
	case JobRunning:
		m.met.jobsRunning.Dec()
		j.trace.Record(obs.SpanRecord{ID: j.mineSpan, Name: "mine", Partition: -1, Start: j.started, Duration: j.finished.Sub(j.started)}, m.met.runSeconds)
	}
	switch {
	case err == nil:
		j.status = JobDone
		m.met.jobsCompleted.Inc()
		m.met.deltaDirty.Add(res.Stats.DeltaPartitionsDirty)
		m.met.deltaReused.Add(res.Stats.DeltaPartitionsReused)
		m.met.deltaGrown.Add(res.Stats.DeltaPartitionsGrown)
		// The serving index is built off both the worker goroutine and this
		// lock. The wg.Add is safe against close(): the caller still holds
		// its own wg count.
		m.wg.Add(1)
		go m.buildIndex(j, res)
	case wasCancelled(j, err):
		j.status = JobCancelled
		j.err = err
		m.met.jobsCancelled.Inc()
	default:
		j.status = JobFailed
		j.err = err
		m.met.jobsFailed.Inc()
		// A deadline expiry is cancellation-shaped but counts as a failure:
		// the server (or the request's deadline_ms) decided the run was not
		// worth finishing, and operators alert on this separately.
		if errors.Is(err, lash.ErrDeadlineExceeded) {
			m.met.jobsDeadline.Inc()
		}
	}
	delete(m.inflight, j.key)
	close(j.done)
	status, jerr := j.status, j.err
	m.mu.Unlock()
	if jerr != nil {
		j.trace.Tracer.Trim() // its run was the last span
		m.log.Info("job finished", "job_id", j.id, "database", j.dbName,
			"status", string(status), "error", jerr.Error())
		return
	}
	m.log.Info("job finished", "job_id", j.id, "database", j.dbName,
		"status", string(status), "run_ms", j.finished.Sub(j.started).Milliseconds())
}

// buildIndex builds a finished job's serving index off the worker
// goroutine, then drops the result's named list: from here on the index
// renders every body of the result, and the list is garbage once the cache
// entry drops it too. It records the build in the job's trace and histogram
// — the trace's last span, so the trace is trimmed — and recosts the
// result's cache entry: the index's exact size and the trace's in, the
// named list out. Result.Index is memoized under a sync.Once, so the
// pattern endpoints share the one index built here; a request that races
// ahead of this goroutine builds it first and this call returns the
// memoized copy, and every build, the only reader of the list besides the
// cache entry's, is over before the list is dropped.
func (m *manager) buildIndex(j *job, res *lash.Result) {
	defer m.wg.Done()
	begin := time.Now()
	ix := res.Index()
	res.Patterns = nil
	j.trace.Record(obs.SpanRecord{Name: "index", Partition: -1, Start: begin, Duration: time.Since(begin)}, m.met.pindexBuildSeconds)
	m.met.pindexBytes.Add(ix.SizeBytes())
	m.cache.recost(j, ix.SizeBytes()+j.trace.Tracer.Trim())
}

// wasCancelled reports whether a run's error means its context was
// cancelled rather than mining failing on its own: the cancel sentinels in
// the error chain directly, or a context.Canceled whose job context was
// cancelled by DELETE or shutdown. (A MineFunc may surface either the
// plain ctx error or the substrate's cause-carrying wrap.)
func wasCancelled(j *job, err error) bool {
	if errors.Is(err, errJobCancelled) || errors.Is(err, errShutdown) {
		return true
	}
	if !errors.Is(err, context.Canceled) {
		return false
	}
	cause := context.Cause(j.ctx)
	return errors.Is(cause, errJobCancelled) || errors.Is(cause, errShutdown)
}

// cancelJob cancels the job with the given id. Queued and running jobs are
// cancelled (the run notices via its context and finishes as
// JobCancelled); cancelling an already-cancelled job is a no-op; any other
// terminal job is a conflict. Cancellation applies to every submitter
// coalesced onto the job — their shared done channel is closed exactly
// once by finish, and the singleflight slot frees so an identical resubmit
// starts a fresh run.
func (m *manager) cancelJob(id string) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", errJobMissing, id)
	}
	// Decide and cancel under the lock: finish() also takes it, so a job
	// observed queued/running here cannot turn done before the cancel
	// lands. (cancelCause never invokes finish synchronously — the job's
	// own goroutine observes the context and finishes — so this cannot
	// deadlock.)
	switch j.status {
	case JobCancelled:
		return j, nil // idempotent
	case JobDone, JobFailed:
		return j, fmt.Errorf("%w: job %s already %s", errConflict, id, j.status)
	}
	// Queued or running: cancel the job context; the goroutine that owns
	// the job observes it (in the slot wait or inside mining) and calls
	// finish. The status flip is therefore asynchronous — callers see
	// queued/running until the run actually unwinds. A run that had
	// already produced its result when the cancel landed may still finish
	// as done; poll until terminal either way.
	j.cancelCause(errJobCancelled)
	m.log.Info("job cancel requested", "job_id", j.id, "database", j.dbName, "status", string(j.status))
	return j, nil
}

// draining reports whether close has begun: from that moment every new
// submission is refused with errShutdown (503 + Retry-After) and /readyz
// answers 503, while in-flight runs finish under the drain timeout.
func (m *manager) draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// close stops accepting jobs and waits for in-flight ones to drain or ctx
// to expire, whichever comes first. Queued jobs that have not claimed a
// worker slot yet fail with errShutdown. Idempotent: repeated closes (and
// submissions racing them) all observe the same refused state.
func (m *manager) close(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cancel(errShutdown)

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown timed out with jobs still running: %w", ctx.Err())
	}
}
