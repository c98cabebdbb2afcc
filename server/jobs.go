package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"time"

	"lash"
	"lash/internal/faults"
)

// JobStatus is a job's lifecycle state.
type JobStatus string

const (
	// JobQueued means the job is waiting for a worker slot.
	JobQueued JobStatus = "queued"
	// JobRunning means a worker is mining.
	JobRunning JobStatus = "running"
	// JobDone means the result is available.
	JobDone JobStatus = "done"
	// JobFailed means mining returned an error.
	JobFailed JobStatus = "failed"
	// JobCancelled means the job was cancelled via DELETE /v1/jobs/{id}
	// (or server shutdown) before it produced a result. Cancellation
	// applies to every submitter coalesced onto the job.
	JobCancelled JobStatus = "cancelled"
)

// JobStats is a snapshot of the job manager counters, as reported by
// GET /v1/stats. Every field is read from the same metric registry that
// backs GET /metrics, so the two endpoints cannot drift apart.
type JobStats struct {
	// Submitted counts every mine request accepted, including the ones
	// answered from cache or coalesced onto a running job.
	Submitted uint64 `json:"submitted"`
	// Coalesced counts requests attached to an identical in-flight job
	// instead of starting their own (singleflight).
	Coalesced uint64 `json:"coalesced"`
	// MinesRun counts actual executions of the mining function — the work
	// the cache and coalescing avoided is Submitted - MinesRun.
	MinesRun  uint64 `json:"mines_run"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	// Cancelled counts jobs cancelled via DELETE /v1/jobs/{id} or server
	// shutdown before completing.
	Cancelled uint64 `json:"cancelled"`
	// Streams counts streaming runs (POST /v1/mine/stream and subscribe
	// feeders); they are jobs too, so they also count into Submitted, into
	// MinesRun when mining actually starts, and into one terminal counter.
	Streams uint64 `json:"streams"`
	// QueueTimeMS and RunTimeMS split what used to be reported as one
	// mine_time_ms field: cumulative milliseconds finished runs spent
	// waiting for a worker slot (QueueTimeMS) versus actually mining
	// (RunTimeMS). Clients that summed mine_time_ms should read run_time_ms.
	QueueTimeMS int64 `json:"queue_time_ms"`
	RunTimeMS   int64 `json:"run_time_ms"`
	// SpilledRuns and SpilledBytes accumulate the shuffle spilling of every
	// completed run (jobs and streams) whose memory_budget forced it to
	// disk — how much external-memory work this server has absorbed.
	SpilledRuns  uint64 `json:"spilled_runs"`
	SpilledBytes uint64 `json:"spilled_bytes"`
	Queued       int    `json:"queued"`
	Running      int    `json:"running"`
}

// job is one mining run. Fields past `cancelCause` are guarded by the owning
// manager's mutex; done is closed exactly once when the job reaches a
// terminal status. Server shutdown cancels every job's ctx, and DELETE
// /v1/jobs/{id} cancels one.
type job struct {
	id      string
	key     string
	dbName  string
	version int // corpus version the job mines (immutable snapshot)
	// stream marks a streaming run (POST /v1/mine/stream or a subscribe
	// feeder): it delivers its patterns as it mines instead of leaving a
	// result, so it bypasses the cache, singleflight and resume.
	stream      bool
	options     lash.Options
	done        chan struct{}
	ctx         context.Context
	cancelCause context.CancelCauseFunc

	status    JobStatus
	cached    bool // result came from the cache, no mining ran
	coalesced int  // extra submits answered by this job
	err       error
	created   time.Time
	started   time.Time
	finished  time.Time
}

// MineFunc runs one blocking mining run under a context: a batch run
// (lash.MineContext's contract) when emit is nil, a streaming run delivering
// its patterns through emit (lash.Stream's contract) otherwise.
type MineFunc func(ctx context.Context, db *lash.Database, opt lash.Options, emit func(lash.Pattern) error) (*lash.Result, error)

// mine is the default MineFunc.
func mine(ctx context.Context, db *lash.Database, opt lash.Options, emit func(lash.Pattern) error) (*lash.Result, error) {
	if emit == nil {
		return lash.MineContext(ctx, db, opt)
	}
	return lash.Stream(ctx, db, opt, emit)
}

// manager runs mining jobs on a bounded worker pool. Identical in-flight
// requests (same database, same canonical options) coalesce onto one job,
// and finished results go to the result cache, so repeats skip mining.
type manager struct {
	mineFn  MineFunc
	cache   *resultCache
	met     *serverMetrics // all manager counters live here, never locally
	log     *slog.Logger
	sem     chan struct{} // worker slots
	wg      sync.WaitGroup
	baseCtx context.Context
	cancel  context.CancelCauseFunc

	// Robustness knobs, set once by New before the manager serves anything.
	// maxQueue bounds the backlog of runs waiting for a worker slot (0 =
	// unbounded): jobs, streams and subscribe feeders that would queue past
	// it are refused with errOverloaded. maxJobTime
	// caps every run's Options.Deadline (0 = uncapped): a request may set a
	// tighter deadline, never a looser one. faults arms the run-level
	// injection points of every mine (nil in production).
	maxQueue   int
	maxJobTime time.Duration
	faults     *faults.Registry

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*job
	order    []string           // submission order, for stable listings
	inflight map[string]*job    // key → queued/running job (singleflight)
	hubs     map[string]*subHub // job id → live subscription hub (see subscribe.go)
	maxJobs  int                // retained job records; older terminal jobs are pruned
	nextID   uint64
}

var (
	errBadSpec      = errors.New("bad request")
	errConflict     = errors.New("conflict")
	errShutdown     = errors.New("server is shutting down")
	errJobMissing   = errors.New("no such job")
	errDBMissing    = errors.New("no such database")
	errJobCancelled = errors.New("job cancelled")
	// errOverloaded maps to 429 + Retry-After: the request was well-formed
	// but the server refuses it for now (queue bound or rate limit).
	errOverloaded = errors.New("server overloaded")
)

func newManager(workers int, cacheBytes int64, maxJobs int, mineFn MineFunc, met *serverMetrics, logger *slog.Logger) *manager {
	if workers < 1 {
		workers = 1
	}
	//lashvet:ignore ctxfirst job lifetimes are server-scoped by design: the manager root context outlives any request, and Close cancels it with the shutdown cause
	ctx, cancel := context.WithCancelCause(context.Background())
	return &manager{
		mineFn:   mineFn,
		cache:    newResultCache(cacheBytes, met.cacheHits, met.cacheMisses, met.cacheEvictions),
		met:      met,
		log:      logger,
		sem:      make(chan struct{}, workers),
		baseCtx:  ctx,
		cancel:   cancel,
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		hubs:     make(map[string]*subHub),
		maxJobs:  maxJobs,
	}
}

// jobKey identifies equivalent mining requests: same database, same corpus
// version, same canonical options. The version is part of the identity —
// results mined against an old snapshot stay cached and servable after an
// append, and a request against the new version is never answered from a
// stale entry. It is also how a finished job's record finds its result.
func jobKey(dbName string, version int, opt lash.Options) string {
	return dbName + "@v" + fmt.Sprint(version) + "|" + opt.CacheKey()
}

// applyPolicies caps opt's deadline at the server-wide bound and arms the
// configured fault registry. Neither affects the job key — Canonical zeroes
// both — so caching and coalescing keep working across them.
func (m *manager) applyPolicies(opt lash.Options) lash.Options {
	if m.maxJobTime > 0 && (opt.Deadline <= 0 || opt.Deadline > m.maxJobTime) {
		opt.Deadline = m.maxJobTime
	}
	if opt.Faults == nil {
		opt.Faults = m.faults
	}
	return opt
}

// submit registers a mining request and returns the job that answers it.
// Three paths, checked in order: a cached result yields an already-done job
// without mining; an identical in-flight job absorbs the request
// (singleflight); otherwise a fresh job passes admission and is queued on
// the worker pool.
func (m *manager) submit(ctx context.Context, dbName string, db *lash.Database, opt lash.Options) (*job, error) {
	version := db.Version()
	key := jobKey(dbName, version, opt)
	reqID := requestIDFrom(ctx)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed { // a draining server refuses even what it could answer
		return nil, errShutdown
	}

	if _, ok := m.cache.get(key); ok {
		j := m.newJobLocked(m.baseCtx, key, dbName, version, opt)
		j.status = JobDone
		j.cached = true
		j.started = j.created
		j.finished = j.created
		j.cancelCause(nil) // no run to cancel; release the context now
		close(j.done)
		m.met.jobsSubmitted.Inc()
		m.met.jobsCompleted.Inc()
		m.log.Info("job answered from cache", "job_id", j.id, "request_id", reqID, "database", dbName)
		return j, nil
	}

	if running, ok := m.inflight[key]; ok {
		running.coalesced++
		m.met.jobsSubmitted.Inc()
		m.met.jobsCoalesced.Inc()
		m.log.Info("job coalesced", "job_id", running.id, "request_id", reqID, "database", dbName)
		return running, nil
	}

	// Only now would a fresh job join the queue. Cache hits and coalesced
	// submits are always admitted above — they cost no queue slot — so
	// saturation never degrades already-answerable requests.
	j, err := m.admitLocked(m.baseCtx, reqID, key, dbName, version, opt, false)
	if err != nil {
		return nil, err
	}
	// Resume from the newest retained state that is valid for this snapshot,
	// so an append re-mines only the partitions it dirties. Resume does not
	// affect the job key or the cached result — Canonical zeroes it, and a
	// delta run is differentially identical to a cold one.
	j.options.Resume = m.cache.resume(dbName, db, opt)
	m.inflight[key] = j
	go m.run(j, db, nil)
	return j, nil
}

// admitLocked is the one admission step of every fresh run — batch job,
// stream, or subscribe feeder: a draining manager refuses it with
// errShutdown and a full queue with errOverloaded (429) instead of letting
// the backlog grow unbounded; otherwise the run gets its record, queued and
// counted, with the server's policies applied to its options. parent is the
// context the run dies with. The caller holds m.mu and must hand the job to
// run, which releases the wait-group count taken here.
func (m *manager) admitLocked(parent context.Context, reqID, key, dbName string, version int, opt lash.Options, stream bool) (*job, error) {
	if m.closed {
		return nil, errShutdown
	}
	if m.maxQueue > 0 {
		if queued := int(m.met.jobsQueued.Value()); queued >= m.maxQueue {
			return nil, fmt.Errorf("%w: %d jobs queued (bound %d)", errOverloaded, queued, m.maxQueue)
		}
	}
	j := m.newJobLocked(parent, key, dbName, version, m.applyPolicies(opt))
	j.stream = stream
	j.status = JobQueued
	m.met.jobsSubmitted.Inc()
	m.met.jobsQueued.Inc()
	if stream {
		m.met.streams.Inc()
	}
	m.wg.Add(1)
	m.log.Info("job queued", "job_id", j.id, "request_id", reqID, "database", dbName, "stream", stream)
	return j, nil
}

// newJobLocked allocates and registers a job record, pruning the oldest
// terminal records past the retention bound. The job's context derives from
// parent. Caller holds m.mu.
func (m *manager) newJobLocked(parent context.Context, key, dbName string, version int, opt lash.Options) *job {
	m.nextID++
	j := &job{
		id:      fmt.Sprintf("job-%d", m.nextID),
		key:     key,
		dbName:  dbName,
		version: version,
		options: opt,
		done:    make(chan struct{}),
		created: time.Now().UTC(),
	}
	j.ctx, j.cancelCause = context.WithCancelCause(parent)
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	if m.maxJobs > 0 && len(m.order) > m.maxJobs {
		// Drop oldest terminal records first by class: cache-hit
		// pseudo-jobs (their results remain in the cache) before real
		// mined jobs, so a flood of cached requests cannot evict a job a
		// client is still polling. Queued/running jobs are skipped, not
		// stopped at — a single slow job must not let the history grow
		// unbounded behind it.
		excess := len(m.order) - m.maxJobs
		for _, wantCached := range []bool{true, false} {
			if excess == 0 {
				break
			}
			kept := m.order[:0]
			for _, id := range m.order {
				old := m.jobs[id]
				terminal := old.status == JobDone || old.status == JobFailed || old.status == JobCancelled
				if excess > 0 && terminal && old.cached == wantCached {
					delete(m.jobs, id)
					excess--
					continue
				}
				kept = append(kept, id)
			}
			m.order = kept
		}
	}
	return j
}

// run executes one job on a worker slot — the only place one is acquired —
// and returns what finish was told. The job's context covers both the wait
// for the slot and the mining itself. Batch jobs run on their own goroutine
// with a nil emit; a stream runs on its caller's, which passes the emit it
// delivers through (it is never stored).
func (m *manager) run(j *job, db *lash.Database, emit func(lash.Pattern) error) (*lash.Result, error) {
	defer m.wg.Done()
	defer j.cancelCause(nil) // release the context's resources

	select {
	case m.sem <- struct{}{}:
	case <-j.ctx.Done():
		err := causeOf(j.ctx)
		m.finish(j, nil, err)
		return nil, err
	}
	defer func() { <-m.sem }()

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.finish(j, nil, errShutdown)
		return nil, errShutdown
	}
	j.status = JobRunning
	j.started = time.Now().UTC()
	// The run feeds the server-wide pipeline families (per-phase duration
	// histograms, spill counters, ...) scraped on GET /metrics. The job key
	// is unaffected: Canonical() zeroes Metrics.
	j.options.Metrics = m.met.pm
	m.met.jobsQueued.Dec()
	m.met.jobsRunning.Inc()
	m.met.minesRun.Inc()
	m.met.queueSeconds.Observe(j.started.Sub(j.created).Seconds())
	m.mu.Unlock()
	m.log.Info("job running", "job_id", j.id, "database", j.dbName,
		"queued_ms", j.started.Sub(j.created).Milliseconds())

	res, err := safeMine(func() (*lash.Result, error) {
		return m.mineFn(j.ctx, db, j.options, emit)
	})
	m.finish(j, res, err)
	return res, err
}

// causeOf resolves a done context into its most specific error: the
// cancellation cause if one was set (errJobCancelled for DELETE,
// errShutdown when the manager's base context died), otherwise the plain
// context error (e.g. a streaming client disconnecting).
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
// outcome is decided and counted — hands a batch job's result to the cache,
// and wakes all waiters, including every request that coalesced onto the
// job. A run that ended because the job's context was cancelled — by
// DELETE /v1/jobs/{id}, by server shutdown, or by a stream's client going
// away — lands in JobCancelled, not JobFailed.
func (m *manager) finish(j *job, res *lash.Result, err error) {
	mined := err == nil && !j.stream // a stream delivered as it mined; nothing to keep or serve
	if mined {
		// Before the job leaves its singleflight slot, so a resubmission is
		// coalesced or a hit, never a re-mine; ahead of the lock, because
		// charging a result walks every pattern.
		m.cache.add(j, res)
	}
	m.mu.Lock()
	j.finished = time.Now().UTC()
	j.options.Resume = nil // the run is over; only the cache retains states
	// Settle the state gauges from the status being left behind, and time
	// the interval the job just completed: its run when it held a worker,
	// or its whole queued life when it never got one.
	switch j.status {
	case JobQueued:
		m.met.jobsQueued.Dec()
		m.met.queueSeconds.Observe(j.finished.Sub(j.created).Seconds())
	case JobRunning:
		m.met.jobsRunning.Dec()
	}
	if !j.started.IsZero() {
		m.met.runSeconds.Observe(j.finished.Sub(j.started).Seconds())
	}
	switch {
	case err == nil:
		j.status = JobDone
		m.met.jobsCompleted.Inc()
		m.met.spilledRuns.Add(res.Stats.SpillRuns)
		m.met.spilledBytes.Add(res.Stats.SpillBytes)
		if !mined {
			break
		}
		m.met.deltaDirty.Add(res.Stats.DeltaPartitionsDirty)
		m.met.deltaReused.Add(res.Stats.DeltaPartitionsReused)
		// The serving index is built off both the worker goroutine and this
		// lock. The wg.Add is safe against close(): the caller still holds
		// its own wg count.
		m.wg.Add(1)
		go m.buildIndex(j.key, res)
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
	if !j.stream { // a stream never took the singleflight slot of its key
		delete(m.inflight, j.key)
	}
	close(j.done)
	status, jerr := j.status, j.err
	m.mu.Unlock()
	if jerr != nil {
		m.log.Info("job finished", "job_id", j.id, "database", j.dbName,
			"status", string(status), "error", jerr.Error())
		return
	}
	m.log.Info("job finished", "job_id", j.id, "database", j.dbName,
		"status", string(status), "run_ms", j.finished.Sub(j.started).Milliseconds())
}

// buildIndex builds a finished result's serving index off the worker
// goroutine, records the build cost, and adds the index's exact size to the
// result's cache charge. Result.Index is memoized, so the pattern endpoints
// share the one index built here; a request that races ahead of this
// goroutine simply builds it first and this call returns the memoized copy
// instantly.
func (m *manager) buildIndex(key string, res *lash.Result) {
	defer m.wg.Done()
	begin := time.Now()
	ix := res.Index()
	m.met.pindexBuildSeconds.Observe(time.Since(begin).Seconds())
	m.met.pindexBytes.Add(ix.SizeBytes())
	m.cache.recost(key, ix.SizeBytes())
}

// wasCancelled reports whether a run's error means its context was
// cancelled rather than mining failing on its own: the cancel sentinels in
// the error chain directly, or a context.Canceled whose job context was
// cancelled by DELETE or shutdown. (A MineFunc may surface either the
// plain ctx error or the substrate's cause-carrying wrap.) A stream's
// context also dies with its request, and there any error counts: a
// disconnect can surface as the NDJSON write error, because the emit error
// takes precedence over the context error in lash.Stream.
func wasCancelled(j *job, err error) bool {
	if errors.Is(err, errJobCancelled) || errors.Is(err, errShutdown) {
		return true
	}
	if j.stream {
		return j.ctx.Err() != nil
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

// stream runs one streaming mining request as a job on the caller's
// goroutine: admitted, listed, cancellable and counted like any other, it
// waits for a worker slot and mines under the request's context — a client
// that goes away cancels it, as does closing the manager — delivering its
// patterns through emit.
func (m *manager) stream(ctx context.Context, dbName string, db *lash.Database, opt lash.Options, emit func(lash.Pattern) error) (*lash.Result, error) {
	m.mu.Lock()
	j, err := m.admitLocked(ctx, requestIDFrom(ctx), jobKey(dbName, db.Version(), opt), dbName, db.Version(), opt, true)
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	stop := context.AfterFunc(m.baseCtx, func() { j.cancelCause(errShutdown) })
	defer stop()
	return m.run(j, db, emit)
}

// get returns the job with the given id.
func (m *manager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// list returns all job ids in submission order.
func (m *manager) list() []*job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// stats snapshots the manager counters straight from the metric registry —
// the same handles GET /metrics scrapes — so the JSON stats cannot drift
// from the Prometheus ones (job records being pruned from the history has
// no effect on either).
func (m *manager) stats() JobStats {
	return JobStats{
		Submitted:    uint64(m.met.jobsSubmitted.Value()),
		Coalesced:    uint64(m.met.jobsCoalesced.Value()),
		MinesRun:     uint64(m.met.minesRun.Value()),
		Completed:    uint64(m.met.jobsCompleted.Value()),
		Failed:       uint64(m.met.jobsFailed.Value()),
		Cancelled:    uint64(m.met.jobsCancelled.Value()),
		Streams:      uint64(m.met.streams.Value()),
		QueueTimeMS:  int64(m.met.queueSeconds.Sum() * 1000),
		RunTimeMS:    int64(m.met.runSeconds.Sum() * 1000),
		SpilledRuns:  uint64(m.met.spilledRuns.Value()),
		SpilledBytes: uint64(m.met.spilledBytes.Value()),
		Queued:       int(m.met.jobsQueued.Value()),
		Running:      int(m.met.jobsRunning.Value()),
	}
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
