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
	// Streams counts streaming mining runs (POST /v1/mine/stream); they
	// also count into MinesRun when mining actually starts.
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

// job is one asynchronous mining run. Fields past `cancelCause` are guarded
// by the owning manager's mutex; done is closed exactly once when the job
// reaches a terminal status. ctx is derived from the manager's base context
// at submission, so server shutdown cancels every job, and DELETE
// /v1/jobs/{id} cancels one.
type job struct {
	id          string
	key         string
	dbName      string
	version     int // corpus version the job mines (immutable snapshot)
	options     lash.Options
	done        chan struct{}
	ctx         context.Context
	cancelCause context.CancelCauseFunc

	status    JobStatus
	cached    bool // result came from the cache, no mining ran
	coalesced int  // extra submits answered by this job
	result    *lash.Result
	err       error
	created   time.Time
	started   time.Time
	finished  time.Time
}

// MineFunc runs one blocking mining job under a context.
type MineFunc func(context.Context, *lash.Database, lash.Options) (*lash.Result, error)

// StreamFunc runs one streaming mining job under a context, delivering
// patterns through emit (lash.Stream's contract).
type StreamFunc func(ctx context.Context, db *lash.Database, opt lash.Options, emit func(lash.Pattern) error) (*lash.Result, error)

// manager runs mining jobs on a bounded worker pool. Identical in-flight
// requests (same database, same canonical options) coalesce onto one job,
// and finished results land in an LRU cache so repeats skip mining
// entirely.
type manager struct {
	mineFn   MineFunc
	streamFn StreamFunc
	cache    *resultCache
	met      *serverMetrics // all manager counters live here, never locally
	log      *slog.Logger
	sem      chan struct{} // worker slots
	wg       sync.WaitGroup
	baseCtx  context.Context
	cancel   context.CancelCauseFunc

	// Robustness knobs, set once by New before the manager serves anything.
	// maxQueue bounds the fresh-job backlog (0 = unbounded): submissions
	// that would queue past it are refused with errOverloaded. maxJobTime
	// caps every run's Options.Deadline (0 = uncapped): a request may set a
	// tighter deadline, never a looser one. faults arms the run-level
	// injection points of every mine (nil in production).
	maxQueue   int
	maxJobTime time.Duration
	faults     *faults.Registry

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*job
	order    []string                // submission order, for stable listings
	inflight map[string]*job         // key → queued/running job (singleflight)
	latest   map[string]map[int]*job // database → corpus version → most recent successful job
	hubs     map[string]*subHub      // job id → live subscription hub (see subscribe.go)
	maxJobs  int                     // retained job records; older terminal jobs are pruned
	nextID   uint64

	// states holds the Result.State of the most recent successful run per
	// (database, canonical options), keyed without the corpus version: an
	// append bumps the version but the old state is exactly what the next
	// run wants to resume from. stateOrder bounds the store FIFO-by-first-
	// insert — states are a pure optimization, so evicting one only costs a
	// future run its delta splice.
	states     map[string]*lash.MineState
	stateOrder []string
}

// maxMineStates bounds the resume-state store. Each state holds the f-list
// counts and per-partition fingerprints plus the partition outputs of one
// run — useful, but strictly droppable.
const maxMineStates = 256

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

func newManager(workers int, cacheBytes int64, maxJobs int, mineFn MineFunc, streamFn StreamFunc, met *serverMetrics, logger *slog.Logger) *manager {
	if workers < 1 {
		workers = 1
	}
	//lashvet:ignore ctxfirst job lifetimes are server-scoped by design: the manager root context outlives any request, and Close cancels it with the shutdown cause
	ctx, cancel := context.WithCancelCause(context.Background())
	cache := newResultCache(cacheBytes)
	cache.instrument(met.cacheHits, met.cacheMisses, met.cacheEvictions)
	return &manager{
		mineFn:   mineFn,
		streamFn: streamFn,
		cache:    cache,
		met:      met,
		log:      logger,
		sem:      make(chan struct{}, workers),
		baseCtx:  ctx,
		cancel:   cancel,
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		latest:   make(map[string]map[int]*job),
		hubs:     make(map[string]*subHub),
		states:   make(map[string]*lash.MineState),
		maxJobs:  maxJobs,
	}
}

// jobKey identifies equivalent mining requests: same database, same corpus
// version, same canonical options. The version is part of the identity —
// results mined against an old snapshot stay cached and servable after an
// append, and a request against the new version is never answered from a
// stale entry.
func jobKey(dbName string, version int, opt lash.Options) string {
	return dbName + "@v" + fmt.Sprint(version) + "|" + opt.CacheKey()
}

// stateKey identifies resume states: database + canonical options, without
// the version — the state from version N is the input for delta-mining
// version N+1.
func stateKey(dbName string, opt lash.Options) string {
	return dbName + "|" + opt.CacheKey()
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
// (singleflight); otherwise a fresh job is queued on the worker pool —
// unless the queue is at its admission bound, which refuses the request
// with errOverloaded (429) instead of letting the backlog grow unbounded.
func (m *manager) submit(ctx context.Context, dbName string, db *lash.Database, opt lash.Options) (*job, error) {
	opt = m.applyPolicies(opt)
	version := db.Version()
	key := jobKey(dbName, version, opt)
	reqID := requestIDFrom(ctx)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errShutdown
	}

	if res, ok := m.cache.get(key); ok {
		j := m.newJobLocked(key, dbName, version, opt)
		j.status = JobDone
		j.cached = true
		j.result = res
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

	// Admission control: only now would a fresh job join the queue. Cache
	// hits and coalesced submits are always admitted above — they cost no
	// queue slot — so saturation never degrades already-answerable requests.
	if m.maxQueue > 0 {
		if queued := int(m.met.jobsQueued.Value()); queued >= m.maxQueue {
			return nil, fmt.Errorf("%w: %d jobs queued (bound %d)", errOverloaded, queued, m.maxQueue)
		}
	}

	// Fresh job: resume from the previous version's state when one is valid
	// for this snapshot, so an append re-mines only the partitions it
	// dirties (finish stores every run's Result.State for the next one).
	// Resume does not affect the job key or the cached result — Canonical
	// zeroes it, and a delta run is differentially identical to a cold one.
	if s, ok := m.states[stateKey(dbName, opt)]; ok && s.ValidFor(db, opt) {
		opt.Resume = s
	}
	j := m.newJobLocked(key, dbName, version, opt)
	m.met.jobsSubmitted.Inc()
	j.status = JobQueued
	m.inflight[key] = j
	m.met.jobsQueued.Inc()
	m.log.Info("job queued", "job_id", j.id, "request_id", reqID, "database", dbName)
	m.wg.Add(1)
	go m.run(j, db)
	return j, nil
}

// newJobLocked allocates and registers a job record, pruning the oldest
// terminal records past the retention bound so a long-running server does
// not accumulate every result ever mined. Caller holds m.mu.
func (m *manager) newJobLocked(key, dbName string, version int, opt lash.Options) *job {
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
	j.ctx, j.cancelCause = context.WithCancelCause(m.baseCtx)
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

// run executes one job on a worker slot. The job's context — derived from
// the manager's base context and cancellable via DELETE /v1/jobs/{id} —
// covers both the wait for a slot and the mining itself.
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
		return m.mineFn(j.ctx, db, j.options)
	})
	m.finish(j, res, err)
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

// finish moves a job to its terminal status, publishes the result to the
// cache, and wakes all waiters — including every request that coalesced
// onto the job. A run that ended because the job's context was cancelled —
// by DELETE /v1/jobs/{id} or by server shutdown — lands in JobCancelled,
// not JobFailed.
func (m *manager) finish(j *job, res *lash.Result, err error) {
	m.mu.Lock()
	j.finished = time.Now().UTC()
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
		j.result = res
		m.met.jobsCompleted.Inc()
		m.met.spilledRuns.Add(res.Stats.SpillRuns)
		m.met.spilledBytes.Add(res.Stats.SpillBytes)
		// The result enters the cache immediately, charged at an estimate,
		// so an identical resubmission in the next instant is a hit rather
		// than a re-mine. The serving index is built asynchronously — off
		// both the worker goroutine and this lock — and the cache charge is
		// corrected to the exact size once it exists. The wg.Add is safe
		// against close(): the caller still holds its own wg count.
		m.cache.add(j.key, res)
		if m.latest[j.dbName] == nil {
			m.latest[j.dbName] = make(map[int]*job)
		}
		m.latest[j.dbName][j.version] = j
		m.met.deltaDirty.Add(res.Stats.DeltaPartitionsDirty)
		m.met.deltaReused.Add(res.Stats.DeltaPartitionsReused)
		if res.State != nil {
			m.storeStateLocked(stateKey(j.dbName, j.options), res.State)
		}
		m.wg.Add(1)
		go m.buildIndex(j.key, res)
	case wasCancelled(j.ctx, err):
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
		m.log.Info("job finished", "job_id", j.id, "database", j.dbName,
			"status", string(status), "error", jerr.Error())
		return
	}
	m.log.Info("job finished", "job_id", j.id, "database", j.dbName,
		"status", string(status), "run_ms", j.finished.Sub(j.started).Milliseconds())
}

// buildIndex builds a finished result's serving index off the worker
// goroutine, records the build cost, and corrects the cache's byte charge
// for the entry to estimate + exact index size. Result.Index is memoized,
// so the pattern endpoints share the one index built here; a request that
// races ahead of this goroutine simply builds it first and this call
// returns the memoized copy instantly.
func (m *manager) buildIndex(key string, res *lash.Result) {
	defer m.wg.Done()
	begin := time.Now()
	ix := res.Index()
	m.met.pindexBuildSeconds.Observe(time.Since(begin).Seconds())
	m.met.pindexBytes.Add(ix.SizeBytes())
	m.cache.recost(key, estimateResultBytes(res)+ix.SizeBytes())
}

// wasCancelled reports whether a run's error means its context was
// cancelled rather than mining failing on its own: the cancel sentinels in
// the error chain directly, or a context.Canceled whose job context was
// cancelled by DELETE or shutdown. (A MineFunc may surface either the
// plain ctx error or the substrate's cause-carrying wrap.)
func wasCancelled(ctx context.Context, err error) bool {
	if errors.Is(err, errJobCancelled) || errors.Is(err, errShutdown) {
		return true
	}
	if !errors.Is(err, context.Canceled) {
		return false
	}
	cause := context.Cause(ctx)
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

// stream runs one streaming mining request under the manager's worker
// bound. Streaming runs are not jobs: they bypass the cache and
// singleflight (their results are never materialized), but they hold a
// worker slot, count into the stats, and participate in shutdown draining
// — closing the manager cancels their context.
func (m *manager) stream(ctx context.Context, db *lash.Database, opt lash.Options, emit func(lash.Pattern) error) (*lash.Result, error) {
	opt = m.applyPolicies(opt)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errShutdown
	}
	m.met.jobsSubmitted.Inc()
	m.met.streams.Inc()
	m.wg.Add(1)
	m.mu.Unlock()
	defer m.wg.Done()
	reqID := requestIDFrom(ctx)
	m.log.Info("stream accepted", "request_id", reqID, "options", opt.CacheKey())

	sctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	stopWatch := context.AfterFunc(m.baseCtx, func() { cancel(errShutdown) })
	defer stopWatch()

	// A stream cancelled (client gone, shutdown) while it waits for a slot
	// never mines, but it ends like any other: the switch below counts it,
	// so submitted stays the sum of the terminal counters once idle.
	var (
		res *lash.Result
		err error
		ran time.Duration
	)
	wait := time.Now()
	select {
	case m.sem <- struct{}{}:
		defer func() { <-m.sem }()
	case <-sctx.Done():
		err = causeOf(sctx)
	}
	m.met.queueSeconds.Observe(time.Since(wait).Seconds())
	if err == nil {
		m.met.minesRun.Inc()
		// Feed the same process-wide pipeline families the async jobs feed.
		opt.Metrics = m.met.pm
		start := time.Now()
		res, err = safeMine(func() (*lash.Result, error) {
			return m.streamFn(sctx, db, opt, emit)
		})
		ran = time.Since(start)
		m.met.runSeconds.Observe(ran.Seconds())
	}
	if res != nil {
		m.met.spilledRuns.Add(res.Stats.SpillRuns)
		m.met.spilledBytes.Add(res.Stats.SpillBytes)
	}
	outcome := "done"
	switch {
	case err == nil:
		m.met.jobsCompleted.Inc()
	case errors.Is(err, context.Canceled) || errors.Is(err, errShutdown) || sctx.Err() != nil:
		// The client went away or the server is draining — the run was
		// cancelled, mining did not fail. The sctx check also catches a
		// disconnect surfacing as the NDJSON write error (the emit error
		// takes precedence over the context error in lash.Stream).
		m.met.jobsCancelled.Inc()
		outcome = "cancelled"
	default:
		m.met.jobsFailed.Inc()
		if errors.Is(err, lash.ErrDeadlineExceeded) {
			m.met.jobsDeadline.Inc()
		}
		outcome = "failed"
	}
	m.log.Info("stream finished", "request_id", reqID, "status", outcome,
		"run_ms", ran.Milliseconds())
	return res, err
}

// get returns the job with the given id.
func (m *manager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// storeStateLocked publishes a run's Result.State for future delta mines,
// evicting the store's oldest key once the bound is hit. Replacing the
// state under an existing key keeps its slot. Caller holds m.mu.
func (m *manager) storeStateLocked(key string, s *lash.MineState) {
	if _, ok := m.states[key]; !ok {
		if len(m.stateOrder) >= maxMineStates {
			oldest := m.stateOrder[0]
			m.stateOrder = m.stateOrder[1:]
			delete(m.states, oldest)
		}
		m.stateOrder = append(m.stateOrder, key)
	}
	m.states[key] = s
}

// latestResult returns the most recent successful job for a database at its
// highest mined corpus version — the default the pattern endpoints serve.
func (m *manager) latestResult(dbName string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var best *job
	for _, j := range m.latest[dbName] {
		if best == nil || j.version > best.version {
			best = j
		}
	}
	return best, best != nil
}

// latestResultAt returns the most recent successful job for a database at
// one specific corpus version.
func (m *manager) latestResultAt(dbName string, version int) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.latest[dbName][version]
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
