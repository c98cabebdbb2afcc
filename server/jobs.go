package server

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"lash"
	"lash/internal/faults"
	"lash/internal/obs"
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
	// QueueTimeMS and RunTimeMS split what used to be reported as one
	// mine_time_ms field: cumulative milliseconds finished runs spent
	// waiting for a worker slot (QueueTimeMS) versus actually mining
	// (RunTimeMS). Clients that summed mine_time_ms should read run_time_ms.
	QueueTimeMS int64 `json:"queue_time_ms"`
	RunTimeMS   int64 `json:"run_time_ms"`
	// SpilledRuns and SpilledBytes accumulate the shuffle spilling of every
	// run (failed and cancelled ones included) whose
	// memory_budget forced it to disk — how much external-memory work this
	// server has absorbed. They read lash_spill_runs_total and
	// lash_spill_bytes_total.
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
	err       error
	created   time.Time
	started   time.Time
	finished  time.Time

	// trace records the job's intervals, each once, as a span of its trace
	// and an observation of its histogram: queue wait, the run (the "mine"
	// span mineSpan, under which the library's job tree hangs), the index
	// build and the first reply carrying the result (respond). Set at
	// admission and never replaced, so it is read without the lock; nil for
	// a cache hit, which runs nothing. It lives as long as the job record
	// (Config.JobHistory) and, for a done job, as long as its cached result,
	// which is charged for it (buildIndex, writeJobResult).
	trace    *obs.Run
	mineSpan obs.SpanID
	// responded is set by the first reply that carries the done job's
	// result, the one its respond span times.
	responded atomic.Bool
}

// MineFunc runs one blocking mining run under a context, with
// lash.MineContext's contract.
type MineFunc func(ctx context.Context, db *lash.Database, opt lash.Options) (*lash.Result, error)

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
	// unbounded): runs that would queue past it are refused with
	// errOverloaded. maxJobTime caps every run's Options.Deadline (0 =
	// uncapped): a request may set a tighter deadline, never a looser one.
	// faults arms the run-level injection points of every mine (nil in
	// production).
	maxQueue   int
	maxJobTime time.Duration
	faults     *faults.Registry

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*job
	order    []string        // submission order, for stable listings
	inflight map[string]*job // key → queued/running job (singleflight)
	maxJobs  int             // retained job records; older terminal jobs are pruned
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
		maxJobs:  maxJobs,
	}
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
		QueueTimeMS:  int64(m.met.queueSeconds.Sum() * 1000),
		RunTimeMS:    int64(m.met.runSeconds.Sum() * 1000),
		SpilledRuns:  uint64(m.met.pm.SpillRuns.Value()),
		SpilledBytes: uint64(m.met.pm.SpillBytes.Value()),
		Queued:       int(m.met.jobsQueued.Value()),
		Running:      int(m.met.jobsRunning.Value()),
	}
}
