// Package server turns the lash library into a long-running, concurrent
// mining service. A Server owns three pieces:
//
//   - a database registry that loads named sequence databases once (from
//     server-side files, inline request payloads, or the built-in synthetic
//     generators) and shares the immutable *lash.Database across requests;
//   - a job manager that runs every mine — asynchronous batch job, stream,
//     or subscribe feeder — through one admission step and one lifecycle on
//     a bounded worker pool, coalescing identical in-flight batch requests
//     onto a single run (singleflight);
//   - a result cache, the only holder of finished results: resubmissions,
//     job records, the pattern endpoints and delta resume all read through
//     its one LRU list under Config.CacheBytes (see cache.go).
//
// The HTTP/JSON API (all stdlib) is:
//
//	POST   /v1/databases          register a database (DatabaseSpec JSON or raw .ldb body)
//	GET    /v1/databases          list registered databases (paginated)
//	GET    /v1/databases/{name}   one database's metadata
//	POST   /v1/databases/{name}/sequences  append sequences; installs the next corpus version
//	POST   /v1/mine               submit a mining job (MineRequest)
//	POST   /v1/mine/stream        mine and stream patterns as NDJSON (a job like any other)
//	GET    /v1/jobs               list jobs, streams included ("stream": true)
//	GET    /v1/jobs/{id}          poll one job; includes the result when done and still retained (streams leave none)
//	DELETE /v1/jobs/{id}          cancel a queued or running job or stream
//	GET    /v1/patterns           query a database's latest retained mined patterns
//	GET    /v1/patterns/subscribe replay mined patterns, then follow a live run (NDJSON)
//	GET    /v1/stats              registry / job / cache counters
//	GET    /metrics               Prometheus text exposition of the same counters
//	GET    /healthz               liveness probe (200 while the process serves)
//	GET    /readyz                readiness probe (503 while draining/saturated)
//
// Robustness: every run can carry a deadline (deadline_ms, capped by
// Config.MaxJobTime) and a task-retry budget (max_attempts); the manager
// refuses runs — jobs, streams and subscribe feeders alike — that would
// wait for a worker past its queue bound, and rate-limits per client,
// answering 429 with Retry-After in both cases. Shutdown flips /readyz to
// 503 immediately and refuses new submissions with 503 + Retry-After while
// in-flight jobs drain.
//
// Every job runs under a context derived from the server's lifetime:
// DELETE /v1/jobs/{id} cancels one job (it lands in the "cancelled" state,
// waking every request coalesced onto it), and shutting the server down
// cancels them all. POST /v1/mine/stream delivers patterns incrementally
// as newline-delimited JSON — one pattern object per line in
// partition-completion order, then exactly one trailer object (marked
// "done":true) carrying the run's stats or error — so clients can consume
// arbitrarily large result sets without either side materializing them.
//
// Command lashd wraps this package in a binary with graceful shutdown.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"lash"
	"lash/internal/faults"
)

// Config parameterizes New. The zero value is usable: 4 mining workers, a
// 256 MiB result cache, 1024 retained job records, file loading disabled,
// mining with lash.MineContext.
type Config struct {
	// Workers bounds how many mining jobs run concurrently (default 4).
	// Each job itself parallelizes internally via Options.Workers.
	Workers int
	// CacheBytes bounds the bytes of mined results — patterns, state,
	// index — the server retains for every purpose (default 256 MiB); see
	// resultCache for the policy. Negative means no budget: resubmissions
	// always re-mine and nothing is evicted.
	CacheBytes int64
	// JobHistory bounds the retained job records (default 1024; negative
	// retains everything). Once past the bound, the oldest finished jobs
	// are forgotten: their ids stop resolving on GET /v1/jobs/{id}.
	JobHistory int
	// DataDir, when non-empty, enables file-based DatabaseSpecs resolved
	// relative to this directory.
	DataDir string
	// MineFunc replaces lash.MineContext (and, for streaming runs,
	// lash.Stream); tests use it to observe and stall mining runs and to
	// script streamed deliveries. It must honor ctx cancellation.
	MineFunc MineFunc
	// Logger receives structured request and job-lifecycle logs. Every
	// record carries the ids needed to correlate them: request_id for HTTP
	// requests, job_id for jobs, both where a request touches a job. Nil
	// discards all logs.
	Logger *slog.Logger
	// MaxJobTime, when positive, caps every run's mining wall time
	// (lashd -max-job-time). A request's deadline_ms may tighten the cap,
	// never loosen it; runs past it fail with a timeout error counted by
	// lash_jobs_deadline_exceeded_total.
	MaxJobTime time.Duration
	// MaxQueue, when positive, bounds the backlog of runs waiting for a
	// worker (lashd -max-queue): jobs, streams and subscribe feeders that
	// would queue past it are refused with 429 + Retry-After. Cache hits and
	// coalesced submissions are always admitted — they cost no queue slot.
	MaxQueue int
	// RateLimit, when positive, enables per-client token-bucket rate
	// limiting (lashd -rate-limit): sustained requests per second allowed
	// from one remote host, with bursts up to RateBurst. Probe and scrape
	// endpoints (/healthz, /readyz, /metrics) are exempt; over-limit
	// requests get 429 + Retry-After.
	RateLimit float64
	// RateBurst is the token-bucket capacity per client (0 = RateLimit
	// rounded up, minimum 1).
	RateBurst int
	// Faults, when non-nil, arms the server's fault-injection points —
	// corpus loading ("server.corpus.load") and, forwarded into every run,
	// the pipeline points (see lash.Options.Faults). Chaos tests only; nil
	// in production.
	Faults *faults.Registry
}

// Server is a concurrent mining service. Create one with New, mount
// Handler on an http.Server, and call Close on the way out.
type Server struct {
	registry *registry
	jobs     *manager
	mux      *http.ServeMux
	root     http.Handler // mux wrapped in the request-id/logging/metrics middleware
	metrics  *serverMetrics
	log      *slog.Logger
	limiter  *rateLimiter // nil when rate limiting is off
	started  time.Time
	nextReq  atomic.Uint64 // request-id source
}

// New assembles a Server from cfg.
func New(cfg Config) *Server {
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 256 << 20
	}
	if cfg.JobHistory == 0 {
		cfg.JobHistory = 1024
	}
	mineFn := cfg.MineFunc
	if mineFn == nil {
		mineFn = mine
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	met := newServerMetrics()
	s := &Server{
		registry: newRegistry(cfg.DataDir),
		jobs:     newManager(cfg.Workers, cfg.CacheBytes, cfg.JobHistory, mineFn, met, logger),
		mux:      http.NewServeMux(),
		metrics:  met,
		log:      logger,
		started:  time.Now().UTC(),
	}
	s.registry.loadSeconds = met.pm.CorpusLoadSeconds
	s.registry.versionsTotal = met.corpusVersions
	s.registry.faults = cfg.Faults
	s.jobs.maxQueue = cfg.MaxQueue
	s.jobs.maxJobTime = cfg.MaxJobTime
	s.jobs.faults = cfg.Faults
	if cfg.RateLimit > 0 {
		s.limiter = newRateLimiter(cfg.RateLimit, cfg.RateBurst)
	}
	// Gauges whose truth lives elsewhere are refreshed at scrape time.
	met.reg.OnScrape(func() {
		met.uptime.Set(int64(time.Since(s.started).Seconds()))
		cs := s.jobs.cache.stats()
		met.cacheEntries.Set(int64(cs.Size))
		met.cacheBytes.Set(cs.Bytes)
		met.databases.Set(int64(s.registry.len()))
		if free, ok := diskFree(os.TempDir()); ok {
			met.spillDirFree.Set(free)
		}
	})
	s.mux.HandleFunc("POST /v1/databases", s.handleAddDatabase)
	s.mux.HandleFunc("GET /v1/databases", s.handleListDatabases)
	s.mux.HandleFunc("GET /v1/databases/{name}", s.handleGetDatabase)
	s.mux.HandleFunc("POST /v1/databases/{name}/sequences", s.handleAppendSequences)
	s.mux.HandleFunc("POST /v1/mine", s.handleMine)
	s.mux.HandleFunc("POST /v1/mine/stream", s.handleMineStream)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/patterns", s.handlePatterns)
	s.mux.HandleFunc("GET /v1/patterns/subscribe", s.handleSubscribe)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// /healthz is pure liveness — 200 for as long as the process serves
	// HTTP at all, even mid-drain — while /readyz reports whether new work
	// would be accepted right now.
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.root = s.middleware(s.mux)
	return s
}

// handleReady answers GET /readyz: 200 while the server can usefully accept
// mining work, 503 + Retry-After the moment it cannot — the job manager is
// draining (Close has begun), the admission queue is saturated, or the
// spill directory stopped accepting writes. Load balancers use it to stop
// routing before shutdown finishes; /healthz stays green throughout the
// drain so the process is not killed mid-flight.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if free, ok := diskFree(os.TempDir()); ok {
		s.metrics.spillDirFree.Set(free)
	}
	switch {
	case s.jobs.draining():
		writeError(w, http.StatusServiceUnavailable, errors.New("not ready: draining (shutdown in progress)"))
	case s.jobs.maxQueue > 0 && int(s.metrics.jobsQueued.Value()) >= s.jobs.maxQueue:
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("not ready: job queue saturated (%d/%d)",
			int(s.metrics.jobsQueued.Value()), s.jobs.maxQueue))
	default:
		if err := probeSpillDir(); err != nil {
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("not ready: spill dir not writable: %v", err))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// probeSpillDir verifies a budgeted shuffle could spill right now: runs
// create their private spill directories under the process temp dir, so
// readiness round-trips one small write there.
func probeSpillDir() error {
	f, err := os.CreateTemp("", "lash-readyz-")
	if err != nil {
		return err
	}
	_, werr := f.Write([]byte("ok"))
	return errors.Join(werr, f.Close(), os.Remove(f.Name()))
}

// middleware assigns each request an id (threaded through the context so
// job logs can point back at the request that caused them), applies the
// per-client rate limit, logs the request, and counts it into
// lash_http_requests_total (rate-limited requests included, so the 429s
// show up in the same place as everything else).
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := "req-" + strconv.FormatUint(s.nextReq.Add(1), 10)
		r = r.WithContext(withRequestID(r.Context(), id))
		sw := &statusWriter{ResponseWriter: w}
		begin := time.Now()
		if s.limiter != nil && !rateLimitExempt(r.URL.Path) && !s.limiter.allow(clientHost(r.RemoteAddr), begin) {
			s.metrics.rateLimited.Inc()
			writeError(sw, http.StatusTooManyRequests,
				fmt.Errorf("%w: client %s exceeded %g requests/second", errOverloaded, clientHost(r.RemoteAddr), s.limiter.rate))
		} else {
			next.ServeHTTP(sw, r)
		}
		code := sw.status
		if code == 0 {
			code = http.StatusOK
		}
		s.metrics.httpRequest(r.Method, code)
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "http request",
			slog.String("request_id", id), slog.String("method", r.Method), slog.String("path", r.URL.Path),
			slog.Int("status", code), slog.Int64("duration_ms", time.Since(begin).Milliseconds()))
	})
}

// statusWriter captures the response status for logging/metrics while
// forwarding Flush, which the NDJSON streaming handler depends on.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ctxKey keys the request id in a context.
type ctxKey int

const requestIDKey ctxKey = iota

func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// requestIDFrom returns the request id threaded by the middleware, or "".
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// handleMetrics answers GET /metrics with the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w) //nolint:errcheck // nothing to do about a broken client pipe
}

// AddDatabase registers a database directly, bypassing HTTP — lashd uses it
// to preload databases from flags before serving.
func (s *Server) AddDatabase(spec DatabaseSpec) (DatabaseInfo, error) {
	return s.registry.add(spec)
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.root }

// Close stops accepting jobs and waits for in-flight mining to drain or
// ctx to expire. Call it after http.Server.Shutdown.
func (s *Server) Close(ctx context.Context) error { return s.jobs.close(ctx) }

// OptionsSpec is the wire form of lash.Options: enums travel as the names
// the CLI accepts (see lash.ParseAlgorithm and friends).
type OptionsSpec struct {
	MinSupport      int64  `json:"min_support"`
	MaxGap          int    `json:"max_gap"`
	MaxLength       int    `json:"max_length"`
	Algorithm       string `json:"algorithm,omitempty"`
	LocalMiner      string `json:"local_miner,omitempty"`
	Restriction     string `json:"restriction,omitempty"`
	Workers         int    `json:"workers,omitempty"`
	MaxIntermediate int64  `json:"max_intermediate,omitempty"`
	// MemoryBudget bounds the job's shuffle memory in bytes by keeping the
	// shuffle's sorted runs in temp files instead of memory (see
	// lash.Options.MemoryBudget). 0 = in memory. Does not affect the mined
	// result, so cache hits and singleflight coalescing work across
	// different budgets.
	MemoryBudget int64 `json:"memory_budget,omitempty"`
	// DeadlineMS, when positive, bounds the run's mining wall time in
	// milliseconds: a run still in flight past it fails with a timeout
	// error. The server's -max-job-time cap still applies — the tighter
	// bound wins. Like memory_budget, deadlines decide whether a run
	// finishes, never what it outputs, so caching and coalescing work
	// across different values.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// MaxAttempts, when > 1, re-executes transiently-failed MapReduce
	// tasks (spill I/O errors and the like) up to this many total attempts
	// each (see lash.Options.MaxAttempts). Retried runs are differentially
	// tested byte-identical to fault-free runs, so this too is invisible
	// to the cache key.
	MaxAttempts int `json:"max_attempts,omitempty"`
}

// toOptions parses and validates the spec.
func (o OptionsSpec) toOptions() (lash.Options, error) {
	alg, err := lash.ParseAlgorithm(o.Algorithm)
	if err != nil {
		return lash.Options{}, err
	}
	mnr, err := lash.ParseLocalMiner(o.LocalMiner)
	if err != nil {
		return lash.Options{}, err
	}
	restr, err := lash.ParseRestriction(o.Restriction)
	if err != nil {
		return lash.Options{}, err
	}
	opt := lash.Options{
		MinSupport:      o.MinSupport,
		MaxGap:          o.MaxGap,
		MaxLength:       o.MaxLength,
		Algorithm:       alg,
		LocalMiner:      mnr,
		Restriction:     restr,
		Workers:         o.Workers,
		MaxIntermediate: o.MaxIntermediate,
		MemoryBudget:    o.MemoryBudget,
		Deadline:        time.Duration(o.DeadlineMS) * time.Millisecond,
		MaxAttempts:     o.MaxAttempts,
	}
	if err := opt.Validate(); err != nil {
		return lash.Options{}, err
	}
	return opt, nil
}

// MineRequest is the body of POST /v1/mine.
type MineRequest struct {
	// Database names a registered database.
	Database string `json:"database"`
	// Version selects the corpus version to mine (0 = latest). Older
	// versions stay mineable after appends.
	Version int `json:"version,omitempty"`
	// Options configures the run.
	Options OptionsSpec `json:"options"`
	// Wait blocks the request until the job finishes and returns the full
	// JobView instead of an immediate 202.
	Wait bool `json:"wait,omitempty"`
}

// PatternView is one mined pattern on the wire.
type PatternView struct {
	Items   []string `json:"items"`
	Support int64    `json:"support"`
}

// ResultView is a mining result on the wire.
type ResultView struct {
	Patterns      []PatternView `json:"patterns"`
	FrequentItems []PatternView `json:"frequent_items,omitempty"`
	// CorpusVersion is the corpus version the result was mined from.
	CorpusVersion    int   `json:"corpus_version"`
	NumPartitions    int   `json:"num_partitions"`
	Explored         int64 `json:"explored"`
	MapOutputBytes   int64 `json:"map_output_bytes"`
	MapOutputRecords int64 `json:"map_output_records"`
	// SpillRuns/SpillBytes report shuffle spilling forced by the job's
	// memory_budget (0 when the run stayed in memory).
	SpillRuns  int64 `json:"spill_runs,omitempty"`
	SpillBytes int64 `json:"spill_bytes,omitempty"`
	// TaskRetries/FaultsInjected report the run's fault-tolerance work:
	// task re-executions after transient failures (max_attempts) and
	// synthetic faults injected into the run. Both 0 on healthy runs.
	TaskRetries    int64 `json:"task_retries,omitempty"`
	FaultsInjected int64 `json:"faults_injected,omitempty"`
	// DeltaPartitionsDirty/DeltaPartitionsReused report, for delta re-mines
	// of an appended corpus, how many partitions were re-mined vs. spliced
	// from the previous run's state. Both 0 for from-scratch runs.
	DeltaPartitionsDirty  int64 `json:"delta_partitions_dirty,omitempty"`
	DeltaPartitionsReused int64 `json:"delta_partitions_reused,omitempty"`
}

func viewPatterns(ps []lash.Pattern) []PatternView {
	out := make([]PatternView, len(ps))
	for i, p := range ps {
		out[i] = PatternView{Items: p.Items, Support: p.Support}
	}
	return out
}

// JobView is a job on the wire. RuntimeMS is the job's mining wall-clock
// duration: final once the job is terminal, live (time mined so far) while
// it is running.
type JobView struct {
	ID       string `json:"job_id"`
	Database string `json:"database"`
	// CorpusVersion is the corpus version the job mines (jobs pin the
	// version current at submission; appends never retarget them).
	CorpusVersion int       `json:"corpus_version,omitempty"`
	Status        JobStatus `json:"status"`
	// Stream marks a streaming run (POST /v1/mine/stream, or the feeder of a
	// live subscription); its patterns were delivered as it mined, so it
	// never carries a Result.
	Stream    bool      `json:"stream,omitempty"`
	Cached    bool      `json:"cached"`
	Coalesced int       `json:"coalesced"`
	Error     string    `json:"error,omitempty"`
	Created   time.Time `json:"created"`
	// QueueMS is how long the job waited for a worker slot: final once it
	// started (or terminally never started), live while still queued.
	QueueMS   int64       `json:"queue_ms,omitempty"`
	RuntimeMS int64       `json:"runtime_ms,omitempty"`
	Result    *ResultView `json:"result,omitempty"`
}

// view snapshots a job, without its Result: the (possibly large) pattern
// list never passes through a view — writeJobResult renders it straight
// from the cached lash.Result.
func (m *manager) view(j *job) JobView {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := JobView{
		ID:            j.id,
		Database:      j.dbName,
		CorpusVersion: j.version,
		Status:        j.status,
		Stream:        j.stream,
		Cached:        j.cached,
		Coalesced:     j.coalesced,
		Created:       j.created,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	switch {
	case !j.finished.IsZero() && !j.started.IsZero():
		v.RuntimeMS = j.finished.Sub(j.started).Milliseconds()
	case !j.started.IsZero():
		v.RuntimeMS = time.Since(j.started).Milliseconds()
	}
	switch {
	case !j.started.IsZero():
		v.QueueMS = j.started.Sub(j.created).Milliseconds()
	case !j.finished.IsZero(): // cancelled while still queued
		v.QueueMS = j.finished.Sub(j.created).Milliseconds()
	default: // still waiting for a slot
		v.QueueMS = time.Since(j.created).Milliseconds()
	}
	return v
}

// writeJobResult answers 200 with the job's view, including the mined
// result once the job is done, for as long as the cache retains it (it
// entered the cache before the job turned done).
func (s *Server) writeJobResult(w http.ResponseWriter, j *job) {
	v := s.jobs.view(j)
	if v.Status == JobDone && !v.Stream {
		if res, ok := s.jobs.cache.result(j.key); ok {
			newWireWriter(w).writeJobBody(v, res)
			return
		}
	}
	writeJSON(w, http.StatusOK, v)
}

// StatsView is the body of GET /v1/stats.
type StatsView struct {
	UptimeSeconds int64      `json:"uptime_seconds"`
	Databases     int        `json:"databases"`
	Jobs          JobStats   `json:"jobs"`
	Cache         CacheStats `json:"cache"`
}

func (s *Server) handleAddDatabase(w http.ResponseWriter, r *http.Request) {
	// A raw .ldb body registers the uploaded binary database directly; the
	// name rides the query string since the body is the payload itself.
	if isLDBRequest(r) {
		name := r.URL.Query().Get("name")
		if name == "" {
			writeError(w, http.StatusBadRequest, errors.New("name query parameter is required for .ldb uploads"))
			return
		}
		db, err := readLDB(w, r)
		if err != nil {
			writeError(w, bodyStatus(err), err)
			return
		}
		info, err := s.registry.install(name, "upload:ldb", db)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
		return
	}
	var spec DatabaseSpec
	if err := decodeJSON(w, r, &spec); err != nil {
		writeError(w, bodyStatus(err), err)
		return
	}
	info, err := s.registry.add(spec)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// handleListDatabases answers GET /v1/databases[?limit=N&cursor=C]: all
// registered databases in registration order, paginated with the same
// opaque limit/cursor contract as /v1/jobs and /v1/patterns.
func (s *Server) handleListDatabases(w http.ResponseWriter, r *http.Request) {
	const fingerprint = "databases"
	limit, offset, err := parsePage(r.URL.Query(), fingerprint)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	infos := s.registry.list()
	total := len(infos)
	if offset > total {
		offset = total
	}
	page := infos[offset:]
	if limit > 0 && limit < len(page) {
		page = page[:limit]
	}
	resp := map[string]any{"databases": page, "total": total}
	if limit > 0 && offset+len(page) < total {
		resp["next_cursor"] = encodeCursor(fingerprint, offset+len(page))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGetDatabase(w http.ResponseWriter, r *http.Request) {
	info, ok := s.registry.infoFor(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such database %q", r.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// resolveMineDB resolves a mine request's database and corpus version,
// writing the error response itself on failure.
func (s *Server) resolveMineDB(w http.ResponseWriter, req MineRequest) (*lash.Database, bool) {
	if req.Database == "" {
		writeError(w, http.StatusBadRequest, errors.New("database is required"))
		return nil, false
	}
	if req.Version < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad version %d", req.Version))
		return nil, false
	}
	db, dbOK, verOK := s.registry.getVersion(req.Database, req.Version)
	switch {
	case !dbOK:
		writeError(w, http.StatusNotFound, fmt.Errorf("%w %q", errDBMissing, req.Database))
		return nil, false
	case !verOK:
		writeError(w, http.StatusNotFound,
			fmt.Errorf("database %q has no corpus version %d", req.Database, req.Version))
		return nil, false
	}
	return db, true
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	var req MineRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, bodyStatus(err), err)
		return
	}
	db, ok := s.resolveMineDB(w, req)
	if !ok {
		return
	}
	opt, err := req.Options.toOptions()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.jobs.submit(r.Context(), req.Database, db, opt)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if req.Wait {
		select {
		case <-j.done:
			s.writeJobResult(w, j)
		case <-r.Context().Done():
			// Client went away; the job keeps running and stays pollable.
		}
		return
	}
	// Already-terminal submissions (cache hits) carry the result inline so
	// the client need not poll at all.
	if _, done := j.terminal(); done {
		s.writeJobResult(w, j)
		return
	}
	writeJSON(w, http.StatusAccepted, s.jobs.view(j))
}

// terminal reports whether the job already reached a terminal status.
func (j *job) terminal() (JobStatus, bool) {
	select {
	case <-j.done:
		return j.status, true
	default:
		return "", false
	}
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", errJobMissing, r.PathValue("id")))
		return
	}
	s.writeJobResult(w, j)
}

// handleCancelJob answers DELETE /v1/jobs/{id}: a queued or running job is
// cancelled asynchronously (202 with the job's current view — poll until
// terminal; almost always "cancelled", though a run whose result was
// already computed when the cancel landed may still finish "done"),
// cancelling an already-cancelled job is idempotent (200), and a
// done/failed job is a conflict (409).
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.cancelJob(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if status, done := j.terminal(); done && status == JobCancelled {
		writeJSON(w, http.StatusOK, s.jobs.view(j))
		return
	}
	writeJSON(w, http.StatusAccepted, s.jobs.view(j))
}

// StreamTrailer is the final NDJSON record of POST /v1/mine/stream. It is
// distinguishable from pattern records by its "done" field, and reports
// either the completed run's summary or the error that ended it.
type StreamTrailer struct {
	Done             bool          `json:"done"` // always true
	Error            string        `json:"error,omitempty"`
	Patterns         int           `json:"patterns"` // pattern records streamed before this trailer
	FrequentItems    []PatternView `json:"frequent_items,omitempty"`
	NumPartitions    int           `json:"num_partitions,omitempty"`
	Explored         int64         `json:"explored,omitempty"`
	MapOutputBytes   int64         `json:"map_output_bytes,omitempty"`
	MapOutputRecords int64         `json:"map_output_records,omitempty"`
	SpillRuns        int64         `json:"spill_runs,omitempty"`
	SpillBytes       int64         `json:"spill_bytes,omitempty"`
	TaskRetries      int64         `json:"task_retries,omitempty"`
	FaultsInjected   int64         `json:"faults_injected,omitempty"`
	RuntimeMS        int64         `json:"runtime_ms"`
}

// handleMineStream answers POST /v1/mine/stream: it mines synchronously,
// writing each pattern as one NDJSON line the moment its partition
// completes, then exactly one trailer line. Closing the request (client
// disconnect), DELETE /v1/jobs/{id} or shutting the server down cancels
// the run. Since patterns are delivered before the run's fate is known,
// errors after the first write surface in the trailer, not the HTTP status.
func (s *Server) handleMineStream(w http.ResponseWriter, r *http.Request) {
	var req MineRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, bodyStatus(err), err)
		return
	}
	db, ok := s.resolveMineDB(w, req)
	if !ok {
		return
	}
	opt, err := req.Options.toOptions()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := opt.ValidateStream(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	start := time.Now()
	patterns := 0
	emit := func(p lash.Pattern) error {
		begin := time.Now()
		if err := enc.Encode(PatternView{Items: p.Items, Support: p.Support}); err != nil {
			return err
		}
		patterns++
		// Flush in small batches: every pattern would thrash syscalls on
		// dense result sets, while never flushing would defeat streaming.
		if patterns%64 == 0 && flusher != nil {
			flusher.Flush()
		}
		// Long emit tails mean the client is not keeping up (backpressure
		// stalls the mining goroutines behind the pipe).
		s.metrics.streamEmit.Observe(time.Since(begin).Seconds())
		return nil
	}
	res, err := s.jobs.stream(r.Context(), req.Database, db, opt, emit)

	// Nothing has been written yet for runs that failed before their first
	// pattern (e.g. refused at shutdown), so those can still carry a real
	// HTTP status instead of a 200-with-error-trailer.
	if err != nil && patterns == 0 {
		writeError(w, statusFor(err), err)
		return
	}

	trailer := StreamTrailer{Done: true, Patterns: patterns, RuntimeMS: time.Since(start).Milliseconds()}
	if err != nil {
		trailer.Error = err.Error()
	} else {
		trailer.FrequentItems = viewPatterns(res.FrequentItems)
		trailer.NumPartitions = res.NumPartitions
		trailer.Explored = res.Explored
		trailer.MapOutputBytes = res.Stats.MapOutputBytes
		trailer.MapOutputRecords = res.Stats.MapOutputRecords
		trailer.SpillRuns = res.Stats.SpillRuns
		trailer.SpillBytes = res.Stats.SpillBytes
		trailer.TaskRetries = res.Stats.TaskRetries
		trailer.FaultsInjected = res.Stats.FaultsInjected
	}
	enc.Encode(trailer) //nolint:errcheck // nothing to do about a broken client pipe
	if flusher != nil {
		flusher.Flush()
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsView{
		UptimeSeconds: int64(time.Since(s.started).Seconds()),
		Databases:     s.registry.len(),
		Jobs:          s.jobs.stats(),
		Cache:         s.jobs.cache.stats(),
	})
}

// maxBodyBytes bounds request bodies (inline sequence payloads included) so
// a single oversized POST cannot exhaust server memory.
const maxBodyBytes = 64 << 20

// decodeJSON strictly decodes a size-capped request body into v.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing to do about a broken client pipe
}

// ErrorBody is the uniform error envelope of every non-2xx JSON response:
// {"error": {"code": "...", "message": "...", "retryable": bool}}. Code is a
// stable snake_case identifier clients can switch on (messages are for
// humans and may change); Retryable marks refusals that a backoff-and-retry
// loop should retry against this same server (overload, drain — these also
// carry a Retry-After header).
type ErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// errorCode derives the envelope's stable code: the sentinel in the error
// chain when one identifies the refusal more precisely than the status.
func errorCode(status int, err error) string {
	switch {
	case errors.Is(err, errShutdown):
		return "shutting_down"
	case errors.Is(err, errOverloaded):
		return "overloaded"
	case errors.Is(err, errJobMissing):
		return "job_not_found"
	}
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusTooManyRequests:
		return "overloaded"
	case http.StatusServiceUnavailable:
		return "not_ready"
	}
	return "internal"
}

// writeError is the single chokepoint every handler's non-2xx response goes
// through (the apierr analyzer enforces this), so the envelope shape cannot
// drift between endpoints.
func writeError(w http.ResponseWriter, status int, err error) {
	// Backoffable refusals (overload, drain) advertise when to come back:
	// well-behaved clients and load balancers honor Retry-After instead of
	// hammering a server that already said no.
	retryable := status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
	if retryable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]ErrorBody{"error": {
		Code:      errorCode(status, err),
		Message:   err.Error(),
		Retryable: retryable,
	}})
}

// statusFor maps the manager/registry sentinel errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, errBadSpec):
		return http.StatusBadRequest
	case errors.Is(err, errConflict), errors.Is(err, errJobCancelled): // a stream DELETEd before its first pattern
		return http.StatusConflict
	case errors.Is(err, errShutdown):
		return http.StatusServiceUnavailable
	case errors.Is(err, errOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, errJobMissing), errors.Is(err, errDBMissing):
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}
