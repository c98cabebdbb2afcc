// Package server turns the lash library into a long-running, concurrent
// mining service. A Server owns three pieces:
//
//   - a database registry that loads named sequence databases once (from
//     server-side files, inline request payloads, or the built-in synthetic
//     generators) and shares the immutable *lash.Database across requests;
//   - a job manager that runs every mine through one admission step and one
//     lifecycle on a bounded worker pool, coalescing identical in-flight
//     requests onto a single run (singleflight);
//   - a result cache, the only holder of finished results: resubmissions,
//     job records, the pattern endpoints and delta resume all read through
//     its one LRU list under Config.CacheBytes (see cache.go). A cached
//     result holds its patterns in item-id space, in the State a resume
//     starts from, and by name in its serving index; the named list a run
//     returns serves the first replies and is dropped once the index is
//     built.
//
// The HTTP/JSON API (all stdlib) is:
//
//	POST   /v1/databases          register a database (DatabaseSpec JSON or raw .ldb body)
//	GET    /v1/databases          list registered databases (paginated)
//	GET    /v1/databases/{name}   one database's metadata
//	POST   /v1/databases/{name}/sequences  append sequences; installs the next corpus version
//	POST   /v1/mine               submit a mining job (MineRequest)
//	POST   /v1/mine/stream        submit like /v1/mine, wait, and send the job's result as NDJSON
//	GET    /v1/jobs               list jobs (paginated)
//	GET    /v1/jobs/{id}          poll one job; includes the result when done and still retained
//	GET    /v1/jobs/{id}/trace    the job's span forest: queue wait, mine tree, index build
//	DELETE /v1/jobs/{id}          cancel a queued or running job
//	GET    /v1/patterns           query a database's latest retained mined patterns
//	GET    /v1/patterns/subscribe replay mined patterns, then each in-flight job's result (NDJSON)
//	GET    /v1/stats              registry / job / cache counters
//	GET    /metrics               Prometheus text exposition of the same counters
//	GET    /healthz               liveness probe (200 while the process serves)
//	GET    /readyz                readiness probe (503 while draining/saturated)
//
// Robustness: every run can carry a deadline (deadline_ms, capped by
// Config.MaxJobTime) and a task-retry budget (max_attempts); the manager
// refuses runs that would wait for a worker past its queue bound, and
// rate-limits per client, answering 429 with Retry-After in both cases.
// Shutdown flips /readyz to 503 immediately and refuses new submissions with
// 503 + Retry-After while in-flight jobs drain.
//
// Corpus versions: POST /v1/databases/{name}/sequences (a JSON spec, or a
// raw .ldb fragment) installs the next version of a database, and every
// earlier version stays readable, so a running mine, query or subscription
// keeps the snapshot it started on. A mine resumes from the newest state
// the cache retains for its database and options that validates for its
// snapshot (lash.Options.Resume), and mines cold when there is none.
// Results and serving indexes are keyed by database, version and options;
// GET /v1/patterns takes version=N (default: the newest version with a
// retained result) and reports corpus_version, as job and result views do
// with the delta_partitions_* split of a resumed run. A subscription
// follows appends: a {"version":N} marker precedes each version's records.
//
// Every job runs under a context derived from the server's lifetime:
// DELETE /v1/jobs/{id} cancels one job (it lands in the "cancelled" state,
// waking every request coalesced onto it), and shutting the server down
// cancels them all.
//
// POST /v1/mine/stream submits like POST /v1/mine — a cache hit, a job
// coalesced with an identical in-flight one, or a new job resuming from a
// retained state; restricted runs included — and, once the job completes
// (not per partition), sends its result as NDJSON: one pattern per line in
// serving order, the order GET /v1/patterns?job= lists, then one
// "done":true trailer with the job_id and the run's stats. A client
// disconnect does not cancel the job, which may be shared; DELETE
// /v1/jobs/{id} does. A job that ends failed or cancelled, or whose result
// was evicted before it was sent, still answers 200 with a trailer-only
// "error".
//
// GET /v1/jobs/{id}/trace answers a job's span forest in `lash -trace-out`'s
// schema: a "queue" span, the "mine" span of its run with the library's
// jobs, phases, tasks and partitions beneath it and its "assemble" span (the
// canonical merge and the naming after the jobs), and the "index" span of
// its serving-index build. Each interval is recorded once, and that record is
// its span, its lash_job_queue_seconds / lash_job_run_seconds /
// lash_pindex_build_seconds observation and the job view's queue_ms /
// runtime_ms alike. A failed or cancelled job has what it recorded before
// it ended; a cache hit mined nothing and has an empty forest. A trace is
// kept with its job record, and a done job's is trimmed and charged to its
// cached result with the serving index: Config.JobHistory bounds the traces
// of listed jobs, Config.CacheBytes those the cache keeps past their record.
// To follow one request into its run, take its request_id from the
// "http request" log line to the admission line ("job queued", "job
// coalesced" or "job answered from cache") that logs it with the job_id,
// whose trace this is.
//
// Command lashd wraps this package in a binary with graceful shutdown.
package server

import (
	"context"
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
	// CacheBytes bounds the bytes of mined results — state, index, and the
	// named pattern list until the index is built — the server retains for
	// every purpose (default 256 MiB); see
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
	// MineFunc replaces lash.MineContext, which runs every mine when nil;
	// tests use it to observe, stall and script mining runs. It must honor
	// ctx cancellation.
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
	// worker (lashd -max-queue): runs that would queue past it are refused
	// with 429 + Retry-After. Cache hits, coalesced submissions
	// and subscriptions are always admitted — they cost no queue slot.
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
		mineFn = lash.MineContext
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
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
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
// forwarding Flush, which the NDJSON streaming handlers depend on.
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

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsView{
		UptimeSeconds: int64(time.Since(s.started).Seconds()),
		Databases:     s.registry.len(),
		Jobs:          s.jobs.stats(),
		Cache:         s.jobs.cache.stats(),
	})
}
