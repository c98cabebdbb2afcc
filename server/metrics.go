package server

import (
	"io"
	"strconv"
	"sync"

	"lash/internal/obs"
)

// serverMetrics is the server's metric registry plus the pre-registered
// handles every hot path records through (see internal/obs: a handle is one
// or two atomic ops, no map lookups). One bundle is created per Server and
// shared by the job manager, the result cache, the database registry, and
// the HTTP layer; GET /metrics scrapes it via Server.WriteMetrics.
type serverMetrics struct {
	reg *obs.Registry
	// pm carries the mining-pipeline families (per-phase duration
	// histograms, shuffle/spill counters, per-partition mine timings). The
	// manager points every job's Options.Metrics at it, so all runs feed
	// one set of process-wide families.
	pm *obs.PipelineMetrics

	jobsSubmitted *obs.Counter
	jobsCoalesced *obs.Counter
	minesRun      *obs.Counter
	jobsCompleted *obs.Counter
	jobsFailed    *obs.Counter
	jobsCancelled *obs.Counter
	jobsQueued    *obs.Gauge
	jobsRunning   *obs.Gauge
	queueSeconds  *obs.Histogram
	runSeconds    *obs.Histogram

	// jobsDeadline counts runs that failed because they outlived their
	// deadline (request deadline_ms, capped by the server's MaxJobTime).
	// rateLimited counts requests the per-client token bucket rejected
	// with 429. spillDirFree mirrors the free space of the filesystem
	// budgeted shuffles spill to (refreshed at scrape and readiness
	// checks; -1 until first measured or when the platform cannot tell).
	jobsDeadline *obs.Counter
	rateLimited  *obs.Counter
	spillDirFree *obs.Gauge

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	cacheEntries   *obs.Gauge
	cacheBytes     *obs.Gauge

	// Serving-index (internal/pindex) families: build cost and size of the
	// per-result indexes the pattern endpoints query, plus query counts by
	// kind. The query counters are pre-registered per kind — handlers only
	// ever touch the fixed handle map, never the registry.
	pindexBuildSeconds *obs.Histogram
	pindexBytes        *obs.Counter
	pindexQueries      map[string]*obs.Counter

	databases *obs.Gauge
	uptime    *obs.Gauge

	// httpRequests caches the lash_http_requests_total handles by series
	// (see httpRequest), guarded by httpMu.
	httpMu       sync.Mutex
	httpRequests map[httpKey]*obs.Counter

	// Live-corpora families: corpusVersions counts every corpus version
	// installed (registrations and appends); deltaDirty/deltaReused split
	// the partitions of delta re-mines (Options.Resume) into mined vs
	// spliced-from-state, and deltaGrown counts the mined ones that were
	// grown rather than re-mined in full.
	corpusVersions *obs.Counter
	deltaDirty     *obs.Counter
	deltaReused    *obs.Counter
	deltaGrown     *obs.Counter
}

func newServerMetrics() *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{
		reg: r,
		pm:  obs.NewPipelineMetrics(r),

		jobsSubmitted: r.Counter("lash_jobs_submitted_total",
			"Mine requests accepted, including cache hits and coalesced submissions."),
		jobsCoalesced: r.Counter("lash_jobs_coalesced_total",
			"Requests attached to an identical in-flight job instead of starting their own (singleflight)."),
		minesRun: r.Counter("lash_mines_run_total",
			"Actual executions of the mining function (work not avoided by the cache or coalescing)."),
		jobsCompleted: r.Counter("lash_jobs_completed_total",
			"Jobs that finished with a result."),
		jobsFailed: r.Counter("lash_jobs_failed_total",
			"Jobs that finished with a mining error."),
		jobsCancelled: r.Counter("lash_jobs_cancelled_total",
			"Jobs cancelled by DELETE /v1/jobs/{id} or shutdown."),
		jobsQueued: r.Gauge("lash_jobs_queued",
			"Jobs currently waiting for a worker slot (queue depth)."),
		jobsRunning: r.Gauge("lash_jobs_running",
			"Jobs currently mining on a worker slot."),
		queueSeconds: r.Histogram("lash_job_queue_seconds",
			"Time jobs spent waiting for a worker slot.", obs.DurationBuckets),
		runSeconds: r.Histogram("lash_job_run_seconds",
			"Wall-clock time of mining runs, from worker pickup to a terminal state.", obs.DurationBuckets),

		jobsDeadline: r.Counter("lash_jobs_deadline_exceeded_total",
			"Jobs that failed because they outlived their deadline (deadline_ms or -max-job-time)."),
		rateLimited: r.Counter("lash_http_rate_limited_total",
			"HTTP requests rejected with 429 by the per-client rate limiter."),
		spillDirFree: r.Gauge("lash_spill_dir_free_bytes",
			"Free bytes on the filesystem holding the shuffle spill directory (-1 when unknown)."),

		cacheHits: r.Counter("lash_cache_hits_total",
			"Mine requests answered from a retained result, without mining."),
		cacheMisses: r.Counter("lash_cache_misses_total",
			"Mine requests that found no retained result to answer them."),
		cacheEvictions: r.Counter("lash_cache_evictions_total",
			"Results dropped, least recently used first, to fit the byte budget; gone for every reader."),
		cacheEntries: r.Gauge("lash_cache_entries",
			"Mined results the server currently retains."),
		cacheBytes: r.Gauge("lash_cache_bytes",
			"Bytes charged for the retained results: patterns, state and serving index."),

		pindexBuildSeconds: r.Histogram("lash_pindex_build_seconds",
			"Time to build one serving index over a completed mining result.", obs.DurationBuckets),
		pindexBytes: r.Counter("lash_pindex_bytes_total",
			"Bytes of serving indexes built (SizeBytes summed over builds)."),

		databases: r.Gauge("lash_databases",
			"Databases registered with the server."),
		uptime: r.Gauge("lash_uptime_seconds",
			"Seconds since the server was assembled."),

		corpusVersions: r.Counter("lash_corpus_versions_total",
			"Corpus versions installed: database registrations plus appends (POST /v1/databases/{name}/sequences)."),
		deltaDirty: r.Counter("lash_delta_partitions_dirty_total",
			"Partitions re-mined by delta runs because an appended sequence could change their output."),
		deltaReused: r.Counter("lash_delta_partitions_reused_total",
			"Partitions spliced from a previous run's state by delta runs instead of being re-mined."),
		deltaGrown: r.Counter("lash_delta_partitions_grown_total",
			"Dirty partitions delta runs mined only for the patterns the appended sequences reach, taking the rest from the previous state."),
	}
	m.pindexQueries = make(map[string]*obs.Counter, len(pindexQueryKinds))
	for _, kind := range pindexQueryKinds {
		//lashvet:ignore obshandle one-time constructor registration over the closed kind list; handlers use the prebuilt map
		m.pindexQueries[kind] = r.Counter("lash_pindex_queries_total",
			"Serving-index queries answered, by query kind.", "kind", kind)
	}
	m.httpRequests = make(map[httpKey]*obs.Counter)
	m.spillDirFree.Set(-1) // unknown until the first readiness check or scrape
	obs.RegisterGoCollector(r)
	return m
}

// pindexQueryKinds is the closed label space of lash_pindex_queries_total:
// one kind per query shape the pattern endpoints answer from the serving
// index.
var pindexQueryKinds = []string{"plain", "top", "min_support", "contains", "prefix", "level", "rollup", "subscribe"}

// pindexQuery counts one serving-index query of the given kind. Unknown
// kinds are dropped rather than registered on the fly, keeping the label
// space closed.
func (m *serverMetrics) pindexQuery(kind string) {
	if c, ok := m.pindexQueries[kind]; ok {
		c.Inc()
	}
}

// httpKey names one lash_http_requests_total series.
type httpKey struct {
	method string
	code   int
}

// httpRequest counts one served HTTP request through the cached handle of
// its (method, code) series: a map read under the cache's own lock and one
// atomic add. Only the first request of a series reaches the registry,
// which keeps the method × code label space lazily populated.
func (m *serverMetrics) httpRequest(method string, code int) {
	key := httpKey{method, code}
	m.httpMu.Lock()
	c, ok := m.httpRequests[key]
	if !ok {
		c = m.registerHTTPRequest(key)
		m.httpRequests[key] = c
	}
	m.httpMu.Unlock()
	c.Inc()
}

// registerHTTPRequest resolves a series httpRequest has not seen yet.
func (m *serverMetrics) registerHTTPRequest(key httpKey) *obs.Counter {
	return m.reg.Counter("lash_http_requests_total",
		"HTTP requests served, by method and status code.",
		"method", key.method, "code", strconv.Itoa(key.code))
}

// WriteMetrics renders the server's metric registry in Prometheus text
// exposition format — the body of GET /metrics.
func (s *Server) WriteMetrics(w io.Writer) error {
	return s.metrics.reg.WritePrometheus(w)
}
