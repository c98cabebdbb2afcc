// Command lashd serves LASH sequence mining over HTTP.
//
// Usage:
//
//	lashd [-addr :8080] [-workers 4] [-cache-bytes N] [-data DIR]
//	      [-db name=sequences.txt[,hierarchy.txt]]... [-demo]
//	      [-max-job-time D] [-max-queue N] [-rate-limit R] [-rate-burst B]
//	      [-log-format text|json] [-log-level LEVEL] [-debug-addr ADDR]
//
// lashd loads each -db database once at startup (paths are relative to
// -data) and then answers mining queries concurrently: jobs run
// asynchronously on a bounded worker pool under per-job contexts,
// identical in-flight requests coalesce onto one run, and finished results
// are retained under -cache-bytes so repeats are answered instantly.
// DELETE /v1/jobs/{id} cancels a queued or running job; POST
// /v1/mine/stream submits like POST /v1/mine and sends the job's result as
// NDJSON once it completes. Databases are mutable by append: POST
// /v1/databases/{name}/sequences installs a new immutable corpus version,
// later mines resume incrementally from the newest retained state, and
// every non-2xx response carries the uniform {"error": {...}} envelope.
// See package lash/server for the HTTP API.
//
// Robustness: -max-job-time caps every run's mining wall time (requests
// may tighten it with deadline_ms, never loosen it), -max-queue bounds the
// job backlog and -rate-limit throttles each client — both refusals answer
// 429 with Retry-After. GET /healthz is pure liveness; GET /readyz flips
// to 503 the moment shutdown starts draining (or the queue saturates, or
// the spill directory stops accepting writes), so load balancers stop
// routing before the process exits.
//
// Observability: GET /metrics exposes job, cache and mining-pipeline
// counters in Prometheus text format; logs are structured (log/slog, text
// or JSON per -log-format) with request and job ids; and -debug-addr
// serves net/http/pprof on a separate listener so profiling endpoints
// never share a port with the public API.
//
// A quick session against -demo:
//
//	lashd -demo &
//	curl -s localhost:8080/v1/mine -d '{"database":"demo-text","options":{"min_support":100,"max_gap":1,"max_length":3},"wait":true}'
//	curl -sN localhost:8080/v1/mine/stream -d '{"database":"demo-text","options":{"min_support":100,"max_gap":1,"max_length":3}}'   # a cache hit now
//	curl -s 'localhost:8080/v1/patterns?db=demo-text&top=5'
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lash/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 4, "concurrent mining jobs")
		cacheBytes = flag.Int64("cache-bytes", 256<<20, "bytes of mined results (patterns, state, index) retained for resubmissions, job polls, /v1/patterns and delta resume; least recently used go first (negative: no budget, resubmissions re-mine)")
		history    = flag.Int("history", 1024, "retained job records, a few hundred bytes each; their results live under -cache-bytes (negative retains everything)")
		dataDir    = flag.String("data", "", "directory for file-based databases (empty disables file loading)")
		demo       = flag.Bool("demo", false, "preload generated demo databases demo-text and demo-market")
		drain      = flag.Duration("drain", 30*time.Second, "graceful shutdown timeout")
		maxJob     = flag.Duration("max-job-time", 0, "cap on one run's mining wall time; requests may set tighter deadlines, never looser (0 disables)")
		maxQueue   = flag.Int("max-queue", 0, "job queue bound: fresh submissions past it get 429 + Retry-After (0 = unbounded)")
		rateLimit  = flag.Float64("rate-limit", 0, "per-client sustained requests/second; probes and /metrics are exempt (0 disables)")
		rateBurst  = flag.Int("rate-burst", 0, "per-client burst capacity for -rate-limit (0 = one second's worth)")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		debugAddr  = flag.String("debug-addr", "", "separate listen address for net/http/pprof profiling endpoints (empty disables)")
	)
	var preload []server.DatabaseSpec
	flag.Func("db", "preload a database: name=sequences.txt[,hierarchy.txt] (repeatable; paths relative to -data)", func(v string) error {
		name, files, ok := strings.Cut(v, "=")
		if !ok || name == "" || files == "" {
			return fmt.Errorf("want name=sequences.txt[,hierarchy.txt], got %q", v)
		}
		spec := server.DatabaseSpec{Name: name}
		spec.SequencesFile, spec.HierarchyFile, _ = strings.Cut(files, ",")
		preload = append(preload, spec)
		return nil
	})
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lashd: %v\n", err)
		os.Exit(2)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	srv := server.New(server.Config{
		Workers:    *workers,
		CacheBytes: *cacheBytes,
		JobHistory: *history,
		DataDir:    *dataDir,
		Logger:     logger,
		MaxJobTime: *maxJob,
		MaxQueue:   *maxQueue,
		RateLimit:  *rateLimit,
		RateBurst:  *rateBurst,
	})
	if *demo {
		preload = append(preload,
			server.DatabaseSpec{Name: "demo-text", Generator: "text", Seed: 1},
			server.DatabaseSpec{Name: "demo-market", Generator: "market", Seed: 1},
		)
	}
	for _, spec := range preload {
		info, err := srv.AddDatabase(spec)
		if err != nil {
			fatal("preload failed", "database", spec.Name, "error", err.Error())
		}
		logger.Info("database loaded", "database", info.Name, "source", info.Source,
			"sequences", info.NumSequences, "items", info.NumItems, "hierarchy_depth", info.HierarchyDepth)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr, "workers", *workers, "cache_bytes", *cacheBytes)

	// pprof lives on its own listener (opt-in) so profiling endpoints are
	// never reachable through the public API port. The explicit
	// registrations avoid importing pprof's side-effect handlers into
	// http.DefaultServeMux.
	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{Addr: *debugAddr, Handler: pprofMux(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "addr", *debugAddr, "error", err.Error())
			}
		}()
		logger.Info("pprof serving", "addr", *debugAddr)
	}

	select {
	case err := <-errc:
		fatal("listener failed", "error", err.Error())
	case <-ctx.Done():
	}

	logger.Info("shutting down", "drain_timeout", (*drain).String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Close the job manager concurrently with the HTTP drain: it refuses
	// new jobs and fails queued ones immediately, which also unblocks any
	// wait:true handlers the HTTP shutdown would otherwise stall on.
	jobsDone := make(chan error, 1)
	go func() { jobsDone <- srv.Close(shutdownCtx) }()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("http shutdown", "error", err.Error())
	}
	if debugSrv != nil {
		debugSrv.Shutdown(shutdownCtx) //nolint:errcheck // best-effort debug listener teardown
	}
	if err := <-jobsDone; err != nil && !errors.Is(err, context.Canceled) {
		logger.Warn("job drain", "error", err.Error())
	}
	logger.Info("bye")
}

// buildLogger assembles the process logger from the -log-format and
// -log-level flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
}

// pprofMux mounts the standard pprof handlers on a private mux.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
