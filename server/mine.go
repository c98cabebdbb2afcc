package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"lash"
)

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
