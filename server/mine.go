package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"lash/internal/obs"
)

// writeJobResult answers 200 with the job's view, including the mined
// result once the job is done, for as long as the cache retains it (it
// entered the cache before the job turned done). The first such reply of a
// job that ran is its trace's respond span: rendering the result and
// writing it out, which the span's cached result is then charged for.
func (s *Server) writeJobResult(w http.ResponseWriter, j *job) {
	v := s.jobs.view(j)
	if v.Status == JobDone {
		if res, named, ok := s.jobs.cache.body(j.key); ok {
			begin := time.Now()
			newWireWriter(w).writeJobBody(v, res, named)
			if j.trace != nil && j.responded.CompareAndSwap(false, true) {
				j.trace.Record(obs.SpanRecord{Name: "respond", Partition: -1, Start: begin, Duration: time.Since(begin)}, nil)
				s.jobs.cache.chargeTrace(j)
			}
			return
		}
	}
	writeJSON(w, http.StatusOK, v)
}

// submitMine decodes a mine request, resolves its database and corpus
// version, and submits it — the one submission step of POST /v1/mine and
// POST /v1/mine/stream — writing the error response itself on failure.
func (s *Server) submitMine(w http.ResponseWriter, r *http.Request) (MineRequest, *job, bool) {
	var req MineRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, bodyStatus(err), err)
		return req, nil, false
	}
	if req.Database == "" {
		writeError(w, http.StatusBadRequest, errors.New("database is required"))
		return req, nil, false
	}
	if req.Version < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad version %d", req.Version))
		return req, nil, false
	}
	db, dbOK, verOK := s.registry.getVersion(req.Database, req.Version)
	switch {
	case !dbOK:
		writeError(w, http.StatusNotFound, fmt.Errorf("%w %q", errDBMissing, req.Database))
		return req, nil, false
	case !verOK:
		writeError(w, http.StatusNotFound,
			fmt.Errorf("database %q has no corpus version %d", req.Database, req.Version))
		return req, nil, false
	}
	opt, err := req.Options.toOptions()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return req, nil, false
	}
	j, err := s.jobs.submit(r.Context(), req.Database, db, opt)
	if err != nil {
		writeError(w, statusFor(err), err)
		return req, nil, false
	}
	return req, j, true
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	req, j, ok := s.submitMine(w, r)
	if !ok {
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

// handleJobTrace answers GET /v1/jobs/{id}/trace with the job's span forest
// in `lash -trace-out`'s schema (obs.TraceDoc): the queue wait, the "mine"
// span of its run with the library's jobs, phases, tasks and partitions and
// the assembly after them beneath it, and the serving-index build. A job that failed or was
// cancelled has what it recorded before it ended; a cache hit mined
// nothing and has an empty forest.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", errJobMissing, r.PathValue("id")))
		return
	}
	tr := j.trace.TracerOf()
	w.Header().Set("Content-Type", "application/json")
	obs.WriteTraceJSON(w, tr.Spans(), tr.Dropped()) //nolint:errcheck // nothing to do about a broken client pipe
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

// handleMineStream answers POST /v1/mine/stream (contract in the package
// doc): it submits as handleMine does, waits for the job and sends its
// cached result. Only a refused submission gets an error status; the
// headers go out before the wait, so anything later reaches the trailer.
func (s *Server) handleMineStream(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	_, j, ok := s.submitMine(w, r)
	if !ok {
		return
	}
	enc, flush := startNDJSON(w)
	flush() // the headers reach the client before the wait
	select {
	case <-j.done:
	case <-r.Context().Done():
		return
	}
	trailer := StreamTrailer{Done: true, JobID: j.id}
	if res, err := s.jobs.resultOf(j); err != nil {
		trailer.Error = err.Error()
	} else {
		n, ok := sendIndex(w, flush, res, "}\n")
		if !ok {
			return
		}
		trailer.Patterns = n
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
	trailer.RuntimeMS = time.Since(start).Milliseconds()
	enc.Encode(trailer) //nolint:errcheck // nothing to do about a broken client pipe
	flush()
}
