package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"

	"lash"
	"lash/internal/pindex"
)

// This file is the live half of the pattern-serving tier:
// GET /v1/patterns/subscribe replays a database's latest completed serving
// index as NDJSON, then follows the database's jobs, sending each one's
// result — the one /v1/patterns?job= serves — once the job completes. A
// subscription mines nothing itself. POST /v1/mine/stream sends one job's
// result the same way (mine.go).

// startNDJSON sets a streaming response's headers and returns its encoder,
// and a flush that pushes what was encoded to the client.
func startNDJSON(w http.ResponseWriter) (*json.Encoder, func()) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	flusher, _ := w.(http.Flusher)
	return json.NewEncoder(w), func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// sendIndex writes res's patterns to w as NDJSON records in serving order —
// the order /v1/patterns lists — and returns how many it wrote. Each record
// is rendered by appendPattern with tail closing it: "}\n" gives a
// PatternView, `,"replay":true}` plus a newline a subscribe record. It walks
// res's serving index, which is immutable, so it needs no lock. It writes
// and flushes every 64 records: every record would thrash syscalls on dense
// results, never would defeat streaming. False means the client is gone.
func sendIndex(w io.Writer, flush func(), res *lash.Result, tail string) (int, bool) {
	ix := res.Index()
	ids, _ := ix.Search(nil, pindex.Query{Level: pindex.NoLevel}, 0, -1)
	var buf []byte
	var items []string
	for n, id := range ids {
		items = ix.AppendItems(items[:0], id)
		buf = appendPattern(buf, items, ix.Support(id), tail)
		if (n+1)%64 == 0 {
			if _, err := w.Write(buf); err != nil {
				return n, false
			}
			buf = buf[:0]
			flush()
		}
	}
	_, err := w.Write(buf)
	return len(ids), err == nil
}

// resultOf returns a job's cached result once the job is done, or the reason
// it has none to send: the job failed or was cancelled, or the cache evicted
// its result. done is closed after the job's status, error and cached result
// are final, so they are read here without the manager's lock.
func (m *manager) resultOf(j *job) (*lash.Result, error) {
	if j.status != JobDone {
		return nil, fmt.Errorf("job %s %s: %v", j.id, j.status, j.err)
	}
	res, ok := m.cache.result(j.key)
	if !ok {
		return nil, fmt.Errorf("job %s's result was evicted before it was sent", j.id)
	}
	return res, nil
}

// follow returns the newest job of dbName that a subscription begun at since
// has not delivered yet: one still queued or running, or one that finished
// after the subscription began. Cache-hit pseudo-jobs answer with another
// job's result, so they are not followed. Nil when no job is left to
// deliver.
func (m *manager) follow(dbName string, since time.Time, delivered map[string]bool) *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range slices.Backward(m.order) {
		j := m.jobs[id]
		if j.dbName != dbName || j.cached || delivered[j.id] {
			continue
		}
		if j.status == JobQueued || j.status == JobRunning || !j.finished.Before(since) {
			return j
		}
	}
	return nil
}

// SubscribeMarker is the corpus-version marker line of
// GET /v1/patterns/subscribe: it precedes the records mined from that
// version, and a fresh marker mid-stream means an append installed a new
// version and the subscription is continuing with a job that mined it.
// Markers are distinguishable from pattern records ("items") and the
// trailer ("done") by their lone "version" field.
type SubscribeMarker struct {
	Version int `json:"version"`
}

// SubscribeTrailer is the final NDJSON record of GET /v1/patterns/subscribe.
type SubscribeTrailer struct {
	Done     bool   `json:"done"` // always true
	Database string `json:"database"`
	// CorpusVersion is the last corpus version the subscription served.
	CorpusVersion int `json:"corpus_version,omitempty"`
	// ReplayJobID/Replayed identify the replay phase: the completed job
	// whose index was replayed and how many patterns it held.
	ReplayJobID string `json:"replay_job_id,omitempty"`
	Replayed    int    `json:"replayed"`
	// LiveJobID/Live identify the live phase: the last job followed and how
	// many patterns all followed jobs delivered.
	LiveJobID string `json:"live_job_id,omitempty"`
	Live      int    `json:"live"`
	Error     string `json:"error,omitempty"`
}

// handleSubscribe answers GET /v1/patterns/subscribe?db=NAME as NDJSON:
// first every pattern of the database's latest completed result (marked
// "replay":true), then the result of every job of the database that is
// queued or running, or completes, while the subscription lasts ("replay":
// false), newest job first, and finally exactly one trailer (marked
// "done":true). A followed job's records arrive when it completes — not per
// partition as it mines — and every result is sent from its serving index in
// serving order, the order /v1/patterns lists. A corpus-version marker
// ({"version":N}) precedes each result whose version differs from the one
// before, so an append that installs a new version mid-subscription does
// not end the stream: a job mining the new version is followed next.
//
// A subscriber mines nothing and takes no worker slot, queue slot or job
// record: -max-queue never refuses one, GET /v1/jobs does not list it, and
// /v1/stats counts only the jobs it follows. Restricted (closed/maximal)
// runs are followed like any other. A followed job that fails or is
// cancelled, or whose result the cache evicted before it could be sent, ends
// the subscription with the reason in the trailer's "error". A database with
// neither a completed result nor a job in flight answers 404; client
// disconnect ends the subscription cleanly.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	v := r.URL.Query()
	dbName := v.Get("db")
	if dbName == "" {
		writeError(w, http.StatusBadRequest, errors.New("db query parameter is required"))
		return
	}
	if _, ok := s.registry.get(dbName); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w %q", errDBMissing, dbName))
		return
	}
	s.metrics.pindexQuery("subscribe")

	// since is taken before the replay lookup, so a job finishing meanwhile is
	// either the replayed result or finished after since; the replayed job
	// counts as delivered, so it is never sent twice.
	since := time.Now().UTC()
	delivered := make(map[string]bool)
	latest, res, hasLatest := s.jobs.cache.latest(dbName, 0)
	if hasLatest {
		delivered[latest.id] = true
	}
	next := s.jobs.follow(dbName, since, delivered)
	if !hasLatest && next == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("database %q has nothing mined and nothing mining (POST /v1/mine first)", dbName))
		return
	}

	enc, flush := startNDJSON(w)
	trailer := SubscribeTrailer{Done: true, Database: dbName}
	curVer := 0 // last version marker emitted

	// send writes one result, behind a marker when its corpus version
	// differs from the last one sent. False means the client is gone.
	send := func(version int, res *lash.Result, replay bool, count *int) bool {
		if version != curVer {
			curVer = version
			if enc.Encode(SubscribeMarker{Version: version}) != nil {
				return false
			}
		}
		n, ok := sendIndex(w, flush, res, `,"replay":`+strconv.FormatBool(replay)+"}\n")
		*count += n
		return ok
	}

	if hasLatest {
		trailer.ReplayJobID = latest.id
		if !send(latest.version, res, true, &trailer.Replayed) {
			return
		}
	}
	for j := next; j != nil; j = s.jobs.follow(dbName, since, delivered) {
		delivered[j.id] = true
		trailer.LiveJobID = j.id
		flush() // everything so far, the headers included, reaches the client before the wait
		select {
		case <-j.done:
		case <-r.Context().Done():
			return
		}
		res, err := s.jobs.resultOf(j)
		if err != nil {
			trailer.Error = err.Error()
			break
		}
		if !send(j.version, res, false, &trailer.Live) {
			return
		}
	}

	trailer.CorpusVersion = curVer
	enc.Encode(trailer) //nolint:errcheck // nothing to do about a broken client pipe
	flush()
}
