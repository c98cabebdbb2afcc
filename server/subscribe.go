package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"lash"
	"lash/internal/pindex"
)

// This file is the live half of the pattern-serving tier:
// GET /v1/patterns/subscribe replays a database's latest completed serving
// index as NDJSON, then follows a still-mining job live. The live tail
// comes from a per-job subscription hub — one streaming re-mine, a stream
// job like any other, feeding an append-only pattern log that
// any number of subscribers replay and tail at their own pace, each
// delivered every pattern exactly once (positions into an append-only log
// cannot skip or repeat).

// subHub is one job's subscription hub: an append-only pattern log fed by
// a single streaming run, plus a condition variable that wakes tailing
// subscribers on every append and on completion.
type subHub struct {
	mu   sync.Mutex
	cond *sync.Cond
	log  []lash.Pattern
	done bool
	err  error
}

func newSubHub() *subHub {
	h := &subHub{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// append adds one pattern to the log and wakes all tails.
func (h *subHub) append(p lash.Pattern) {
	h.mu.Lock()
	h.log = append(h.log, p)
	h.mu.Unlock()
	h.cond.Broadcast()
}

// finish marks the feed complete (err nil on success) and wakes all tails.
func (h *subHub) finish(err error) {
	h.mu.Lock()
	h.done = true
	h.err = err
	h.mu.Unlock()
	h.cond.Broadcast()
}

// wake broadcasts without changing state — context.AfterFunc uses it to
// unblock a tail whose client went away.
func (h *subHub) wake() { h.cond.Broadcast() }

// next blocks until the log grows past pos, the feed finishes, or ctx is
// done, and returns the log entries from pos on (a stable view: the log is
// append-only and entries are never mutated) plus the feed state. A
// (nil, true, err) return with no new entries means the tail is drained.
func (h *subHub) next(ctx context.Context, pos int) (chunk []lash.Pattern, done bool, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.log) <= pos && !h.done && ctx.Err() == nil {
		h.cond.Wait()
	}
	return h.log[pos:], h.done, h.err
}

// streamableOptions strips a job's resume state — server jobs delta-mine
// whenever they can, but streaming runs cannot (ValidateStream's contract)
// — leaving the options the feeder stream runs with.
func streamableOptions(opt lash.Options) lash.Options {
	opt.Resume = nil
	return opt
}

// follow attaches to the most recent queued or running batch job of dbName
// whose options can stream, creating the job's hub — and the one stream job
// that feeds it — on first use. dbAt resolves the corpus version the job
// was pinned to (appends never retarget a run, so neither may its live
// feed); jobs in skip are ignored (a subscriber passes the jobs it already
// tailed, so re-following after an append can only move forward). Returns
// nils when nothing suitable is in flight, or when the feeder is refused
// admission (the manager is draining, or its queue is full).
func (m *manager) follow(dbName string, dbAt func(version int) *lash.Database, skip map[string]bool) (*job, *subHub) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var j *job
	for i := len(m.order) - 1; i >= 0; i-- {
		cand := m.jobs[m.order[i]]
		// Stream jobs — feeders included — keep nothing to replay and are
		// never themselves followed.
		if cand.stream || cand.dbName != dbName || skip[cand.id] || (cand.status != JobQueued && cand.status != JobRunning) {
			continue
		}
		// Restricted runs cannot stream (ValidateStream's contract), so
		// they cannot be followed live either.
		if streamableOptions(cand.options).ValidateStream() != nil {
			continue
		}
		j = cand
		break
	}
	if j == nil {
		return nil, nil
	}
	if hub, ok := m.hubs[j.id]; ok {
		return j, hub
	}
	db := dbAt(j.version)
	if db == nil {
		return nil, nil
	}
	// The feeder is one ordinary stream job: it passes admission, queues
	// for a worker slot, counts into the stats, and drains on shutdown like
	// every other. It runs under the manager's base context — not the
	// followed job's, which is released the moment that job finishes — so
	// a subscriber keeps receiving the tail even if the async job completes
	// first. The hub outlives its map entry: removal only stops NEW
	// subscribers from attaching; attached ones drain the log to done.
	feeder, err := m.admitLocked(m.baseCtx, "", j.key, dbName, j.version, streamableOptions(j.options), true)
	if err != nil {
		return nil, nil
	}
	hub := newSubHub()
	m.hubs[j.id] = hub
	go func() {
		_, err := m.run(feeder, db, func(p lash.Pattern) error {
			hub.append(p)
			return nil
		})
		m.mu.Lock()
		delete(m.hubs, j.id)
		m.mu.Unlock()
		hub.finish(err)
	}()
	return j, hub
}

// SubscribeRecord is one NDJSON line of GET /v1/patterns/subscribe before
// the trailer: a pattern, marked replay:true when it came from the latest
// completed result's index and replay:false when delivered live from a
// still-mining run.
type SubscribeRecord struct {
	Items   []string `json:"items"`
	Support int64    `json:"support"`
	Replay  bool     `json:"replay"`
}

// SubscribeMarker is the corpus-version marker line of
// GET /v1/patterns/subscribe: it precedes the records mined from that
// version, and a fresh marker mid-stream means an append installed a new
// version and the subscription is continuing with its live run. Markers are
// distinguishable from pattern records ("items") and the trailer ("done")
// by their lone "version" field.
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
	// LiveJobID/Live identify the live phase: the in-flight job that was
	// followed and how many patterns its run delivered.
	LiveJobID string `json:"live_job_id,omitempty"`
	Live      int    `json:"live"`
	Error     string `json:"error,omitempty"`
}

// handleSubscribe answers GET /v1/patterns/subscribe?db=NAME as NDJSON:
// first every pattern of the database's latest completed result (replayed
// from its serving index in serving order, marked "replay":true), then —
// if a job for the database is still queued or running — the patterns of
// that run delivered live as its partitions complete ("replay":false, in
// partition-completion order), and finally exactly one trailer (marked
// "done":true). Every phase is preceded by a corpus-version marker line
// ({"version":N}) whenever the version changes; in particular an append
// that installs a new version mid-subscription does not end the stream —
// when a run against the new version is in flight, a fresh marker is
// emitted and the subscription continues with its live tail. A database
// with neither a completed result nor an in-flight job answers 404; client
// disconnect ends the tail cleanly.
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

	// dbAt pins each followed run's feeder to the corpus version the run
	// itself mines — old versions stay resolvable after appends.
	dbAt := func(version int) *lash.Database {
		db, _, ok := s.registry.getVersion(dbName, version)
		if !ok {
			return nil
		}
		return db
	}

	followed := make(map[string]bool)
	latest, res, hasLatest := s.jobs.cache.latest(dbName, 0)
	liveJob, hub := s.jobs.follow(dbName, dbAt, followed)
	if !hasLatest && hub == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("database %q has nothing mined and nothing mining (POST /v1/mine first)", dbName))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	trailer := SubscribeTrailer{Done: true, Database: dbName}
	curVer := 0 // last version marker emitted

	// Phase 1: replay. The index is immutable, so the walk needs no locks
	// and the replay is a consistent snapshot no matter what is mining.
	if hasLatest {
		trailer.ReplayJobID = latest.id
		curVer = latest.version
		if err := enc.Encode(SubscribeMarker{Version: curVer}); err != nil {
			return
		}
		ix := res.Index()
		ids, _ := ix.Search(nil, pindex.Query{Level: pindex.NoLevel}, 0, -1)
		for _, id := range ids {
			if err := enc.Encode(SubscribeRecord{Items: ix.Items(id), Support: ix.Support(id), Replay: true}); err != nil {
				return // client gone mid-replay; nothing useful left to do
			}
			trailer.Replayed++
			if trailer.Replayed%64 == 0 && flusher != nil {
				flusher.Flush()
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
	}

	// Phase 2: live tails. Positions into each hub's append-only log make
	// delivery exactly-once per subscription: every loop turn resumes at
	// the first undelivered position. After a tail drains, re-following
	// picks up a run mining the next corpus version (an append arrived
	// mid-subscription) — the followed set only ever moves forward, so a
	// job already tailed is never tailed twice.
	ctx := r.Context()
	for hub != nil {
		followed[liveJob.id] = true
		trailer.LiveJobID = liveJob.id
		if liveJob.version != curVer {
			curVer = liveJob.version
			if err := enc.Encode(SubscribeMarker{Version: curVer}); err != nil {
				return
			}
		}
		stop := context.AfterFunc(ctx, hub.wake)
		pos := 0
		for {
			chunk, done, err := hub.next(ctx, pos)
			for _, p := range chunk {
				if encErr := enc.Encode(SubscribeRecord{Items: p.Items, Support: p.Support, Replay: false}); encErr != nil {
					stop()
					return
				}
				trailer.Live++
			}
			pos += len(chunk)
			if len(chunk) > 0 && flusher != nil {
				flusher.Flush()
			}
			if ctx.Err() != nil {
				stop()
				return // client gone; the hub keeps feeding other subscribers
			}
			if done {
				if err != nil {
					trailer.Error = err.Error()
				}
				break
			}
		}
		stop()
		if trailer.Error != "" {
			break
		}
		liveJob, hub = s.jobs.follow(dbName, dbAt, followed)
	}

	trailer.CorpusVersion = curVer
	enc.Encode(trailer) //nolint:errcheck // nothing to do about a broken client pipe
	if flusher != nil {
		flusher.Flush()
	}
}
