package server

import (
	"context"
	"fmt"
	"time"

	"lash"
	"lash/internal/obs"
)

// jobKey identifies equivalent mining requests: same database, same corpus
// version, same canonical options. The version is part of the identity —
// results mined against an old snapshot stay cached and servable after an
// append, and a request against the new version is never answered from a
// stale entry. It is also how a finished job's record finds its result.
func jobKey(dbName string, version int, opt lash.Options) string {
	return dbName + "@v" + fmt.Sprint(version) + "|" + opt.CacheKey()
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
// (singleflight); otherwise a fresh job passes admission and is queued on
// the worker pool.
func (m *manager) submit(ctx context.Context, dbName string, db *lash.Database, opt lash.Options) (*job, error) {
	version := db.Version()
	key := jobKey(dbName, version, opt)
	reqID := requestIDFrom(ctx)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed { // a draining server refuses even what it could answer
		return nil, errShutdown
	}

	if _, ok := m.cache.get(key); ok {
		j := m.newJobLocked(key, dbName, version, opt)
		j.status = JobDone
		j.cached = true
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

	// Only now would a fresh job join the queue. Cache hits and coalesced
	// submits are always admitted above — they cost no queue slot — so
	// saturation never degrades already-answerable requests.
	j, err := m.admitLocked(reqID, key, dbName, version, opt)
	if err != nil {
		return nil, err
	}
	// Resume from the newest retained state that is valid for this snapshot,
	// so an append re-mines only the partitions it dirties. Resume does not
	// affect the job key or the cached result — Canonical zeroes it, and a
	// delta run is differentially identical to a cold one.
	j.options.Resume = m.cache.resume(dbName, db, opt)
	m.inflight[key] = j
	go m.run(j, db)
	return j, nil
}

// admitLocked is the one admission step of every fresh run: a draining
// manager refuses it with errShutdown and a full queue with errOverloaded
// (429) instead of letting the backlog grow unbounded; otherwise the run
// gets its record, queued and counted, with the server's policies applied to
// its options. The caller holds m.mu and must hand the job to run, which
// releases the wait-group count taken here.
func (m *manager) admitLocked(reqID, key, dbName string, version int, opt lash.Options) (*job, error) {
	if m.closed {
		return nil, errShutdown
	}
	if m.maxQueue > 0 {
		if queued := int(m.met.jobsQueued.Value()); queued >= m.maxQueue {
			return nil, fmt.Errorf("%w: %d jobs queued (bound %d)", errOverloaded, queued, m.maxQueue)
		}
	}
	j := m.newJobLocked(key, dbName, version, m.applyPolicies(opt))
	j.status = JobQueued
	j.trace = &obs.Run{Tracer: obs.NewTracer(0)}
	m.met.jobsSubmitted.Inc()
	m.met.jobsQueued.Inc()
	m.wg.Add(1)
	m.log.Info("job queued", "job_id", j.id, "request_id", reqID, "database", dbName)
	return j, nil
}

// newJobLocked allocates and registers a job record, pruning the oldest
// terminal records past the retention bound. The job's context derives from
// the manager's, so shutdown cancels it. Caller holds m.mu.
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
