package server

import (
	"container/list"
	"slices"
	"sync"

	"lash"
	"lash/internal/obs"
)

// CacheStats is a snapshot of the result cache counters, as reported by
// GET /v1/stats. Hits, Misses and Evictions are read from the same metric
// handles GET /metrics scrapes.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Size      int    `json:"size"`
	// Bytes is the sum of every retained result's charge, CapacityBytes the
	// configured budget (0 when there is none).
	Bytes         int64 `json:"bytes"`
	CapacityBytes int64 `json:"capacity_bytes"`
}

// resultCache is the only long-lived holder of finished mining results:
// job records, the pattern endpoints and delta resume read a result — its
// State, its memoized serving index, its frequent items and counters —
// through here and keep no pointer of their own, so the server remembers of
// a run what this file retains. A result holds its patterns twice: in
// item-id space in its State, which the next append resumes from, and by
// name in its serving index, which every pattern body renders from. The
// named list a run returns (lash.Result.Patterns) is held only until that
// index is built: the first job bodies render from it, so a reply never
// waits for the index, and then the entry and the result both drop it.
//
// The policy is one LRU list under one byte budget. add charges a result
// its State, its named list and the rest of its footprint
// (estimateResultBytes). Once the index is built, recost swaps the named
// list's charge for the index's and for the trace of the job that mined it
// (an entry keeps its job, and so its trace, past the job record). Every
// read (get, result, body, latest, resume) promotes.
// add and recost then evict from the least recently used end while the
// charges exceed the budget, but never the most recently used entry: a
// result larger than the whole budget still reaches whoever waits on it,
// and goes at the next add. An evicted result is gone for every reader at
// once — an identical resubmission re-mines, its job records answer without
// a result, the pattern endpoints answer as if it had never been mined, and
// the next append resumes from an older retained State or mines cold.
//
// A budget ≤ 0 means resubmissions always re-mine (every get is a miss)
// and, there being no budget, nothing is ever evicted.
type resultCache struct {
	budget int64

	mu    sync.Mutex
	ll    *list.List             // of *cacheEntry; front = most recently used
	items map[string]*cacheEntry // by job key
	// byDB orders each database's entries by corpus version, equal versions
	// by insertion: the last is what /v1/patterns serves by default.
	byDB  map[string][]*cacheEntry
	bytes int64

	hits, misses, evictions *obs.Counter
}

// cacheEntry is one retained result. Everything but the charge and the
// named list is immutable, so readers use what a lookup returned without
// the lock.
type cacheEntry struct {
	job    *job   // the run that mined res: its id, key, database and corpus version name the result
	optKey string // the run's canonical options without the corpus version: what a resume must match
	res    *lash.Result
	// named is res.Patterns until recost drops it, and namedBytes its share
	// of bytes. Both are guarded by the cache's lock.
	named      []lash.Pattern
	namedBytes int64
	bytes      int64
	el         *list.Element // the entry's place in the LRU list
}

// newResultCache builds a cache with the given byte budget, counting into
// the given handles.
func newResultCache(budgetBytes int64, hits, misses, evictions *obs.Counter) *resultCache {
	return &resultCache{budget: budgetBytes, ll: list.New(), items: make(map[string]*cacheEntry),
		byDB: make(map[string][]*cacheEntry), hits: hits, misses: misses, evictions: evictions}
}

// get answers a resubmission with the retained result for key. It is the
// one lookup that counts: every call is exactly one hit or one miss.
func (c *resultCache) get(key string) (*lash.Result, bool) {
	if res, ok := c.result(key); ok && c.budget > 0 {
		c.hits.Inc()
		return res, true
	}
	c.misses.Inc()
	return nil, false
}

// result returns the retained result for key: what a job record with that
// key reports.
func (c *resultCache) result(key string) (*lash.Result, bool) {
	res, _, ok := c.body(key)
	return res, ok
}

// body returns the retained result for key with its named list, nil once
// the serving index is built: what a job body with that key renders.
func (c *resultCache) body(key string) (*lash.Result, []lash.Pattern, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return nil, nil, false
	}
	c.ll.MoveToFront(e.el)
	return e.res, e.named, true
}

// latest returns the most recently mined retained result of a database at
// the given corpus version — at the highest retained one when version is 0
// — with the job that mined it.
func (c *resultCache) latest(dbName string, version int) (*job, *lash.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range slices.Backward(c.byDB[dbName]) {
		if version == 0 || e.job.version == version {
			c.ll.MoveToFront(e.el)
			return e.job, e.res, true
		}
	}
	return nil, nil, false
}

// resume returns the State a mine of db under opt can delta from: that of
// the highest retained corpus version whose State is valid for the
// snapshot, nil when no retained run left one.
func (c *resultCache) resume(dbName string, db *lash.Database, opt lash.Options) *lash.MineState {
	optKey := opt.CacheKey()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range slices.Backward(c.byDB[dbName]) {
		if e.optKey == optKey && e.res.State.ValidFor(db, opt) {
			c.ll.MoveToFront(e.el)
			return e.res.State
		}
	}
	return nil
}

// estimateResultBytes approximates what a cached result holds besides its
// State, its named list and its serving index, which are charged on their
// own: its fixed fields, and its frequent items with per-pattern and
// per-item overheads plus string bytes.
func estimateResultBytes(res *lash.Result) int64 {
	bytes := int64(256)
	for _, p := range res.FrequentItems {
		bytes += 32 // Pattern header
		for _, it := range p.Items {
			bytes += int64(len(it)) + 16
		}
	}
	return bytes
}

// namedBytes charges a named pattern list: each pattern's header and its
// names' string headers. The names themselves are the hierarchy's.
func namedBytes(ps []lash.Pattern) int64 {
	bytes := int64(len(ps)) * 32
	for _, p := range ps {
		bytes += int64(len(p.Items)) * 16
	}
	return bytes
}

// add retains the result job j mined, with its named list, as the most
// recently used entry, replacing one already held under j's key, and
// re-applies the budget.
func (c *resultCache) add(j *job, res *lash.Result) {
	e := &cacheEntry{job: j, optKey: j.options.CacheKey(), res: res,
		named: res.Patterns, namedBytes: namedBytes(res.Patterns)}
	e.bytes = estimateResultBytes(res) + e.namedBytes + res.State.SizeBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.items[j.key]; ok {
		c.removeLocked(old)
	}
	e.el = c.ll.PushFront(e)
	c.items[j.key] = e
	els := c.byDB[j.dbName]
	i := len(els)
	for i > 0 && els[i-1].job.version > j.version {
		i--
	}
	c.byDB[j.dbName] = slices.Insert(els, i, e)
	c.bytes += e.bytes
	c.evictOverBudgetLocked()
}

// recost re-charges the entry j's result was added as once its serving
// index is built: the entry drops its named list and that list's charge,
// adds bytes — the index and the trace of job j, both complete now — and
// re-applies the budget. Ignored when that entry has gone: evicted, or
// replaced by a re-mine, whose own job recosts it.
func (c *resultCache) recost(j *job, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[j.key]; ok && e.job == j {
		bytes -= e.namedBytes
		e.named, e.namedBytes = nil, 0
		e.bytes += bytes
		c.bytes += bytes
		c.evictOverBudgetLocked()
	}
}

// evictOverBudgetLocked drops least recently used entries while the cache
// exceeds its byte budget, never the most recently used one. Caller holds
// c.mu.
func (c *resultCache) evictOverBudgetLocked() {
	for c.budget > 0 && c.bytes > c.budget && c.ll.Len() > 1 {
		c.removeLocked(c.ll.Back().Value.(*cacheEntry))
		c.evictions.Inc()
	}
}

// removeLocked forgets one entry. Caller holds c.mu.
func (c *resultCache) removeLocked(e *cacheEntry) {
	c.ll.Remove(e.el)
	delete(c.items, e.job.key)
	c.bytes -= e.bytes
	els := c.byDB[e.job.dbName]
	i := slices.Index(els, e)
	c.byDB[e.job.dbName] = slices.Delete(els, i, i+1)
}

// stats snapshots the cache counters.
func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          uint64(c.hits.Value()),
		Misses:        uint64(c.misses.Value()),
		Evictions:     uint64(c.evictions.Value()),
		Size:          c.ll.Len(),
		Bytes:         c.bytes,
		CapacityBytes: max(c.budget, 0),
	}
}
