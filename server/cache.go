package server

import (
	"container/list"
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
	// Bytes and CapacityBytes report the byte budget: Bytes is the sum of
	// every cached result's charge (its serving index's exact SizeBytes
	// plus the estimated result footprint), CapacityBytes the configured
	// budget (0 when the cache is disabled).
	Bytes         int64 `json:"bytes"`
	CapacityBytes int64 `json:"capacity_bytes"`
}

// resultCache is an LRU cache of mining results keyed by database name +
// corpus version + canonical options (see jobKey), bounded by a byte budget
// rather than an entry count: every entry is charged its serving-index
// SizeBytes plus an estimate of the raw result, and least recently used
// entries are evicted once the budget is exceeded. An entry's charge starts
// as a cheap estimate at insertion (insertion happens under the job
// manager's lock; building the index there would stall it) and is corrected
// by recost once the manager's index-build goroutine knows the exact size.
//
// A budget ≤ 0 disables caching: every lookup is a miss, nothing is stored.
// instrument swaps the hit/miss/eviction counters for registry-backed ones
// before the cache sees traffic.
type resultCache struct {
	budget int64 // byte budget; ≤ 0 disables the cache

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	bytes int64

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
}

type cacheEntry struct {
	key   string
	res   *lash.Result
	bytes int64
}

// newResultCache builds a cache with the given byte budget.
func newResultCache(budgetBytes int64) *resultCache {
	return &resultCache{
		budget:    budgetBytes,
		ll:        list.New(),
		items:     make(map[string]*list.Element),
		hits:      &obs.Counter{},
		misses:    &obs.Counter{},
		evictions: &obs.Counter{},
	}
}

// instrument replaces the cache's private obs counters with registry-backed
// ones. Call it before the cache sees traffic.
func (c *resultCache) instrument(hits, misses, evictions *obs.Counter) {
	c.hits, c.misses, c.evictions = hits, misses, evictions
}

// get returns the cached result for key, promoting it to most recently
// used. Every call counts as exactly one hit or one miss.
func (c *resultCache) get(key string) (*lash.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// estimateResultBytes approximates a result's memory footprint before its
// serving index exists: per-pattern and per-item overheads plus string
// bytes. recost replaces the guess with index-exact accounting later; the
// estimate only has to be sane enough to keep a burst of insertions from
// blowing the budget in the window before their indexes are built.
func estimateResultBytes(res *lash.Result) int64 {
	bytes := int64(256)
	for _, p := range res.Patterns {
		bytes += 32 // Pattern header
		for _, it := range p.Items {
			bytes += int64(len(it)) + 16
		}
	}
	for _, p := range res.FrequentItems {
		bytes += 32
		for _, it := range p.Items {
			bytes += int64(len(it)) + 16
		}
	}
	return bytes
}

// add stores a result charged at its estimated size, evicting least
// recently used entries if the budget is exceeded.
func (c *resultCache) add(key string, res *lash.Result) {
	if c.budget <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	bytes := estimateResultBytes(res)
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.bytes += bytes - ent.bytes
		ent.res, ent.bytes = res, bytes
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, bytes: bytes})
		c.bytes += bytes
	}
	c.evictOverBudgetLocked()
}

// recost corrects a cached entry's byte charge once its exact size is
// known (the estimate from add plus the serving index's SizeBytes), then
// re-applies the budget. Missing keys — the entry may have been evicted in
// the meantime — are ignored.
func (c *resultCache) recost(key string, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	ent := el.Value.(*cacheEntry)
	c.bytes += bytes - ent.bytes
	ent.bytes = bytes
	c.evictOverBudgetLocked()
}

// evictOverBudgetLocked drops least recently used entries while the cache
// exceeds its byte budget. Caller holds c.mu.
func (c *resultCache) evictOverBudgetLocked() {
	for c.ll.Len() > 0 && c.bytes > c.budget {
		oldest := c.ll.Back()
		ent := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.items, ent.key)
		c.bytes -= ent.bytes
		c.evictions.Inc()
	}
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
