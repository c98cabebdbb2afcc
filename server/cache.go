package server

import (
	"container/list"
	"sync"

	"lash"
	"lash/internal/obs"
)

// numCacheShards is the fixed shard count of the result cache. Keys spread
// across shards by hash, so concurrent lookups on different keys contend on
// different locks.
const numCacheShards = 8

// CacheShardStats is one shard's slice of the result-cache counters.
type CacheShardStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Size      int    `json:"size"`
	Bytes     int64  `json:"bytes"`
}

// CacheStats is a snapshot of the result cache counters, as reported by
// GET /v1/stats. The top-level counters are the sums over Shards.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Size      int    `json:"size"`
	// Bytes and CapacityBytes report the byte budget: Bytes is the sum of
	// every cached result's charge (its serving index's exact SizeBytes
	// plus the estimated result footprint), CapacityBytes the configured
	// budget (0 when the cache is disabled).
	Bytes         int64             `json:"bytes"`
	CapacityBytes int64             `json:"capacity_bytes"`
	Shards        []CacheShardStats `json:"shards,omitempty"`
}

// resultCache is a sharded LRU cache of mining results keyed by database
// name + canonical options (see jobKey), bounded by a byte budget rather
// than an entry count: every entry is charged its serving-index SizeBytes
// plus an estimate of the raw result, and each shard evicts least recently
// used entries once its slice of the budget is exceeded. An entry's charge
// starts as a cheap estimate at insertion (insertion happens under the job
// manager's lock; building the index there would stall it) and is corrected
// by recost once the manager's index-build goroutine knows the exact size.
//
// A budget ≤ 0 disables caching: every lookup is a miss, nothing is stored.
// The hit/miss/eviction counters exist twice by design: per shard (plain
// ints under the shard lock, summed by stats for /v1/stats) and as obs
// handles for GET /metrics; instrument swaps the latter for registry-backed
// ones before the cache sees traffic.
type resultCache struct {
	shardBudget int64 // byte budget per shard; ≤ 0 disables the cache
	shards      [numCacheShards]cacheShard

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
}

type cacheShard struct {
	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	bytes int64

	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key   string
	res   *lash.Result
	bytes int64
}

// newResultCache builds a cache with the given total byte budget, split
// evenly across the shards.
func newResultCache(budgetBytes int64) *resultCache {
	c := &resultCache{
		hits:      &obs.Counter{},
		misses:    &obs.Counter{},
		evictions: &obs.Counter{},
	}
	if budgetBytes > 0 {
		c.shardBudget = (budgetBytes + numCacheShards - 1) / numCacheShards
	}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[string]*list.Element)
	}
	return c
}

// instrument replaces the cache's private obs counters with registry-backed
// ones. Call it before the cache sees traffic.
func (c *resultCache) instrument(hits, misses, evictions *obs.Counter) {
	c.hits, c.misses, c.evictions = hits, misses, evictions
}

// shardFor hashes a job key to its shard (FNV-1a).
func (c *resultCache) shardFor(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%numCacheShards]
}

// get returns the cached result for key, promoting it to most recently
// used in its shard. Every call counts as exactly one hit or one miss.
func (c *resultCache) get(key string) (*lash.Result, bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[key]
	if !ok {
		sh.misses++
		c.misses.Inc()
		return nil, false
	}
	sh.hits++
	c.hits.Inc()
	sh.ll.MoveToFront(el)
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
// recently used entries if the shard's slice of the budget is exceeded.
func (c *resultCache) add(key string, res *lash.Result) {
	if c.shardBudget <= 0 {
		return
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	bytes := estimateResultBytes(res)
	if el, ok := sh.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		sh.bytes += bytes - ent.bytes
		ent.res, ent.bytes = res, bytes
		sh.ll.MoveToFront(el)
	} else {
		sh.items[key] = sh.ll.PushFront(&cacheEntry{key: key, res: res, bytes: bytes})
		sh.bytes += bytes
	}
	c.evictOverBudgetLocked(sh)
}

// recost corrects a cached entry's byte charge once its exact size is
// known (the estimate from add plus the serving index's SizeBytes), then
// re-applies the budget. Missing keys — the entry may have been evicted in
// the meantime — are ignored.
func (c *resultCache) recost(key string, bytes int64) {
	if c.shardBudget <= 0 {
		return
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[key]
	if !ok {
		return
	}
	ent := el.Value.(*cacheEntry)
	sh.bytes += bytes - ent.bytes
	ent.bytes = bytes
	c.evictOverBudgetLocked(sh)
}

// evictOverBudgetLocked drops least recently used entries while the shard
// exceeds its byte budget. Caller holds sh.mu.
func (c *resultCache) evictOverBudgetLocked(sh *cacheShard) {
	for sh.ll.Len() > 0 && sh.bytes > c.shardBudget {
		oldest := sh.ll.Back()
		ent := oldest.Value.(*cacheEntry)
		sh.ll.Remove(oldest)
		delete(sh.items, ent.key)
		sh.bytes -= ent.bytes
		sh.evictions++
		c.evictions.Inc()
	}
}

// stats sums the per-shard counters into one snapshot, shard detail
// included.
func (c *resultCache) stats() CacheStats {
	s := CacheStats{Shards: make([]CacheShardStats, numCacheShards)}
	if c.shardBudget > 0 {
		s.CapacityBytes = c.shardBudget * numCacheShards
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		ss := CacheShardStats{
			Hits:      sh.hits,
			Misses:    sh.misses,
			Evictions: sh.evictions,
			Size:      sh.ll.Len(),
			Bytes:     sh.bytes,
		}
		sh.mu.Unlock()
		s.Shards[i] = ss
		s.Hits += ss.Hits
		s.Misses += ss.Misses
		s.Evictions += ss.Evictions
		s.Size += ss.Size
		s.Bytes += ss.Bytes
	}
	return s
}
