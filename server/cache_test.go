package server

import (
	"fmt"
	"testing"

	"lash"
)

func resultN(n int64) *lash.Result {
	return &lash.Result{Patterns: []lash.Pattern{{Items: []string{"x"}, Support: n}}}
}

// shardKeys returns n distinct keys that all hash to the same cache shard,
// so LRU-order tests see one deterministic eviction list instead of being
// spread across shards.
func shardKeys(c *resultCache, n int) []string {
	want := c.shardFor("probe")
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		if c.shardFor(k) == want {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestCacheLRUByteBudget(t *testing.T) {
	// Budget two single-pattern results per shard: one resultN estimate is
	// 256 + 32 + 1 + 16 = 305 bytes; give each shard room for two but not
	// three (total budget = per-shard × numCacheShards).
	c := newResultCache(700 * numCacheShards)
	k := shardKeys(c, 3)
	c.add(k[0], resultN(1))
	c.add(k[1], resultN(2))
	if _, ok := c.get(k[0]); !ok { // promotes k0 over k1
		t.Fatal("k0 missing")
	}
	c.add(k[2], resultN(3)) // over budget: evicts k1, the least recently used
	if _, ok := c.get(k[1]); ok {
		t.Error("k1 survived eviction")
	}
	if _, ok := c.get(k[0]); !ok {
		t.Error("k0 evicted out of LRU order")
	}
	if _, ok := c.get(k[2]); !ok {
		t.Error("k2 missing")
	}
	s := c.stats()
	if s.Evictions != 1 || s.Size != 2 {
		t.Errorf("stats = %+v, want 1 eviction, size 2", s)
	}
	// hits: k0, k0, k2 = 3; misses: the evicted k1 = 1
	if s.Hits != 3 || s.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1", s.Hits, s.Misses)
	}
	if s.CapacityBytes != 700*numCacheShards {
		t.Errorf("CapacityBytes = %d, want %d", s.CapacityBytes, 700*numCacheShards)
	}
}

func TestCacheUpdateExisting(t *testing.T) {
	c := newResultCache(1 << 20)
	c.add("a", resultN(1))
	before := c.stats().Bytes
	c.add("a", resultN(9))
	res, ok := c.get("a")
	if !ok || res.Patterns[0].Support != 9 {
		t.Fatalf("re-add did not replace the entry: %+v", res)
	}
	s := c.stats()
	if s.Size != 1 || s.Evictions != 0 {
		t.Errorf("stats = %+v, want size 1, no evictions", s)
	}
	if s.Bytes != before {
		t.Errorf("bytes = %d after same-size re-add, want %d", s.Bytes, before)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newResultCache(0)
	c.add("a", resultN(1))
	if _, ok := c.get("a"); ok {
		t.Error("disabled cache stored an entry")
	}
	if s := c.stats(); s.Misses != 1 || s.Size != 0 || s.CapacityBytes != 0 {
		t.Errorf("stats = %+v, want 1 miss, size 0, no capacity", s)
	}
}

func TestCacheRecost(t *testing.T) {
	c := newResultCache(1000 * numCacheShards)
	k := shardKeys(c, 2)
	c.add(k[0], resultN(1))
	c.add(k[1], resultN(2))
	if s := c.stats(); s.Size != 2 {
		t.Fatalf("size = %d, want 2", s.Size)
	}
	// Recosting k0 far above the shard budget evicts from the LRU end —
	// k0 itself is the least recently used, so it goes.
	c.recost(k[0], 10_000)
	if _, ok := c.get(k[0]); ok {
		t.Error("k0 survived recost past the budget")
	}
	if _, ok := c.get(k[1]); !ok {
		t.Error("k1 evicted although within budget after k0 left")
	}
	// Recosting a missing key is a no-op.
	c.recost("never-added", 123)
	if s := c.stats(); s.Size != 1 {
		t.Errorf("size = %d after no-op recost, want 1", s.Size)
	}
}

func TestCacheManyEvictions(t *testing.T) {
	// Per-shard budget fits exactly one resultN estimate (305 bytes), so
	// every shard holds its most recent entry and evicts the rest.
	c := newResultCache(400 * numCacheShards)
	for i := range 64 {
		c.add(fmt.Sprintf("k%d", i), resultN(int64(i)))
	}
	s := c.stats()
	if s.Size+int(s.Evictions) != 64 {
		t.Errorf("size %d + evictions %d != 64 adds", s.Size, s.Evictions)
	}
	if s.Size < 1 || s.Size > numCacheShards {
		t.Errorf("size = %d, want between 1 and %d (one per touched shard)", s.Size, numCacheShards)
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n, bytes := sh.ll.Len(), sh.bytes
		sh.mu.Unlock()
		if n > 1 {
			t.Errorf("shard %d holds %d entries, budget fits 1", i, n)
		}
		if bytes > 400 {
			t.Errorf("shard %d holds %d bytes, budget 400", i, bytes)
		}
	}
}

func TestCacheShardStatsSum(t *testing.T) {
	c := newResultCache(1 << 20)
	for i := range 32 {
		c.add(fmt.Sprintf("k%d", i), resultN(int64(i)))
		c.get(fmt.Sprintf("k%d", i))
	}
	c.get("missing")
	s := c.stats()
	if len(s.Shards) != numCacheShards {
		t.Fatalf("got %d shard stats, want %d", len(s.Shards), numCacheShards)
	}
	var hits, misses, evictions uint64
	var size int
	var bytes int64
	for _, ss := range s.Shards {
		hits += ss.Hits
		misses += ss.Misses
		evictions += ss.Evictions
		size += ss.Size
		bytes += ss.Bytes
	}
	if hits != s.Hits || misses != s.Misses || evictions != s.Evictions || size != s.Size || bytes != s.Bytes {
		t.Errorf("shard sums %d/%d/%d/%d/%d != totals %d/%d/%d/%d/%d",
			hits, misses, evictions, size, bytes, s.Hits, s.Misses, s.Evictions, s.Size, s.Bytes)
	}
	if s.Hits != 32 || s.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 32/1", s.Hits, s.Misses)
	}
}
