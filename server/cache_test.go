package server

import (
	"fmt"
	"testing"

	"lash"
	"lash/internal/obs"
	"lash/internal/pindex"
)

// testCache is a cache counting into handles of its own.
func testCache(budget int64) *resultCache {
	return newResultCache(budget, &obs.Counter{}, &obs.Counter{}, &obs.Counter{})
}

// resultN is a single-pattern result; add charges it 304 bytes: the
// estimate's 256 and its named list's 32 + 16.
func resultN(n int64) *lash.Result {
	return &lash.Result{Patterns: []lash.Pattern{{Items: []string{"x"}, Support: n}}}
}

// indexN is a serving index over n two-item patterns, for recost.
func indexN(n int) *pindex.Index {
	pats := make([]pindex.Pattern, n)
	for i := range pats {
		pats[i] = pindex.Pattern{Items: []string{"x", fmt.Sprint(i)}, Support: int64(1 + i)}
	}
	return pindex.Build(pats, nil)
}

func TestCacheLRUByteBudget(t *testing.T) {
	c := testCache(700) // room for two resultN, not three
	c.add(&job{key: "k0"}, resultN(1))
	c.add(&job{key: "k1"}, resultN(2))
	if _, ok := c.get("k0"); !ok { // promotes k0 over k1
		t.Fatal("k0 missing")
	}
	c.add(&job{key: "k2"}, resultN(3)) // over budget: evicts k1, the least recently used
	if _, ok := c.get("k1"); ok {
		t.Error("k1 survived eviction")
	}
	if _, ok := c.get("k0"); !ok {
		t.Error("k0 evicted out of LRU order")
	}
	if _, ok := c.get("k2"); !ok {
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
	if s.CapacityBytes != 700 {
		t.Errorf("CapacityBytes = %d, want 700", s.CapacityBytes)
	}
}

// One result may use any share of the budget: an entry charged half of it
// (once recost has swapped its named list for its index) stays cached. A
// budget split across shards evicted it on its own insertion.
func TestCacheHalfBudgetEntryStays(t *testing.T) {
	res := resultN(1)
	ix := indexN(1)
	c := testCache(2 * (estimateResultBytes(res) + ix.SizeBytes()))
	j := &job{key: "big"}
	c.add(j, res)
	if _, ok := c.get("big"); !ok {
		t.Fatal("entry charged half the budget was evicted on insertion")
	}
	c.recost(j, ix)
	if _, ok := c.get("big"); !ok {
		t.Fatal("entry charged half the budget was evicted on recost")
	}
	if s := c.stats(); s.Size != 1 || s.Evictions != 0 || s.Bytes*2 != s.CapacityBytes {
		t.Errorf("stats = %+v, want one entry at half the capacity, no evictions", s)
	}
}

func TestCacheUpdateExisting(t *testing.T) {
	c := testCache(1 << 20)
	c.add(&job{key: "a"}, resultN(1))
	before := c.stats().Bytes
	c.add(&job{key: "a"}, resultN(9))
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

// A non-positive budget retains without serving resubmissions: every get is
// a miss, and with no budget nothing is evicted.
func TestCacheDisabled(t *testing.T) {
	c := testCache(0)
	c.add(&job{key: "a"}, resultN(1))
	if _, ok := c.get("a"); ok {
		t.Error("disabled cache answered a resubmission")
	}
	if s := c.stats(); s.Misses != 1 || s.Size != 1 || s.CapacityBytes != 0 {
		t.Errorf("stats = %+v, want 1 miss, size 1, no capacity", s)
	}
}

func TestCacheRecost(t *testing.T) {
	c := testCache(1000)
	j0, j1 := &job{key: "k0"}, &job{key: "k1"}
	c.add(j0, resultN(1))
	c.add(j1, resultN(2))
	if s := c.stats(); s.Size != 2 {
		t.Fatalf("size = %d, want 2", s.Size)
	}
	// Recosting k0 far above the budget evicts from the LRU end — k0 itself
	// is the least recently used, so it goes.
	c.recost(j0, indexN(100))
	if _, ok := c.get("k0"); ok {
		t.Error("k0 survived recost past the budget")
	}
	if _, ok := c.get("k1"); !ok {
		t.Error("k1 evicted although within budget after k0 left")
	}
	// Recosting swaps the entry's named list for the index given: the list
	// leaves the entry and the charge.
	before := c.stats().Bytes
	if _, named, _ := c.body("k1"); len(named) != 1 {
		t.Fatalf("k1 holds a named list of %d patterns before recost, want 1", len(named))
	}
	small := indexN(1)
	c.recost(j1, small)
	if res, named, _ := c.body("k1"); named != nil || res.Patterns == nil {
		t.Errorf("after recost the entry holds %v, the result %v; want the entry's list dropped, the result's left to its owner", named, res.Patterns)
	}
	if got, want := c.stats().Bytes, before-namedBytes(resultN(2).Patterns)+small.SizeBytes(); got != want {
		t.Errorf("charge %d after recost, want %d", got, want)
	}
	// Recosting a job never added, or one whose entry a re-mine under its
	// key replaced, is a no-op: the entry charges only its own job.
	c.recost(&job{key: "never-added"}, small)
	c.add(&job{key: "k1"}, resultN(2))
	before = c.stats().Bytes
	c.recost(j1, small)
	if s := c.stats(); s.Size != 1 || s.Bytes != before || before != 304 {
		t.Errorf("size %d, bytes %d (%d before them) after no-op recosts, want 1 and 304", s.Size, s.Bytes, before)
	}
}

func TestCacheManyEvictions(t *testing.T) {
	// The budget fits exactly one resultN estimate, so the cache holds its
	// most recent entry and evicts the rest.
	c := testCache(400)
	for i := range 64 {
		c.add(&job{key: fmt.Sprintf("k%d", i)}, resultN(int64(i)))
	}
	s := c.stats()
	if s.Size != 1 || s.Evictions != 63 {
		t.Errorf("size %d, evictions %d, want 1 and 63", s.Size, s.Evictions)
	}
	if s.Bytes > 400 {
		t.Errorf("cache holds %d bytes, budget 400", s.Bytes)
	}
	if _, ok := c.get("k63"); !ok {
		t.Error("the most recent entry was evicted")
	}
}
