package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
	"weak"

	"lash"
	"lash/internal/obs"
	"lash/internal/pindex"
)

// This file tests what the server retains of a finished run: the result
// cache is the only holder, so evicting an entry releases the result for
// every reader at once, and resume reads the newest valid state from it.

// paperSpec is the paper's example database (server_test.go's testSpec).
func paperSpec(name string) DatabaseSpec {
	return DatabaseSpec{
		Name:      name,
		Hierarchy: []string{"b1 B", "b2 B"},
		Sequences: []string{"a b1 a", "a b2 c", "a b1 b2"},
	}
}

// retentionClient drives one Server's handler directly.
type retentionClient struct {
	t *testing.T
	s *Server
}

func newRetentionClient(t *testing.T, cfg Config) retentionClient {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() { s.Close(context.Background()) }) //nolint:errcheck // test teardown
	if _, err := s.AddDatabase(paperSpec("paper")); err != nil {
		t.Fatal(err)
	}
	return retentionClient{t, s}
}

// serve sends one request straight to the server's handler.
func serve(s *Server, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

func (c retentionClient) do(method, target, body string) (int, map[string]any) {
	c.t.Helper()
	rec := serve(c.s, method, target, body)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		c.t.Fatalf("%s %s: %v in %s", method, target, err, rec.Body)
	}
	return rec.Code, out
}

// mine runs a blocking mine of the paper example at the given corpus version
// (0 = latest).
func (c retentionClient) mine(version int) map[string]any {
	c.t.Helper()
	code, body := c.do("POST", "/v1/mine", fmt.Sprintf(
		`{"database":"paper","version":%d,"options":{"min_support":2,"max_gap":1,"max_length":3},"wait":true}`, version))
	if code != http.StatusOK || body["status"] != "done" {
		c.t.Fatalf("mine version %d: %d %v", version, code, body)
	}
	return body
}

// settle waits until the last mined result's index has been charged. Only
// for tests with nothing else in flight.
func (c retentionClient) settle() { c.s.jobs.wg.Wait() }

// appendVersion installs the next corpus version: one sequence over an item
// no earlier version has, so the mined result keeps its size.
func (c retentionClient) appendVersion(version int) {
	c.t.Helper()
	code, body := c.do("POST", "/v1/databases/paper/sequences", fmt.Sprintf(`{"sequences":["z%d"]}`, version))
	if code != http.StatusOK || int(body["version"].(float64)) != version {
		c.t.Fatalf("append version %d: %d %v", version, code, body)
	}
}

func (c retentionClient) stats() (jobs, cache map[string]any) {
	c.t.Helper()
	_, st := c.do("GET", "/v1/stats", "")
	return st["jobs"].(map[string]any), st["cache"].(map[string]any)
}

// weakRefs returns weak pointers to a corpus version's retained result and
// to its State, keeping no strong one behind.
func (c retentionClient) weakRefs(version int) (weak.Pointer[lash.Result], weak.Pointer[lash.MineState]) {
	c.t.Helper()
	_, res, ok := c.s.jobs.cache.latest("paper", version)
	if !ok || res.State == nil {
		c.t.Fatalf("version %d: no retained result with a State (ok %v)", version, ok)
	}
	return weak.Make(res), weak.Make(res.State)
}

// TestEvictionReleasesMemory: under a budget of two results, mining six
// corpus versions leaves two entries, and version 1's result is gone — from
// the heap, not only from the cache's accounting — for every reader at once.
func TestEvictionReleasesMemory(t *testing.T) {
	// The charge of a resumed run's entry: its trace, charged with it, is
	// shorter than a cold mine's. Its index shares the cold mine's base,
	// which the cache charges once, not with the entry.
	probe := newRetentionClient(t, Config{})
	probe.mine(0)
	probe.settle()
	probe.appendVersion(2)
	_, cache := probe.stats()
	before := int64(cache["bytes"].(float64))
	probe.mine(0)
	probe.settle()
	_, cache = probe.stats()
	charge := int64(cache["bytes"].(float64)) - before
	_, res, _ := probe.s.jobs.cache.latest("paper", 0)
	base := res.Index().Base().SizeBytes()

	// Room for the shared base and two resumed entries, not three; the half
	// entry of slack absorbs the few bytes each appended item adds to a
	// State.
	c := newRetentionClient(t, Config{CacheBytes: base + charge*5/2 + 1})
	first := c.mine(0)["job_id"].(string)
	c.settle()
	weakRes, weakState := c.weakRefs(1)
	for v := 2; v <= 6; v++ {
		c.appendVersion(v)
		if reused, _ := c.mine(0)["result"].(map[string]any)["delta_partitions_reused"].(float64); reused == 0 {
			t.Errorf("version %d did not resume from version %d's retained state", v, v-1)
		}
		c.settle()
	}

	runtime.GC()
	runtime.GC()
	if weakRes.Value() != nil {
		t.Error("version 1's evicted *lash.Result is still reachable")
	}
	if weakState.Value() != nil {
		t.Error("version 1's evicted *lash.MineState is still reachable")
	}

	jobs, cache := c.stats()
	if cache["size"].(float64) != 2 || cache["evictions"].(float64) != 4 || cache["bytes"].(float64) > cache["capacity_bytes"].(float64) {
		t.Errorf("cache = %v, want size 2, 4 evictions, bytes within capacity", cache)
	}
	if code, body := c.do("GET", "/v1/jobs/"+first, ""); code != http.StatusOK || body["status"] != "done" || body["result"] != nil {
		t.Errorf("evicted job: %d %v, want 200 done without a result", code, body)
	}
	if code, _ := c.do("GET", "/v1/patterns?job="+first, ""); code != http.StatusConflict {
		t.Errorf("patterns of the evicted job: %d, want 409", code)
	}
	if code, _ := c.do("GET", "/v1/patterns?db=paper&version=1", ""); code != http.StatusNotFound {
		t.Errorf("patterns at the evicted version: %d, want 404", code)
	}
	if code, body := c.do("GET", "/v1/patterns?db=paper", ""); code != http.StatusOK || body["corpus_version"].(float64) != 6 {
		t.Errorf("latest patterns: %d %v, want 200 from version 6", code, body)
	}

	// Resubmitting version 1's request is a miss: it mines again.
	ran := jobs["mines_run"].(float64)
	again := c.mine(1)
	jobs, _ = c.stats()
	if again["cached"] != false || jobs["mines_run"].(float64) != ran+1 || again["result"] == nil {
		t.Errorf("resubmission: cached %v, mines_run %v → %v, want a re-mine with its result", again["cached"], ran, jobs["mines_run"])
	}
}

// TestTraceChargedToCache: a cached result keeps its job, and so the job's
// trace, past the job record; the trace is charged with the serving index,
// trimmed to the spans it holds — the reply's respond span among them — so
// CacheBytes bounds the traces the cache keeps. A cold mine's index is a
// full build, its own base, charged once.
func TestTraceChargedToCache(t *testing.T) {
	c := newRetentionClient(t, Config{})
	id := c.mine(0)["job_id"].(string)
	c.settle()
	j, _ := c.s.jobs.get(id)
	_, res, _ := c.s.jobs.cache.latest("paper", 0)
	spans := j.trace.Tracer.Spans()
	if !slices.ContainsFunc(spans, func(sp obs.SpanRecord) bool { return sp.Name == "respond" }) {
		t.Fatal("the trace holds no respond span after the reply")
	}
	if ix := res.Index(); ix.Base() != ix {
		t.Fatal("a cold mine's index extends a base")
	}
	want := estimateResultBytes(res) + res.State.SizeBytes() + res.Index().SizeBytes() + int64(len(spans))*int64(unsafe.Sizeof(obs.SpanRecord{}))
	if _, cache := c.stats(); int64(cache["bytes"].(float64)) != want {
		t.Errorf("cache charges %v bytes, want %d (frequent items and fixed fields, state, index and %d trace spans; no named list)", cache["bytes"], want, len(spans))
	}
}

// TestBaseChargedOnce: versions resumed one from the next share the first
// version's index as their base, each holding an overlay of what it
// changed. The cache charges each entry its state, trace and overlay, and
// the base once: evicting the entries one by one frees each entry's own
// charge, and the base only with the last of them, and at every step the
// cache's bytes are the distinct bytes it holds.
func TestBaseChargedOnce(t *testing.T) {
	s := New(Config{})
	t.Cleanup(func() { s.Close(context.Background()) }) //nolint:errcheck // test teardown
	if _, err := s.AddDatabase(DatabaseSpec{Name: "gen", Generator: "text", Size: 800, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	mine := func() *lash.Result {
		t.Helper()
		rec := serve(s, "POST", "/v1/mine", `{"database":"gen","options":{"min_support":6,"max_gap":1,"max_length":3},"wait":true}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("mine: %d %s", rec.Code, rec.Body)
		}
		s.jobs.wg.Wait()
		_, res, _ := s.jobs.cache.latest("gen", 0)
		return res
	}
	cold := mine()
	base := cold.Index()
	for v := 2; v <= 3; v++ {
		db, _ := s.registry.get("gen")
		seqs, _ := json.Marshal([]string{strings.Join(db.Sequence(v*11), " "), strings.Join(db.Sequence(v*29), " ")})
		if rec := serve(s, "POST", "/v1/databases/gen/sequences", `{"sequences":`+string(seqs)+`}`); rec.Code != http.StatusOK {
			t.Fatalf("append: %d %s", rec.Code, rec.Body)
		}
		if ix := mine().Index(); ix.Base() != base || ix == base || ix.SizeBytes()*5 > base.SizeBytes() {
			t.Fatalf("version %d: index of %d bytes over base %p, want an overlay of at most a fifth of base %p's %d bytes",
				v, ix.SizeBytes(), ix.Base(), base, base.SizeBytes())
		}
	}

	cache := s.jobs.cache
	distinct := func() int64 {
		t.Helper()
		bases := map[*pindex.Index]bool{}
		held := int64(0)
		for _, e := range cache.items {
			ix := e.res.Index()
			held += estimateResultBytes(e.res) + e.res.State.SizeBytes() + e.job.trace.TracerOf().Trim()
			if ix.Base() != ix {
				held += ix.SizeBytes()
			}
			if !bases[ix.Base()] {
				bases[ix.Base()] = true
				held += ix.Base().SizeBytes()
			}
		}
		if got := cache.stats().Bytes; got != held {
			t.Fatalf("cache charges %d bytes, holds %d distinct bytes", got, held)
		}
		return held
	}
	cache.mu.Lock()
	entries := slices.Clone(cache.byDB["gen"]) // by version: the base's own entry first
	cache.mu.Unlock()
	if len(entries) != 3 {
		t.Fatalf("%d cached versions, want 3", len(entries))
	}
	held := distinct()
	for i, e := range entries {
		own := e.bytes
		cache.mu.Lock()
		cache.removeLocked(e)
		cache.mu.Unlock()
		freed := held - distinct()
		held -= freed
		want := own
		if i == len(entries)-1 {
			want += base.SizeBytes()
		}
		if freed != want {
			t.Errorf("evicting version %d freed %d bytes, want %d", i+1, freed, want)
		}
	}
	if held != 0 || len(cache.bases) != 0 {
		t.Errorf("an empty cache charges %d bytes for %d bases", held, len(cache.bases))
	}
}

// TestIndexDropsNamedList: a server holding one cold result keeps the
// result's named list only until its serving index is built. Once the index
// span is in, the cached Result.Patterns and the entry's list are nil and
// the index lists what the reply did; TestTraceChargedToCache checks that
// the charge then holds no list.
func TestIndexDropsNamedList(t *testing.T) {
	c := newRetentionClient(t, Config{})
	reply := c.mine(0)
	c.settle()
	j, _ := c.s.jobs.get(reply["job_id"].(string))
	if !slices.ContainsFunc(j.trace.Tracer.Spans(), func(sp obs.SpanRecord) bool { return sp.Name == "index" }) {
		t.Fatal("no index span once the job settled")
	}
	res, named, ok := c.s.jobs.cache.body(j.key)
	if !ok || named != nil || res.Patterns != nil {
		t.Fatalf("retained %v with a named list of %d and Result.Patterns of %d; want retained, both nil", ok, len(named), len(res.Patterns))
	}
	listed := len(reply["result"].(map[string]any)["patterns"].([]any))
	if n := res.Index().Len(); n != listed || n == 0 {
		t.Errorf("index holds %d patterns, the reply listed %d", n, listed)
	}
}

// TestOversizedResultServedToWaiter: eviction stops at the most recently
// used entry, so a result larger than the whole budget still reaches the
// request that waited for it.
func TestOversizedResultServedToWaiter(t *testing.T) {
	c := newRetentionClient(t, Config{CacheBytes: 1})
	if body := c.mine(0); body["result"] == nil {
		t.Fatalf("wait:true under a 1-byte budget returned no result: %v", body)
	}
	c.appendVersion(2)
	c.mine(0)
	c.settle()
	if _, cache := c.stats(); cache["size"].(float64) != 1 || cache["evictions"].(float64) != 1 {
		t.Errorf("cache = %v, want the newest entry only", cache)
	}
}

// TestResumeFromNewestValidState: a run on version 2 that finishes after
// the run on version 3 must not become what version 4 resumes from, and a
// re-mine of an older version resumes from the newest state valid for it
// rather than going cold because a newer one exists.
func TestResumeFromNewestValidState(t *testing.T) {
	var mu sync.Mutex
	resumed := map[int]int{} // mined corpus version → version of the state it resumed from
	gate := make(chan struct{})
	c := newRetentionClient(t, Config{
		CacheBytes: -1, // resubmissions re-mine, so the last step runs at all
		MineFunc: func(ctx context.Context, db *lash.Database, opt lash.Options) (*lash.Result, error) {
			mu.Lock()
			resumed[db.Version()] = opt.Resume.CorpusVersion()
			mu.Unlock()
			if db.Version() == 2 {
				<-gate
			}
			return lash.MineContext(ctx, db, opt)
		},
	})
	c.mine(0)
	c.appendVersion(2)
	code, slow := c.do("POST", "/v1/mine", `{"database":"paper","options":{"min_support":2,"max_gap":1,"max_length":3}}`)
	if code != http.StatusAccepted {
		t.Fatalf("mine version 2: %d %v", code, slow)
	}
	c.appendVersion(3)
	c.mine(0) // version 3 overtakes the gated version 2
	close(gate)
	for body := slow; body["status"] != "done"; {
		_, body = c.do("GET", "/v1/jobs/"+slow["job_id"].(string), "")
		time.Sleep(time.Millisecond)
	}
	c.appendVersion(4)
	c.mine(0)
	c.mine(2)

	mu.Lock()
	defer mu.Unlock()
	if resumed[4] != 3 {
		t.Errorf("version 4 resumed from the state of version %d, want 3 (version 2 merely finished last)", resumed[4])
	}
	if resumed[2] != 2 {
		t.Errorf("the re-mine of version 2 resumed from the state of version %d, want 2", resumed[2])
	}
}
