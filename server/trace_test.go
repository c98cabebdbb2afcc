package server_test

import (
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lash"
	"lash/internal/faults"
	"lash/internal/obs"
	"lash/server"
)

// getTrace fetches GET /v1/jobs/{id}/trace.
func getTrace(t *testing.T, ts string, id string) *obs.TraceDoc {
	t.Helper()
	resp, err := http.Get(ts + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace of %s: status %d", id, resp.StatusCode)
	}
	var doc obs.TraceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return &doc
}

// rootNamed returns the forest's root span of that name, or nil.
func rootNamed(doc *obs.TraceDoc, name string) *obs.TraceNode {
	for _, n := range doc.Roots {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// jobSpans maps the MapReduce job names under a mine span to their spans.
func jobSpans(mine *obs.TraceNode) map[string]*obs.TraceNode {
	jobs := map[string]*obs.TraceNode{}
	for _, c := range mine.Children {
		if c.Name == "job" {
			jobs[c.Job] = c
		}
	}
	return jobs
}

// TestJobTrace: every job that ran has its span forest at
// GET /v1/jobs/{id}/trace — a done job its queue wait, the mine tree with
// the library's jobs and phases and the assembly after them, the reply that
// first carried its result, and the index build; a failed and a cancelled
// job what they recorded before ending —
// while a cache hit has an empty forest and an unknown id is a 404.
func TestJobTrace(t *testing.T) {
	reg := &faults.Registry{}
	var stall atomic.Bool
	_, ts := newTestServer(t, server.Config{Faults: reg, MineFunc: func(ctx context.Context, db *lash.Database, opt lash.Options) (*lash.Result, error) {
		if stall.Load() {
			<-ctx.Done()
			return nil, context.Cause(ctx)
		}
		return lash.MineContext(ctx, db, opt)
	}})
	mustRegister(t, ts, testSpec("db"))
	mine := func(opts map[string]any, wait bool) map[string]any {
		t.Helper()
		status, body := call(t, "POST", ts.URL+"/v1/mine", map[string]any{"database": "db", "options": opts, "wait": wait})
		if status != http.StatusOK && status != http.StatusAccepted {
			t.Fatalf("mine: status %d body %v", status, body)
		}
		return body
	}

	done := mine(testOptions(), true)
	id := done["job_id"].(string)
	var doc *obs.TraceDoc
	waitUntil(t, "the index span", func() bool {
		doc = getTrace(t, ts.URL, id)
		return rootNamed(doc, "index") != nil
	})
	queue, run := rootNamed(doc, "queue"), rootNamed(doc, "mine")
	if queue == nil || run == nil || rootNamed(doc, "respond") == nil || len(doc.Roots) != 4 || doc.Dropped != 0 {
		t.Fatalf("done job's roots %+v, want queue, mine, respond and index", doc.Roots)
	}
	if _, again := call(t, "GET", ts.URL+"/v1/jobs/"+id, nil); again["result"] == nil || len(getTrace(t, ts.URL, id).Roots) != 4 {
		t.Fatalf("a second reply with the result added a span: %+v", getTrace(t, ts.URL, id).Roots)
	}
	// The job view and the spans read the same record of each interval.
	view := waitForJob(t, ts, id)
	if got, want := math.Floor(queue.DurationMS), view["queue_ms"]; want != nil && got != want.(float64) || want == nil && got != 0 {
		t.Errorf("queue span %v ms, job view queue_ms %v", queue.DurationMS, want)
	}
	if got, want := math.Floor(run.DurationMS), view["runtime_ms"]; want != nil && got != want.(float64) || want == nil && got != 0 {
		t.Errorf("mine span %v ms, job view runtime_ms %v", run.DurationMS, want)
	}
	jobs := jobSpans(run)
	for _, name := range []string{"flist", "partition+mine"} {
		j := jobs[name]
		if j == nil {
			t.Fatalf("mine span has no %s job: %+v", name, run.Children)
		}
		phases := map[string]bool{}
		for _, c := range j.Children {
			if c.Name == "phase" {
				phases[c.Phase] = true
			}
		}
		if !phases["map"] || !phases["shuffle"] || !phases["reduce"] {
			t.Errorf("%s job's phases %v, want map, shuffle and reduce", name, phases)
		}
	}
	// The work after the jobs — the canonical merge and the naming — is the
	// mine span's assemble child.
	i := slices.IndexFunc(run.Children, func(c *obs.TraceNode) bool { return c.Name == "assemble" })
	if i < 0 {
		t.Fatalf("mine span has no assemble child: %+v", run.Children)
	}
	if asm, last := run.Children[i], jobs["partition+mine"]; asm.StartMS < last.StartMS+last.DurationMS-1e-3 ||
		asm.StartMS+asm.DurationMS > run.StartMS+run.DurationMS+1e-3 {
		t.Errorf("assemble span [%v, +%v] ms, want it after the partition+mine job (ends %v) and within mine (ends %v)",
			asm.StartMS, asm.DurationMS, last.StartMS+last.DurationMS, run.StartMS+run.DurationMS)
	}

	hit := mine(testOptions(), true)
	if hit["cached"] != true {
		t.Fatalf("repeat mine was not a cache hit: %v", hit)
	}
	if doc := getTrace(t, ts.URL, hit["job_id"].(string)); doc.Spans != 0 || len(doc.Roots) != 0 {
		t.Errorf("cache hit's trace %+v, want an empty forest", doc)
	}

	// Every reduce attempt fails: the job fails inside partition+mine.
	reg.FailProb("mapreduce.reduce.task", 1, 1, faults.Error)
	opts := testOptions()
	opts["min_support"] = 1
	failed := mine(opts, true)
	if failed["status"] != "failed" {
		t.Fatalf("faulted mine: %v", failed)
	}
	doc = getTrace(t, ts.URL, failed["job_id"].(string))
	if run := rootNamed(doc, "mine"); rootNamed(doc, "queue") == nil || run == nil || jobSpans(run)["partition+mine"] == nil {
		t.Errorf("failed job's trace %+v, want queue and a mine span over its partition+mine job", doc.Roots)
	}
	reg.Disarm("mapreduce.reduce.task")

	stall.Store(true)
	opts["min_support"] = 3
	id = mine(opts, false)["job_id"].(string)
	waitUntil(t, "the stalled job to run", func() bool {
		_, v := call(t, "GET", ts.URL+"/v1/jobs/"+id, nil)
		return v["status"] == "running"
	})
	if status, body := call(t, "DELETE", ts.URL+"/v1/jobs/"+id, nil); status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("cancel: status %d body %v", status, body)
	}
	if v := waitForJob(t, ts, id); v["status"] != "cancelled" {
		t.Fatalf("stalled job ended %v", v["status"])
	}
	if doc := getTrace(t, ts.URL, id); rootNamed(doc, "queue") == nil || rootNamed(doc, "mine") == nil {
		t.Errorf("cancelled job's trace %+v, want queue and mine spans", doc.Roots)
	}

	status, body := call(t, "GET", ts.URL+"/v1/jobs/job-999/trace", nil)
	if code, _, _ := errBody(t, body); status != http.StatusNotFound || code != "job_not_found" {
		t.Errorf("unknown job's trace: status %d code %q, want 404 job_not_found", status, code)
	}
}

// captureLog is a slog handler that keeps each record's message and
// attributes as strings.
type captureLog struct {
	mu   sync.Mutex
	recs []map[string]string
}

func (c *captureLog) Enabled(context.Context, slog.Level) bool { return true }

func (c *captureLog) Handle(_ context.Context, r slog.Record) error {
	rec := map[string]string{"msg": r.Message}
	r.Attrs(func(a slog.Attr) bool {
		rec[a.Key] = a.Value.String()
		return true
	})
	c.mu.Lock()
	c.recs = append(c.recs, rec)
	c.mu.Unlock()
	return nil
}

func (c *captureLog) WithAttrs([]slog.Attr) slog.Handler { return c }
func (c *captureLog) WithGroup(string) slog.Handler      { return c }

// find returns the records whose msg is msg.
func (c *captureLog) find(msg string) []map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []map[string]string
	for _, r := range c.recs {
		if r["msg"] == msg {
			out = append(out, r)
		}
	}
	return out
}

// TestRequestJobJoin: a request is followed to the job that answered it
// through the logs. Each admission outcome — queued, coalesced onto a
// running job, answered from the cache — logs one record with the
// request's request_id and the job_id it got, the request_id is that of the
// request's own "http request" record, and the job's trace then leads to
// its partitions.
func TestRequestJobJoin(t *testing.T) {
	logs := &captureLog{}
	gate := make(chan struct{})
	_, ts := newTestServer(t, server.Config{Logger: slog.New(logs), MineFunc: func(ctx context.Context, db *lash.Database, opt lash.Options) (*lash.Result, error) {
		<-gate // hold the first run so the second request coalesces onto it
		return lash.MineContext(ctx, db, opt)
	}})
	mustRegister(t, ts, testSpec("db"))
	req := map[string]any{"database": "db", "options": testOptions()}
	mine := func() string {
		t.Helper()
		status, body := call(t, "POST", ts.URL+"/v1/mine", req)
		if status != http.StatusOK && status != http.StatusAccepted {
			t.Fatalf("mine: status %d body %v", status, body)
		}
		return body["job_id"].(string)
	}
	queued := mine()
	if coalesced := mine(); coalesced != queued {
		t.Fatalf("the repeat got job %s, want the running %s", coalesced, queued)
	}
	close(gate)
	waitForJob(t, ts, queued)
	hit := mine()

	seen := map[string]bool{}
	for _, c := range []struct{ msg, job string }{
		{"job queued", queued}, {"job coalesced", queued}, {"job answered from cache", hit},
	} {
		recs := logs.find(c.msg)
		if len(recs) != 1 {
			t.Fatalf("%d %q records, want 1", len(recs), c.msg)
		}
		id := recs[0]["request_id"]
		if recs[0]["job_id"] != c.job || seen[id] {
			t.Errorf("%q record %v: want job_id %s and a request_id of its own", c.msg, recs[0], c.job)
		}
		seen[id] = true
		// The middleware logs a request once its handler has returned.
		var path string
		waitUntil(t, "the http request record of "+c.msg, func() bool {
			for _, r := range logs.find("http request") {
				if r["request_id"] == id {
					path = r["path"]
					return true
				}
			}
			return false
		})
		if path != "/v1/mine" {
			t.Errorf("%q record's request_id %s is a request to %s, want POST /v1/mine", c.msg, id, path)
		}
	}
	run := rootNamed(getTrace(t, ts.URL, queued), "mine")
	if run == nil || jobSpans(run)["partition+mine"] == nil {
		t.Fatalf("job %s's trace has no partition+mine job under its mine span", queued)
	}
}

// TestRequestTraceCoverage: a POST /v1/mine that waits spends its time in
// its job's queue, mine and respond spans — together at least 95% of the
// request's time in the middleware, as its "http request" log line reports
// it — so no stretch of a request goes untimed. The corpus makes the mine
// take well over 200 ms, so scheduler noise cannot decide it.
func TestRequestTraceCoverage(t *testing.T) {
	logs := &captureLog{}
	_, ts := newTestServer(t, server.Config{Logger: slog.New(logs)})
	mustRegister(t, ts, server.DatabaseSpec{Name: "gen", Generator: "text", Size: 6000, Seed: 23})
	status, body := call(t, "POST", ts.URL+"/v1/mine", map[string]any{"database": "gen", "wait": true,
		"options": map[string]any{"min_support": 12, "max_gap": 1, "max_length": 4, "workers": 2}})
	if status != http.StatusOK || body["status"] != "done" {
		t.Fatalf("mine: status %d body %v", status, body)
	}
	id := body["job_id"].(string)
	queued := logs.find("job queued")
	if len(queued) != 1 || queued[0]["job_id"] != id {
		t.Fatalf("job queued records %v, want one for %s", queued, id)
	}
	var request time.Duration
	waitUntil(t, "the http request record", func() bool {
		for _, r := range logs.find("http request") {
			if r["request_id"] == queued[0]["request_id"] {
				ms, err := strconv.ParseInt(r["duration_ms"], 10, 64)
				request = time.Duration(ms) * time.Millisecond
				return err == nil
			}
		}
		return false
	})
	doc := getTrace(t, ts.URL, id)
	var covered time.Duration
	for _, name := range []string{"queue", "mine", "respond"} {
		n := rootNamed(doc, name)
		if n == nil {
			t.Fatalf("the trace has no %s root: %+v", name, doc.Roots)
		}
		covered += time.Duration(n.DurationMS * float64(time.Millisecond))
	}
	t.Logf("queue + mine + respond cover %v of the %v request (%.1f%%)", covered, request, 100*float64(covered)/float64(request))
	if request < 200*time.Millisecond || float64(covered) < 0.95*float64(request) {
		t.Errorf("queue + mine + respond cover %v of the %v request, want at least 95%% of a request of at least 200 ms", covered, request)
	}
}
