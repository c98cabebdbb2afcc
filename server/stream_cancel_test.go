package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"lash"
	"lash/server"
)

// blockingMine returns a MineFunc that signals when mining starts and then
// blocks until its context is cancelled (returning the ctx error) or the
// release channel closes (returning a result).
func blockingMine(started chan<- string, release <-chan struct{}) server.MineFunc {
	return func(ctx context.Context, db *lash.Database, opt lash.Options) (*lash.Result, error) {
		select {
		case started <- opt.CacheKey():
		default:
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return &lash.Result{Patterns: []lash.Pattern{{Items: []string{"a"}, Support: 2}}}, nil
		}
	}
}

// TestCancelRunningJob: DELETE /v1/jobs/{id} moves a running job — and
// every request coalesced onto it — to the cancelled state, frees the
// singleflight slot, and shows up in the stats counters.
func TestCancelRunningJob(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	defer close(release)
	_, ts := newTestServer(t, server.Config{Workers: 1, MineFunc: blockingMine(started, release)})
	mustRegister(t, ts, testSpec("db"))

	req := map[string]any{"database": "db", "options": testOptions()}
	status, body := call(t, "POST", ts.URL+"/v1/mine", req)
	if status != http.StatusAccepted {
		t.Fatalf("mine: status %d, body %v", status, body)
	}
	id := body["job_id"].(string)
	<-started // mining is in flight

	// A second identical submit coalesces onto the running job.
	status, body2 := call(t, "POST", ts.URL+"/v1/mine", req)
	if status != http.StatusAccepted || body2["job_id"].(string) != id {
		t.Fatalf("expected coalesced submit onto %s, got status %d body %v", id, status, body2)
	}

	status, body = call(t, "DELETE", ts.URL+"/v1/jobs/"+id, nil)
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("cancel: status %d, body %v", status, body)
	}
	final := waitForJob(t, ts, id)
	if final["status"] != "cancelled" {
		t.Fatalf("job status = %v, want cancelled (body %v)", final["status"], final)
	}
	if errStr, _ := final["error"].(string); !strings.Contains(errStr, "cancel") {
		t.Errorf("cancelled job error = %q, want it to mention cancellation", errStr)
	}

	// Cancelling again is idempotent; the coalesced view shows the same
	// terminal job for both submitters.
	status, _ = call(t, "DELETE", ts.URL+"/v1/jobs/"+id, nil)
	if status != http.StatusOK {
		t.Errorf("second cancel: status %d, want 200", status)
	}

	// The singleflight slot is free: an identical resubmit starts fresh.
	status, body = call(t, "POST", ts.URL+"/v1/mine", req)
	if status != http.StatusAccepted {
		t.Fatalf("resubmit after cancel: status %d, body %v", status, body)
	}
	if body["job_id"].(string) == id {
		t.Errorf("resubmit coalesced onto the cancelled job %s", id)
	}

	status, stats := call(t, "GET", ts.URL+"/v1/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	jobs := stats["jobs"].(map[string]any)
	if n := jobs["cancelled"].(float64); n != 1 {
		t.Errorf("stats cancelled = %v, want 1", n)
	}
	if n := jobs["coalesced"].(float64); n != 1 {
		t.Errorf("stats coalesced = %v, want 1", n)
	}
}

// TestCancelQueuedJob: a job still waiting for a worker slot cancels
// without ever running the mining function.
func TestCancelQueuedJob(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	defer close(release)
	_, ts := newTestServer(t, server.Config{Workers: 1, MineFunc: blockingMine(started, release)})
	mustRegister(t, ts, testSpec("db"))

	// Fill the single worker slot.
	_, body := call(t, "POST", ts.URL+"/v1/mine", map[string]any{"database": "db", "options": testOptions()})
	blockerID := body["job_id"].(string)
	<-started

	// Queue a different job behind it, then cancel it while queued.
	opts2 := testOptions()
	opts2["min_support"] = 3
	_, body = call(t, "POST", ts.URL+"/v1/mine", map[string]any{"database": "db", "options": opts2})
	queuedID := body["job_id"].(string)

	status, _ := call(t, "DELETE", ts.URL+"/v1/jobs/"+queuedID, nil)
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("cancel queued: status %d", status)
	}
	final := waitForJob(t, ts, queuedID)
	if final["status"] != "cancelled" {
		t.Fatalf("queued job status = %v, want cancelled", final["status"])
	}

	// The blocker was untouched by the queued job's cancellation: it is
	// still running, and cancelling it works independently.
	status, body = call(t, "GET", ts.URL+"/v1/jobs/"+blockerID, nil)
	if status != http.StatusOK || body["status"] != "running" {
		t.Fatalf("blocker: status %d state %v, want running", status, body["status"])
	}
	call(t, "DELETE", ts.URL+"/v1/jobs/"+blockerID, nil)
	final = waitForJob(t, ts, blockerID)
	if final["status"] != "cancelled" {
		t.Fatalf("blocker status = %v, want cancelled after explicit cancel", final["status"])
	}
}

// TestCancelConflicts: cancelling a finished job is a 409; an unknown job
// a 404.
func TestCancelConflicts(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	mustRegister(t, ts, testSpec("db"))
	status, body := call(t, "POST", ts.URL+"/v1/mine",
		map[string]any{"database": "db", "options": testOptions(), "wait": true})
	if status != http.StatusOK {
		t.Fatalf("mine: status %d body %v", status, body)
	}
	id := body["job_id"].(string)

	status, _ = call(t, "DELETE", ts.URL+"/v1/jobs/"+id, nil)
	if status != http.StatusConflict {
		t.Errorf("cancel done job: status %d, want 409", status)
	}
	status, _ = call(t, "DELETE", ts.URL+"/v1/jobs/job-999", nil)
	if status != http.StatusNotFound {
		t.Errorf("cancel unknown job: status %d, want 404", status)
	}
}

// TestJobDurations: terminal jobs report their mining wall-clock in
// runtime_ms, and the stats counters accumulate it.
func TestJobDurations(t *testing.T) {
	slowMine := func(ctx context.Context, db *lash.Database, opt lash.Options) (*lash.Result, error) {
		select {
		case <-time.After(30 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &lash.Result{}, nil
	}
	_, ts := newTestServer(t, server.Config{MineFunc: slowMine})
	mustRegister(t, ts, testSpec("db"))
	status, body := call(t, "POST", ts.URL+"/v1/mine",
		map[string]any{"database": "db", "options": testOptions(), "wait": true})
	if status != http.StatusOK {
		t.Fatalf("mine: status %d body %v", status, body)
	}
	if ms, _ := body["runtime_ms"].(float64); ms < 25 {
		t.Errorf("runtime_ms = %v, want ≥ 25 for a 30ms mine", ms)
	}
	_, stats := call(t, "GET", ts.URL+"/v1/stats", nil)
	jobs := stats["jobs"].(map[string]any)
	if ms, _ := jobs["run_time_ms"].(float64); ms < 25 {
		t.Errorf("stats run_time_ms = %v, want ≥ 25", ms)
	}
	if _, present := jobs["queue_time_ms"]; !present {
		t.Errorf("stats are missing queue_time_ms (mine_time_ms was split into queue_time_ms + run_time_ms)")
	}
}

// streamLines POSTs to /v1/mine/stream and returns the decoded NDJSON
// records.
func streamLines(t *testing.T, url string, req any) (int, []map[string]any) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/mine/stream", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Error responses are one pretty-printed JSON object, not NDJSON.
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, []map[string]any{m}
	}
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, lines
}

// TestMineStreamEndpoint: POST /v1/mine/stream delivers one NDJSON record
// per pattern and exactly one trailer carrying the run summary.
func TestMineStreamEndpoint(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	mustRegister(t, ts, testSpec("db"))

	status, lines := streamLines(t, ts.URL, map[string]any{"database": "db", "options": testOptions()})
	if status != http.StatusOK {
		t.Fatalf("stream: status %d", status)
	}
	if len(lines) == 0 {
		t.Fatal("no NDJSON records")
	}
	trailer := lines[len(lines)-1]
	if trailer["done"] != true {
		t.Fatalf("last record is not the trailer: %v", trailer)
	}
	if errStr, _ := trailer["error"].(string); errStr != "" {
		t.Fatalf("trailer error: %s", errStr)
	}
	patterns := lines[:len(lines)-1]
	if got := int(trailer["patterns"].(float64)); got != len(patterns) {
		t.Errorf("trailer counts %d patterns, %d records streamed", got, len(patterns))
	}

	// The streamed set matches a direct library run.
	want, err := lash.Mine(testDB(t), lash.Options{MinSupport: 2, MaxGap: 1, MaxLength: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantSet := map[string]int64{}
	for _, p := range want.Patterns {
		wantSet[strings.Join(p.Items, " ")] = p.Support
	}
	for _, rec := range patterns {
		if rec["done"] != nil {
			t.Fatalf("pattern record carries done field: %v", rec)
		}
		var items []string
		for _, it := range rec["items"].([]any) {
			items = append(items, it.(string))
		}
		key := strings.Join(items, " ")
		if wantSet[key] != int64(rec["support"].(float64)) {
			t.Errorf("streamed %q support %v, library says %d", key, rec["support"], wantSet[key])
		}
		delete(wantSet, key)
	}
	if len(wantSet) != 0 {
		t.Errorf("patterns not streamed: %v", wantSet)
	}
	if n := int(trailer["num_partitions"].(float64)); n != want.NumPartitions {
		t.Errorf("trailer num_partitions = %d, want %d", n, want.NumPartitions)
	}

	// Streaming runs count into the stats.
	_, stats := call(t, "GET", ts.URL+"/v1/stats", nil)
	jobs := stats["jobs"].(map[string]any)
	if n := jobs["streams"].(float64); n != 1 {
		t.Errorf("stats streams = %v, want 1", n)
	}
}

// TestMineStreamRejectsRestrictions: restrictions need the full output and
// are a 400 on the streaming endpoint (but fine on POST /v1/mine).
func TestMineStreamRejectsRestrictions(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	mustRegister(t, ts, testSpec("db"))
	opts := testOptions()
	opts["restriction"] = "closed"
	status, lines := streamLines(t, ts.URL, map[string]any{"database": "db", "options": opts})
	if status != http.StatusBadRequest {
		t.Fatalf("stream with closed restriction: status %d lines %v, want 400", status, lines)
	}
	status, body := call(t, "POST", ts.URL+"/v1/mine",
		map[string]any{"database": "db", "options": opts, "wait": true})
	if status != http.StatusOK {
		t.Errorf("blocking mine with closed restriction: status %d body %v, want 200", status, body)
	}
}

// TestMineStreamErrorInTrailer: an error mid-stream surfaces in the
// trailer record, after the patterns that made it out.
func TestMineStreamErrorInTrailer(t *testing.T) {
	boom := errors.New("partition 3 caught fire")
	streamFn := func(ctx context.Context, db *lash.Database, opt lash.Options, emit func(lash.Pattern) error) (*lash.Result, error) {
		if err := emit(lash.Pattern{Items: []string{"a", "B"}, Support: 2}); err != nil {
			return nil, err
		}
		return nil, boom
	}
	_, ts := newTestServer(t, server.Config{StreamFunc: streamFn})
	mustRegister(t, ts, testSpec("db"))
	status, lines := streamLines(t, ts.URL, map[string]any{"database": "db", "options": testOptions()})
	if status != http.StatusOK {
		t.Fatalf("stream: status %d", status)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d records, want pattern + trailer", len(lines))
	}
	trailer := lines[1]
	if trailer["done"] != true {
		t.Fatalf("missing trailer: %v", lines)
	}
	if errStr, _ := trailer["error"].(string); !strings.Contains(errStr, "caught fire") {
		t.Errorf("trailer error = %q, want the stream error", errStr)
	}
	// A failed stream counts as failed, not completed.
	_, stats := call(t, "GET", ts.URL+"/v1/stats", nil)
	jobs := stats["jobs"].(map[string]any)
	if n := jobs["failed"].(float64); n != 1 {
		t.Errorf("stats failed = %v, want 1", n)
	}
}

// TestStreamCancelledWhileQueuedIsCounted: a stream whose client goes away
// while it waits for a worker slot ends as cancelled, so the stats keep the
// invariant submitted == completed + failed + cancelled once idle.
func TestStreamCancelledWhileQueuedIsCounted(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	_, ts := newTestServer(t, server.Config{Workers: 1, MineFunc: blockingMine(started, release)})
	mustRegister(t, ts, testSpec("db"))

	req := map[string]any{"database": "db", "options": testOptions()}
	status, body := call(t, "POST", ts.URL+"/v1/mine", req)
	if status != http.StatusAccepted {
		t.Fatalf("mine: status %d, body %v", status, body)
	}
	<-started // the job holds the only worker slot

	jobStats := func() map[string]any {
		_, stats := call(t, "GET", ts.URL+"/v1/stats", nil)
		return stats["jobs"].(map[string]any)
	}
	waitFor := func(what string, cond func(map[string]any) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond(jobStats()) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; stats %v", what, jobStats())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	raw, _ := json.Marshal(req)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/mine/stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		if resp, err := http.DefaultClient.Do(hreq); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor("the stream to be accepted", func(j map[string]any) bool { return j["streams"].(float64) == 1 })
	cancel() // the client goes away while the stream waits for the slot
	<-streamDone
	waitFor("the waiting stream to count as cancelled", func(j map[string]any) bool { return j["cancelled"].(float64) == 1 })

	close(release)
	waitForJob(t, ts, body["job_id"].(string))
	j := jobStats()
	if j["submitted"].(float64) != j["completed"].(float64)+j["failed"].(float64)+j["cancelled"].(float64) {
		t.Errorf("submitted != completed + failed + cancelled: %v", j)
	}
	if j["submitted"].(float64) != 2 || j["completed"].(float64) != 1 || j["mines_run"].(float64) != 1 {
		t.Errorf("stats = %v, want 2 submitted, 1 completed, 1 mine run", j)
	}
}
