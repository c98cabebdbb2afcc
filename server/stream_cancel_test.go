package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	return func(ctx context.Context, db *lash.Database, opt lash.Options, emit func(lash.Pattern) error) (*lash.Result, error) {
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
	slowMine := func(ctx context.Context, db *lash.Database, opt lash.Options, emit func(lash.Pattern) error) (*lash.Result, error) {
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

	// The stream was a job: listed as done and marked as a stream, with
	// nothing kept to serve — its patterns went down the wire.
	_, page := call(t, "GET", ts.URL+"/v1/jobs", nil)
	listed := page["jobs"].([]any)
	if len(listed) != 1 {
		t.Fatalf("GET /v1/jobs lists %d jobs after one stream, want 1: %v", len(listed), listed)
	}
	view := listed[0].(map[string]any)
	if view["stream"] != true || view["status"] != "done" || view["result"] != nil {
		t.Errorf("stream listed as %v, want stream:true, status done, no result", view)
	}
	id := view["job_id"].(string)
	if status, one := call(t, "GET", ts.URL+"/v1/jobs/"+id, nil); status != http.StatusOK || one["result"] != nil || one["stream"] != true {
		t.Errorf("GET /v1/jobs/%s: status %d body %v, want the same view", id, status, one)
	}
	if status, body := call(t, "GET", ts.URL+"/v1/patterns?job="+id, nil); status != http.StatusConflict {
		t.Errorf("GET /v1/patterns?job=%s: status %d body %v, want 409 (a stream keeps no result)", id, status, body)
	}
	if status, body := call(t, "DELETE", ts.URL+"/v1/jobs/"+id, nil); status != http.StatusConflict {
		t.Errorf("DELETE of the finished stream: status %d body %v, want 409", status, body)
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
	_, ts := newTestServer(t, server.Config{MineFunc: streamFn})
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

// TestStreamCancelledWhileQueuedIsCounted: however a run ends — the case
// that names the test is a stream whose client goes away while it waits for
// a worker slot — it is listed with that status, a stream marked
// "stream":true and never carrying a result, and the stats keep their
// invariants once idle: submitted == completed + failed + cancelled, and
// nothing queued or running. Jobs and streams go through the same
// lifecycle, so the matrix is {job, stream} × every way a run can end.
func TestStreamCancelledWhileQueuedIsCounted(t *testing.T) {
	outcomes := []struct {
		name, status string
		queued       bool // the run under test never gets the worker slot
	}{
		{"done", "done", false},
		{"failed", "failed", false},
		{"deadline", "failed", false},
		{"cancelled while running", "cancelled", false},
		{"shutdown", "cancelled", false},
		{"cancelled while queued", "cancelled", true},
		{"client gone while queued", "cancelled", true},
	}
	for _, kind := range []string{"job", "stream"} {
		for _, oc := range outcomes {
			if kind == "job" && oc.name == "client gone while queued" {
				continue // an async job outlives the request that submitted it
			}
			t.Run(kind+"/"+oc.name, func(t *testing.T) {
				started := make(chan struct{}, 2)
				release := make(chan struct{}) // frees the blocker holding the worker slot
				srv, ts := newTestServer(t, server.Config{
					Workers: 1,
					MineFunc: func(ctx context.Context, db *lash.Database, opt lash.Options, emit func(lash.Pattern) error) (*lash.Result, error) {
						started <- struct{}{}
						if opt.MinSupport == 1 { // the blocker
							select {
							case <-release:
								return &lash.Result{}, nil
							case <-ctx.Done():
								return nil, ctx.Err()
							}
						}
						switch oc.name {
						case "done":
							if emit != nil {
								if err := emit(lash.Pattern{Items: []string{"a", "B"}, Support: 2}); err != nil {
									return nil, err
								}
							}
							return &lash.Result{}, nil
						case "failed":
							return nil, errors.New("partition 3 caught fire")
						case "deadline":
							return nil, fmt.Errorf("scripted: %w", lash.ErrDeadlineExceeded)
						case "cancelled while running", "shutdown":
							<-ctx.Done()
							return nil, ctx.Err()
						}
						t.Errorf("a run that should have ended in the queue was mined")
						return nil, errors.New("unreachable")
					},
				})
				mustRegister(t, ts, testSpec("db"))
				request := func(minSupport int) map[string]any {
					opts := testOptions()
					opts["min_support"] = minSupport
					return map[string]any{"database": "db", "options": opts}
				}
				// listed returns the view GET /v1/jobs gives of the job with
				// that id — or, for "", of the (only) stream.
				listed := func(id string) map[string]any {
					_, page := call(t, "GET", ts.URL+"/v1/jobs", nil)
					for _, j := range page["jobs"].([]any) {
						if j := j.(map[string]any); j["job_id"] == id || (id == "" && j["stream"] == true) {
							return j
						}
					}
					return nil
				}

				submitted, blockerID := 1, ""
				if oc.queued {
					status, body := call(t, "POST", ts.URL+"/v1/mine", request(1))
					if status != http.StatusAccepted {
						t.Fatalf("blocker: status %d, body %v", status, body)
					}
					<-started // the blocker holds the only worker slot
					submitted, blockerID = 2, body["job_id"].(string)
				}

				// Start the run under test and learn its job id: from the
				// 202 for a job, from the listing for a stream.
				var id string
				ctx, hangUp := context.WithCancel(context.Background())
				defer hangUp()
				streamDone := make(chan struct{})
				if kind == "job" {
					// 200 when the scripted run ended before the handler answered.
					status, body := call(t, "POST", ts.URL+"/v1/mine", request(2))
					if status != http.StatusAccepted && status != http.StatusOK {
						t.Fatalf("mine: status %d, body %v", status, body)
					}
					id = body["job_id"].(string)
					close(streamDone)
				} else {
					raw, _ := json.Marshal(request(2))
					hreq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/mine/stream", bytes.NewReader(raw))
					if err != nil {
						t.Fatal(err)
					}
					go func() {
						defer close(streamDone)
						if resp, err := http.DefaultClient.Do(hreq); err == nil {
							io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining; the stream's fate is read off the job
							resp.Body.Close()
						}
					}()
					waitUntil(t, "the stream to show in GET /v1/jobs", func() bool { return listed("") != nil })
					id = listed("")["job_id"].(string)
				}

				switch oc.name {
				case "cancelled while queued":
					if v := listed(id); v["status"] != "queued" {
						t.Errorf("waiting run listed as %v, want queued", v["status"])
					}
					call(t, "DELETE", ts.URL+"/v1/jobs/"+id, nil)
				case "client gone while queued":
					hangUp()
				case "cancelled while running":
					<-started
					call(t, "DELETE", ts.URL+"/v1/jobs/"+id, nil)
				case "shutdown":
					<-started
					closeCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					if err := srv.Close(closeCtx); err != nil {
						t.Fatal(err)
					}
				}

				final := waitForJob(t, ts, id)
				<-streamDone
				close(release)
				if oc.queued {
					waitForJob(t, ts, blockerID)
				}
				// Every run is terminal (a view is taken under the lock finish
				// counts under), so the counters have settled.
				j := jobStats(t, ts)
				if j["queued"].(float64) != 0 || j["running"].(float64) != 0 {
					t.Errorf("idle server reports queued/running runs: %v", j)
				}

				if final["status"] != oc.status {
					t.Errorf("status = %v, want %s (view %v)", final["status"], oc.status, final)
				}
				if v := listed(id); v == nil || v["status"] != oc.status {
					t.Errorf("GET /v1/jobs lists the run as %v, want status %s", v, oc.status)
				}
				if isStream, _ := final["stream"].(bool); isStream != (kind == "stream") {
					t.Errorf("view %v: stream = %v for a %s", final, final["stream"], kind)
				}
				if _, has := final["result"]; has != (kind == "job" && oc.name == "done") {
					t.Errorf("view %v: result present = %v for a %s that ended %s", final, has, kind, oc.name)
				}
				if j["submitted"].(float64) != j["completed"].(float64)+j["failed"].(float64)+j["cancelled"].(float64) {
					t.Errorf("submitted != completed + failed + cancelled: %v", j)
				}
				if j["submitted"].(float64) != float64(submitted) {
					t.Errorf("submitted = %v, want %d: %v", j["submitted"], submitted, j)
				}
				// Either the run under test mined, or the blocker did and the
				// run under test ended in the queue without mining.
				if j["mines_run"].(float64) != 1 {
					t.Errorf("mines_run = %v, want 1: %v", j["mines_run"], j)
				}
				if n := metricValue(t, ts, "lash_jobs_deadline_exceeded_total"); (n == 1) != (oc.name == "deadline") {
					t.Errorf("lash_jobs_deadline_exceeded_total = %v after a run that ended %s", n, oc.name)
				}
			})
		}
	}
}
