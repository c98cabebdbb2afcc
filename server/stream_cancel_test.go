package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
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
	return readStream(t, postStream(t, url, req))
}

// postStream POSTs to /v1/mine/stream and returns the response once its
// headers arrive: the handler sends them after it submitted the job, before
// it waits for the job.
func postStream(t *testing.T, url string, req any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/mine/stream", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readStream reads a stream response to its end and returns its status and
// decoded NDJSON records.
func readStream(t *testing.T, resp *http.Response) (int, []map[string]any) {
	t.Helper()
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

// streamPatterns splits a stream into its pattern records, rendered as
// patternsOf renders a listing, and its trailer.
func streamPatterns(t *testing.T, lines []map[string]any) ([]string, map[string]any) {
	t.Helper()
	if len(lines) == 0 || lines[len(lines)-1]["done"] != true {
		t.Fatalf("stream does not end with a trailer: %v", lines)
	}
	records := make([]any, 0, len(lines)-1)
	for _, rec := range lines[:len(lines)-1] {
		records = append(records, rec)
	}
	return patternsOf(t, map[string]any{"patterns": records}), lines[len(lines)-1]
}

// TestMineStreamEndpoint: POST /v1/mine/stream sends the result of the job
// it submitted — item for item the job's GET /v1/patterns?job= listing, in
// order — then one trailer naming the job and summarizing its run. An
// identical second stream is answered from the cache: same records, a new
// cached job, no second mine.
func TestMineStreamEndpoint(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	mustRegister(t, ts, testSpec("db"))
	req := map[string]any{"database": "db", "options": testOptions()}

	status, lines := streamLines(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("stream: status %d", status)
	}
	got, trailer := streamPatterns(t, lines)
	if errStr, _ := trailer["error"].(string); errStr != "" {
		t.Fatalf("trailer error: %s", errStr)
	}
	if n := int(trailer["patterns"].(float64)); n != len(got) {
		t.Errorf("trailer counts %d patterns, %d records streamed", n, len(got))
	}
	id := trailer["job_id"].(string)
	status, listing := call(t, "GET", ts.URL+"/v1/patterns?job="+id, nil)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/patterns?job=%s: status %d, body %v", id, status, listing)
	}
	if want := patternsOf(t, listing); len(want) == 0 || !slices.Equal(got, want) {
		t.Errorf("streamed records differ from the job's listing:\ngot  %v\nwant %v", got, want)
	}
	want, err := lash.Mine(testDB(t), lash.Options{MinSupport: 2, MaxGap: 1, MaxLength: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Patterns) || int(trailer["num_partitions"].(float64)) != want.NumPartitions {
		t.Errorf("streamed %d patterns over %v partitions, the library mines %d over %d",
			len(got), trailer["num_partitions"], len(want.Patterns), want.NumPartitions)
	}

	status, lines = streamLines(t, ts.URL, req)
	again, trailer2 := streamPatterns(t, lines)
	if status != http.StatusOK || !slices.Equal(again, got) || trailer2["job_id"] == id {
		t.Errorf("second stream: status %d, job %v, %d records; want 200, a job other than %s, the same %d records",
			status, trailer2["job_id"], len(again), id, len(got))
	}
	if n := jobStats(t, ts)["mines_run"].(float64); n != 1 {
		t.Errorf("mines_run = %v after two identical streams, want 1", n)
	}
	if status, view := call(t, "GET", ts.URL+"/v1/jobs/"+trailer2["job_id"].(string), nil); status != http.StatusOK ||
		view["cached"] != true || view["status"] != "done" {
		t.Errorf("second stream's job: status %d, view %v; want a done, cached job", status, view)
	}
	if status, body := call(t, "DELETE", ts.URL+"/v1/jobs/"+id, nil); status != http.StatusConflict {
		t.Errorf("DELETE of the finished stream's job: status %d body %v, want 409", status, body)
	}
}

// TestMineStreamAcceptsRestrictions: a restricted (closed) run streams like
// any other, and it is the same job POST /v1/mine answers: a later
// identical mine is a cache hit holding the streamed patterns.
func TestMineStreamAcceptsRestrictions(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	mustRegister(t, ts, testSpec("db"))
	opts := testOptions()
	opts["restriction"] = "closed"
	status, lines := streamLines(t, ts.URL, map[string]any{"database": "db", "options": opts})
	if status != http.StatusOK {
		t.Fatalf("stream with closed restriction: status %d lines %v, want 200", status, lines)
	}
	got, trailer := streamPatterns(t, lines)
	if errStr, _ := trailer["error"].(string); errStr != "" || len(got) == 0 {
		t.Fatalf("closed stream: %d records, trailer %v", len(got), trailer)
	}
	status, body := call(t, "POST", ts.URL+"/v1/mine",
		map[string]any{"database": "db", "options": opts, "wait": true})
	if status != http.StatusOK || body["cached"] != true {
		t.Fatalf("mine after the closed stream: status %d body %v, want a cache hit", status, body)
	}
	// The reply lists the result in mined order, the stream in serving order.
	want := patternsOf(t, body["result"].(map[string]any))
	if !slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want))) {
		t.Errorf("closed stream sent %v, the cached result holds %v", got, want)
	}
}

// TestMineStreamErrorInTrailer: a run that fails still answers 200, with a
// trailer-only stream whose error names the job and its failure.
func TestMineStreamErrorInTrailer(t *testing.T) {
	boom := errors.New("partition 3 caught fire")
	failing := func(ctx context.Context, db *lash.Database, opt lash.Options) (*lash.Result, error) {
		return nil, boom
	}
	_, ts := newTestServer(t, server.Config{MineFunc: failing})
	mustRegister(t, ts, testSpec("db"))
	status, lines := streamLines(t, ts.URL, map[string]any{"database": "db", "options": testOptions()})
	if status != http.StatusOK {
		t.Fatalf("stream: status %d", status)
	}
	if len(lines) != 1 || lines[0]["done"] != true {
		t.Fatalf("got %v, want the trailer alone", lines)
	}
	trailer := lines[0]
	id, _ := trailer["job_id"].(string)
	if errStr, _ := trailer["error"].(string); id == "" || errStr != fmt.Sprintf("job %s failed: %v", id, boom) {
		t.Errorf("trailer error = %q, want the job's failure", errStr)
	}
	if n := jobStats(t, ts)["failed"].(float64); n != 1 {
		t.Errorf("stats failed = %v, want 1", n)
	}
}

// TestStreamCancelledWhileQueuedIsCounted: however a run ends, it is listed
// with that status, carries a result only when done, and the stats keep
// their invariants once idle: submitted == completed + failed + cancelled,
// and nothing queued or running. A stream submits the same job POST
// /v1/mine does, so the matrix is {job, stream} × every way a run can end,
// and a stream's trailer reports the end its job came to. The case that
// names the test, a stream whose client goes away while its job waits for a
// worker slot, no longer cancels: the job may be shared, so it mines and
// leaves its result cached.
func TestStreamCancelledWhileQueuedIsCounted(t *testing.T) {
	outcomes := []struct {
		name, status string
		queued       bool // a blocker holds the worker slot when the run under test is submitted
	}{
		{"done", "done", false},
		{"failed", "failed", false},
		{"deadline", "failed", false},
		{"cancelled while running", "cancelled", false},
		{"shutdown", "cancelled", false},
		{"cancelled while queued", "cancelled", true},
		{"client gone while queued", "done", true},
	}
	for _, kind := range []string{"job", "stream"} {
		for _, oc := range outcomes {
			if kind == "job" && oc.name == "client gone while queued" {
				continue // POST /v1/mine answers before its job runs
			}
			t.Run(kind+"/"+oc.name, func(t *testing.T) {
				started := make(chan struct{}, 2)
				release := make(chan struct{}) // frees the blocker holding the worker slot
				releaseBlocker := sync.OnceFunc(func() { close(release) })
				srv, ts := newTestServer(t, server.Config{
					Workers: 1,
					MineFunc: func(ctx context.Context, db *lash.Database, opt lash.Options) (*lash.Result, error) {
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
						case "done", "client gone while queued":
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
				// that id — or, for "", of the newest job.
				listed := func(id string) map[string]any {
					_, page := call(t, "GET", ts.URL+"/v1/jobs", nil)
					jobs := page["jobs"].([]any)
					for _, j := range jobs {
						if j := j.(map[string]any); j["job_id"] == id {
							return j
						}
					}
					if id == "" && len(jobs) > 0 {
						return jobs[len(jobs)-1].(map[string]any)
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
				var trailer map[string]any // a stream's last record, set before streamDone closes
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
						resp, err := http.DefaultClient.Do(hreq)
						if err != nil {
							return // the client hung up
						}
						defer resp.Body.Close()
						sc := bufio.NewScanner(resp.Body)
						for sc.Scan() {
							trailer = nil
							json.Unmarshal(sc.Bytes(), &trailer) //nolint:errcheck // a bad line leaves no trailer, which the checks below report
						}
					}()
					waitUntil(t, "the stream's job to show in GET /v1/jobs", func() bool {
						v := listed("")
						return v != nil && v["job_id"] != blockerID
					})
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
					<-streamDone
					if v := listed(id); v["status"] != "queued" {
						t.Errorf("job listed as %v once its stream's client left, want still queued", v["status"])
					}
					releaseBlocker() // the job outlives its client: it gets the slot and mines
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
				releaseBlocker()
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
				if _, has := final["result"]; has != (oc.status == "done") {
					t.Errorf("view %v: result present = %v for a run that ended %s", final, has, oc.name)
				}
				if kind == "stream" && oc.name != "client gone while queued" {
					errStr, _ := trailer["error"].(string)
					if trailer["done"] != true || trailer["job_id"] != id ||
						(oc.status == "done") != (errStr == "") || (errStr != "" && !strings.Contains(errStr, oc.status)) {
						t.Errorf("stream trailer %v, want one for job %s naming its end (%s)", trailer, id, oc.status)
					}
				}
				if j["submitted"].(float64) != j["completed"].(float64)+j["failed"].(float64)+j["cancelled"].(float64) {
					t.Errorf("submitted != completed + failed + cancelled: %v", j)
				}
				if j["submitted"].(float64) != float64(submitted) {
					t.Errorf("submitted = %v, want %d: %v", j["submitted"], submitted, j)
				}
				// Either the run under test mined, or the blocker did and the
				// run under test ended in the queue without mining — unless
				// both mined, the job whose stream's client left included.
				wantMines := 1
				if oc.name == "client gone while queued" {
					wantMines = 2
				}
				if j["mines_run"].(float64) != float64(wantMines) {
					t.Errorf("mines_run = %v, want %d: %v", j["mines_run"], wantMines, j)
				}
				if n := metricValue(t, ts, "lash_jobs_deadline_exceeded_total"); (n == 1) != (oc.name == "deadline") {
					t.Errorf("lash_jobs_deadline_exceeded_total = %v after a run that ended %s", n, oc.name)
				}
			})
		}
	}
}
