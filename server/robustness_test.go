package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"lash"
	"lash/internal/faults"
	"lash/server"
)

// callRaw sends a JSON request and returns the raw response plus the
// decoded body, for tests that need headers (Retry-After) as well.
func callRaw(t *testing.T, method, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return resp, out
}

// metricValue scrapes /metrics and returns the value of an unlabeled
// metric line, or -1 if the family is absent.
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	return -1
}

// TestShutdownDrainRefusesSubmissions: once Close begins, every new
// submission — including repeats — gets 503 with a Retry-After header,
// /readyz flips to 503 immediately while a job is still draining, and
// /healthz stays green so the orchestrator does not kill the draining
// process.
func TestShutdownDrainRefusesSubmissions(t *testing.T) {
	gate := make(chan struct{})
	srv, ts := newTestServer(t, server.Config{
		Workers: 1,
		MineFunc: func(ctx context.Context, db *lash.Database, opt lash.Options) (*lash.Result, error) {
			<-gate
			return lash.Mine(db, opt)
		},
	})
	mustRegister(t, ts, testSpec("paper"))

	// Before shutdown the server is ready.
	if resp, body := callRaw(t, "GET", ts.URL+"/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before shutdown: %d %v", resp.StatusCode, body)
	}

	// One job in flight, blocked on the gate, so Close has to drain.
	status, running := call(t, "POST", ts.URL+"/v1/mine", map[string]any{
		"database": "paper", "options": testOptions(),
	})
	if status != http.StatusAccepted {
		t.Fatalf("mine: %d %v", status, running)
	}

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		closed <- srv.Close(ctx)
	}()

	// Wait for the drain to become observable, then assert the refused
	// state is stable and idempotent across repeated submissions.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := callRaw(t, "GET", ts.URL+"/readyz", nil)
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("draining /readyz carries no Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped to 503 after Close began")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		resp, body := callRaw(t, "POST", ts.URL+"/v1/mine", map[string]any{
			"database": "paper", "options": testOptions(),
		})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("submit #%d during drain: %d %v, want 503", i, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("submit #%d during drain: no Retry-After header", i)
		}
		code, msg, retryable := errBody(t, body)
		if code != "shutting_down" || !retryable || !strings.Contains(msg, "shutting down") {
			t.Errorf("submit #%d during drain: envelope %q/%q retryable=%v", i, code, msg, retryable)
		}
	}
	if resp, _ := callRaw(t, "GET", ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain: %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}

	close(gate)
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestQueueBoundAdmission: runs that would wait for a worker slot past
// MaxQueue — jobs and streams alike — are refused with 429 + Retry-After,
// whichever kind filled the queue, while coalescible submissions and
// subscriptions are still admitted — saturation never degrades requests that
// cost no queue slot.
func TestQueueBoundAdmission(t *testing.T) {
	for _, filler := range []string{"job", "stream"} {
		t.Run(filler+" fills the queue", func(t *testing.T) {
			gate := make(chan struct{})
			_, ts := newTestServer(t, server.Config{
				Workers:  1,
				MaxQueue: 1,
				MineFunc: func(ctx context.Context, db *lash.Database, opt lash.Options) (*lash.Result, error) {
					<-gate
					return lash.Mine(db, opt)
				},
			})
			mustRegister(t, ts, testSpec("paper"))

			distinct := func(maxLength int) map[string]any {
				opts := testOptions()
				opts["max_length"] = maxLength
				return map[string]any{"database": "paper", "options": opts}
			}
			waitForStat := func(name string) {
				t.Helper()
				waitUntil(t, "stats "+name+" to reach 1", func() bool { return jobStats(t, ts)[name].(float64) == 1 })
			}

			// Job A occupies the single worker...
			status, a := call(t, "POST", ts.URL+"/v1/mine", distinct(3))
			if status != http.StatusAccepted {
				t.Fatalf("job A: %d %v", status, a)
			}
			waitForStat("running")

			// ...run B — a job, or a stream waiting for its job — fills the
			// queue...
			var b map[string]any
			if filler == "job" {
				if status, b = call(t, "POST", ts.URL+"/v1/mine", distinct(4)); status != http.StatusAccepted {
					t.Fatalf("job B: %d %v", status, b)
				}
				defer close(gate) // release A, then B
			} else {
				stream := postStream(t, ts.URL, distinct(4))
				defer func() { // release A, then B, and read the stream's result
					close(gate)
					if status, lines := readStream(t, stream); status != http.StatusOK || lines[len(lines)-1]["error"] != nil {
						t.Errorf("stream B: %d %v", status, lines)
					}
				}()
			}

			// ...so a third distinct job and a stream are refused with 429 +
			// Retry-After...
			for _, path := range []string{"/v1/mine", "/v1/mine/stream"} {
				resp, body := callRaw(t, "POST", ts.URL+path, distinct(5))
				if resp.StatusCode != http.StatusTooManyRequests {
					t.Fatalf("POST %s with a full queue: %d %v, want 429", path, resp.StatusCode, body)
				}
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("POST %s: 429 carries no Retry-After header", path)
				}
			}
			// ...while a subscriber of the in-flight jobs is admitted: it
			// mines nothing, so it takes no queue slot and submits nothing.
			before := jobStats(t, ts)
			openSubscription(t, ts.URL+"/v1/patterns/subscribe?db=paper")
			after := jobStats(t, ts)
			for _, name := range []string{"queued", "submitted"} {
				if after[name] != before[name] {
					t.Errorf("subscribing moved %s: %v → %v", name, before[name], after[name])
				}
			}

			// The saturated queue also flips readiness.
			if resp, _ := callRaw(t, "GET", ts.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("readyz with saturated queue: %d, want 503", resp.StatusCode)
			}

			// A repeat of run B's request coalesces onto its job — no queue
			// slot, still admitted.
			status, coalesced := call(t, "POST", ts.URL+"/v1/mine", distinct(4))
			if status != http.StatusAccepted || coalesced["coalesced"] != 1.0 || (b != nil && coalesced["job_id"] != b["job_id"]) {
				t.Fatalf("coalescible submit during saturation: %d %v, want run B's job", status, coalesced)
			}
		})
	}
}

// TestRateLimit429: a client past its token bucket gets 429 + Retry-After
// and the rejection is counted; probe and scrape endpoints stay exempt so
// monitoring cannot be starved by its own subject.
func TestRateLimit429(t *testing.T) {
	_, ts := newTestServer(t, server.Config{RateLimit: 0.1, RateBurst: 2})

	for i := 0; i < 2; i++ {
		if resp, body := callRaw(t, "GET", ts.URL+"/v1/jobs", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("request #%d within burst: %d %v", i, resp.StatusCode, body)
		}
	}
	resp, body := callRaw(t, "GET", ts.URL+"/v1/jobs", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request past burst: %d %v, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("rate-limited response carries no Retry-After")
	}
	if code, msg, retryable := errBody(t, body); code != "overloaded" || !retryable ||
		(!strings.Contains(msg, "rate") && !strings.Contains(msg, "overloaded")) {
		t.Errorf("rate-limited envelope %q/%q retryable=%v is wrong", code, msg, retryable)
	}

	// Exempt endpoints keep answering, including /metrics — which must now
	// show exactly one rejection.
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("exempt %s under rate limit: %d, want 200", path, resp.StatusCode)
		}
	}
	if got := metricValue(t, ts, "lash_http_rate_limited_total"); got != 1 {
		t.Errorf("lash_http_rate_limited_total = %g, want 1", got)
	}
}

// TestDeadlineJobFailsFast mirrors the cancellation-latency test at the
// service level: on a 50k-sequence generated corpus, a job whose
// deadline_ms expires mid-run must reach `failed` within a second of the
// deadline, carry a deadline-shaped error, and count into
// lash_jobs_deadline_exceeded_total.
func TestDeadlineJobFailsFast(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	mustRegister(t, ts, server.DatabaseSpec{Name: "big", Generator: "text", Size: 50000, Seed: 7})

	const deadlineMS = 150
	begin := time.Now()
	status, body := call(t, "POST", ts.URL+"/v1/mine", map[string]any{
		"database": "big",
		"options": map[string]any{
			"min_support": 2, "max_gap": 2, "max_length": 5, "deadline_ms": deadlineMS,
		},
		"wait": true,
	})
	elapsed := time.Since(begin)
	if status != http.StatusOK {
		t.Fatalf("mine: %d %v", status, body)
	}
	if body["status"] != "failed" {
		t.Skipf("run finished before the deadline (status %v); nothing to assert", body["status"])
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "deadline") {
		t.Errorf("deadline-exceeded job error %q does not mention the deadline", msg)
	}
	if over := elapsed - deadlineMS*time.Millisecond; over > time.Second {
		t.Errorf("job failed %v after its deadline, want < 1s", over)
	}
	if got := metricValue(t, ts, "lash_jobs_deadline_exceeded_total"); got != 1 {
		t.Errorf("lash_jobs_deadline_exceeded_total = %g, want 1", got)
	}
}

// TestDeadlinePreExpiredJob: a submit whose deadline has effectively
// already passed fails without mining anything.
func TestDeadlinePreExpiredJob(t *testing.T) {
	var mined bool
	_, ts := newTestServer(t, server.Config{
		MineFunc: func(ctx context.Context, db *lash.Database, opt lash.Options) (*lash.Result, error) {
			mined = true // reached only if the deadline were ignored
			return lash.MineContext(ctx, db, opt)
		},
		MaxJobTime: time.Nanosecond, // the server cap pre-expires every run
	})
	mustRegister(t, ts, testSpec("paper"))

	status, body := call(t, "POST", ts.URL+"/v1/mine", map[string]any{
		"database": "paper", "options": testOptions(), "wait": true,
	})
	if status != http.StatusOK {
		t.Fatalf("mine: %d %v", status, body)
	}
	if body["status"] != "failed" {
		t.Fatalf("job = %v, want failed", body)
	}
	if body["result"] != nil {
		t.Errorf("pre-expired job produced a result: %v", body["result"])
	}
	_ = mined // the MineFunc runs, but lash.MineContext refuses before any task
	if got := metricValue(t, ts, "lash_jobs_deadline_exceeded_total"); got != 1 {
		t.Errorf("lash_jobs_deadline_exceeded_total = %g, want 1", got)
	}
}

// TestRequestDeadlineCappedByServer: deadline_ms may tighten -max-job-time
// but never loosen it.
func TestRequestDeadlineCappedByServer(t *testing.T) {
	var got lash.Options
	_, ts := newTestServer(t, server.Config{
		// Deadlines are canonicalized out of the cache key, so repeats of the
		// same mining options would be answered from cache without ever
		// reaching the MineFunc. Disable caching so every submit runs.
		CacheBytes: -1,
		MaxJobTime: 50 * time.Millisecond,
		MineFunc: func(ctx context.Context, db *lash.Database, opt lash.Options) (*lash.Result, error) {
			got = opt
			return lash.MineContext(ctx, db, opt)
		},
	})
	mustRegister(t, ts, testSpec("paper"))

	mine := func(deadlineMS int64) {
		t.Helper()
		opts := testOptions()
		if deadlineMS != 0 {
			opts["deadline_ms"] = deadlineMS
		}
		if status, body := call(t, "POST", ts.URL+"/v1/mine", map[string]any{
			"database": "paper", "options": opts, "wait": true,
		}); status != http.StatusOK {
			t.Fatalf("mine: %d %v", status, body)
		}
	}
	mine(0) // no request deadline → the server cap applies
	if got.Deadline != 50*time.Millisecond {
		t.Errorf("uncapped request ran with Deadline %v, want the 50ms server cap", got.Deadline)
	}
	mine(3600000) // an hour-long request deadline is clamped down...
	if got.Deadline != 50*time.Millisecond {
		t.Errorf("loose request deadline ran as %v, want clamped to 50ms", got.Deadline)
	}
	mine(10) // ...but a tighter one wins.
	if got.Deadline != 10*time.Millisecond {
		t.Errorf("tight request deadline ran as %v, want 10ms", got.Deadline)
	}
}

// TestRequestWorkersClamped: a request cannot size a job's task arrays and
// goroutines past the cores the server has — the job is admitted with
// Workers clamped and answers as usual.
func TestRequestWorkersClamped(t *testing.T) {
	var got lash.Options
	_, ts := newTestServer(t, server.Config{
		MineFunc: func(ctx context.Context, db *lash.Database, opt lash.Options) (*lash.Result, error) {
			got = opt
			return lash.MineContext(ctx, db, opt)
		},
	})
	mustRegister(t, ts, testSpec("paper"))
	opts := testOptions()
	opts["workers"] = 300000
	status, body := call(t, "POST", ts.URL+"/v1/mine", map[string]any{
		"database": "paper", "options": opts, "wait": true,
	})
	if status != http.StatusOK || body["status"] != "done" {
		t.Fatalf("mine with workers 300000: %d %v", status, body)
	}
	if want := runtime.GOMAXPROCS(0); got.Workers != want {
		t.Errorf("job ran with Workers %d, want GOMAXPROCS %d", got.Workers, want)
	}
}

// TestCorpusLoadFaultInjection: the server.corpus.load injection point
// fails a registration as a server-side 500 — not a bad request — and the
// registry stays consistent for the retry.
func TestCorpusLoadFaultInjection(t *testing.T) {
	reg := &faults.Registry{}
	reg.FailNth("server.corpus.load", 1, faults.Error)
	_, ts := newTestServer(t, server.Config{Faults: reg})

	status, body := call(t, "POST", ts.URL+"/v1/databases", testSpec("paper"))
	if status != http.StatusInternalServerError {
		t.Fatalf("faulted registration: %d %v, want 500", status, body)
	}
	if code, msg, _ := errBody(t, body); code != "internal" || !strings.Contains(msg, "injected fault") {
		t.Errorf("envelope %q/%q does not carry the injection sentinel text", code, msg)
	}
	// The point fired once; the retry loads cleanly under the same name.
	mustRegister(t, ts, testSpec("paper"))
	if n := reg.Injected(); n != 1 {
		t.Errorf("registry injected %d faults, want 1", n)
	}
}

// TestRetriedJobReportsCounters: a run with an armed pipeline fault and a
// retry budget succeeds, and the wire result reports the retry work.
func TestRetriedJobReportsCounters(t *testing.T) {
	reg := &faults.Registry{}
	reg.FailNth("mapreduce.map.task", 1, faults.Error)
	_, ts := newTestServer(t, server.Config{Faults: reg})
	mustRegister(t, ts, testSpec("paper"))

	opts := testOptions()
	opts["max_attempts"] = 3
	status, body := call(t, "POST", ts.URL+"/v1/mine", map[string]any{
		"database": "paper", "options": opts, "wait": true,
	})
	if status != http.StatusOK || body["status"] != "done" {
		t.Fatalf("mine with injected fault + retries: %d %v", status, body)
	}
	result := body["result"].(map[string]any)
	if result["task_retries"].(float64) != 1 || result["faults_injected"].(float64) != 1 {
		t.Errorf("result retry counters = %v/%v, want 1/1",
			result["task_retries"], result["faults_injected"])
	}
}

// TestRobustnessSpecValidation: negative robustness knobs on the wire are
// rejected as bad requests.
func TestRobustnessSpecValidation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	mustRegister(t, ts, testSpec("paper"))
	for _, opts := range []map[string]any{
		{"min_support": 2, "max_gap": 1, "max_length": 3, "deadline_ms": -1},
		{"min_support": 2, "max_gap": 1, "max_length": 3, "max_attempts": -1},
	} {
		status, body := call(t, "POST", ts.URL+"/v1/mine", map[string]any{
			"database": "paper", "options": opts,
		})
		if status != http.StatusBadRequest {
			t.Errorf("options %v: status %d, want 400 (%v)", opts, status, body)
		}
	}
}

// TestReadyzReportsSpillSpace: the readiness check refreshes the
// free-space gauge for the spill filesystem.
func TestReadyzReportsSpillSpace(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	if resp, body := callRaw(t, "GET", ts.URL+"/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d %v", resp.StatusCode, body)
	}
	if free := metricValue(t, ts, "lash_spill_dir_free_bytes"); free <= 0 {
		t.Errorf("lash_spill_dir_free_bytes = %g after readyz, want > 0 on this platform", free)
	}
}
