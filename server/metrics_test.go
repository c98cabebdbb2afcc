package server_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"lash/internal/faults"
	"lash/server"
)

// scrapeMetrics fetches GET /metrics and returns the exposition body.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics content-type = %q, want text/plain", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// sampleSum sums every sample of the named metric across its label children.
func sampleSum(text, name string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // longer metric name sharing the prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err == nil {
			sum += v
		}
	}
	return sum
}

// TestMetricsEndpoint drives a spill-mode mining job through the server and
// asserts GET /metrics exposes the whole catalog non-zero: per-phase
// duration histograms, pipeline spill counters, job accounting, cache
// traffic and Go runtime gauges.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	mustRegister(t, ts, testSpec("db"))
	opts := testOptions()
	opts["memory_budget"] = 1 // every shuffle record spills
	status, body := call(t, "POST", ts.URL+"/v1/mine",
		map[string]any{"database": "db", "options": opts, "wait": true})
	if status != http.StatusOK || body["status"] != "done" {
		t.Fatalf("mine: status %d body %v", status, body)
	}

	text := scrapeMetrics(t, ts)

	nonZero := []string{
		"lash_phase_duration_seconds_count", // per-phase histograms populated
		"lash_phase_duration_seconds_sum",
		"lash_shuffle_records_total",
		"lash_spill_runs_total",  // pipeline-level spill accounting
		"lash_spill_bytes_total", // (the run was budgeted to 1 byte)
		"lash_spill_flushes_total",
		"lash_spill_merge_seconds_count",
		"lash_partitions_mined_total",
		"lash_partition_mine_seconds_count",
		"lash_miner_explored_total",
		"lash_flist_build_seconds_count",
		"lash_corpus_load_seconds_count", // the registration above
		"lash_jobs_submitted_total",      // manager accounting
		"lash_jobs_completed_total",
		"lash_job_queue_seconds_count",
		"lash_job_run_seconds_count",
		"lash_cache_misses_total", // the submit missed the empty cache
		"lash_databases",
		"lash_http_requests_total",
		"go_goroutines", // Go runtime collector
		"go_heap_alloc_bytes",
	}
	for _, name := range nonZero {
		if sampleSum(text, name) == 0 {
			t.Errorf("metric %s is zero or missing after a spill-mode job", name)
		}
	}

	// A threshold sweep over the registered snapshot counts its item
	// frequencies once (§3.4): three mines, three rank-space builds, one
	// f-list job.
	for _, sigma := range []int{3, 4} {
		opts := testOptions()
		opts["min_support"] = sigma
		if status, body := call(t, "POST", ts.URL+"/v1/mine",
			map[string]any{"database": "db", "options": opts, "wait": true}); status != http.StatusOK || body["status"] != "done" {
			t.Fatalf("mine at min_support %d: status %d body %v", sigma, status, body)
		}
	}
	text = scrapeMetrics(t, ts)
	if n := sampleSum(text, `lash_phase_duration_seconds_count{job="flist",phase="map"}`); n != 1 {
		t.Errorf("f-list job ran %v times across a three-mine sweep of one database, want 1", n)
	}
	if n := sampleSum(text, "lash_flist_build_seconds_count"); n != 3 {
		t.Errorf("lash_flist_build_seconds_count = %v after three mines, want 3", n)
	}
}

// typeLines extracts the sorted family catalog ("name kind") of an
// exposition.
func typeLines(text string) []string {
	var fams []string
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fams = append(fams, rest)
		}
	}
	slices.Sort(fams)
	return fams
}

// TestMetricsFamilyCatalog pins the metric family catalog to a golden file
// (refresh with UPDATE_GOLDEN=1 go test ./server) and checks scrape-to-scrape
// stability: same families, each declared exactly once.
func TestMetricsFamilyCatalog(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	mustRegister(t, ts, testSpec("db"))
	status, body := call(t, "POST", ts.URL+"/v1/mine",
		map[string]any{"database": "db", "options": testOptions(), "wait": true})
	if status != http.StatusOK {
		t.Fatalf("mine: status %d body %v", status, body)
	}

	first := typeLines(scrapeMetrics(t, ts))
	second := typeLines(scrapeMetrics(t, ts))
	if !slices.Equal(first, second) {
		t.Errorf("family catalog changed between scrapes:\n%v\nvs\n%v", first, second)
	}
	for i := 1; i < len(first); i++ {
		if first[i] == first[i-1] {
			t.Errorf("family %q declared more than once", first[i])
		}
	}

	golden := filepath.Join("testdata", "metrics_families.golden")
	got := strings.Join(first, "\n") + "\n"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run UPDATE_GOLDEN=1 go test ./server to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("metric family catalog drifted from %s:\n got:\n%s\nwant:\n%s\n(refresh with UPDATE_GOLDEN=1 if intentional)", golden, got, want)
	}
}

// TestMetricsConcurrentScrape hammers the server from 32 goroutines
// (mining, polling stats) while other goroutines scrape /metrics. Run under
// -race this doubles as the data-race check on every recording path.
func TestMetricsConcurrentScrape(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	mustRegister(t, ts, testSpec("db"))

	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				status, _ := call(t, "POST", ts.URL+"/v1/mine",
					map[string]any{"database": "db", "options": testOptions(), "wait": true})
				if status != http.StatusOK {
					t.Errorf("mine: status %d", status)
					return
				}
				call(t, "GET", ts.URL+"/v1/stats", nil)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				scrapeMetrics(t, ts)
			}
		}()
	}
	wg.Wait()
}

// TestSpilledCountersSurviveEviction is the regression test for the spill
// counter drift: spilled_runs/spilled_bytes in GET /v1/stats must read the
// pipeline spill counters GET /metrics exposes and keep accumulating even
// after the jobs that produced them are pruned from the bounded history.
func TestSpilledCountersSurviveEviction(t *testing.T) {
	_, ts := newTestServer(t, server.Config{JobHistory: 1})
	mustRegister(t, ts, testSpec("db1"))
	mustRegister(t, ts, testSpec("db2"))

	opts := testOptions()
	opts["memory_budget"] = 1
	var wantRuns, wantBytes float64
	for _, db := range []string{"db1", "db2"} {
		status, body := call(t, "POST", ts.URL+"/v1/mine",
			map[string]any{"database": db, "options": opts, "wait": true})
		if status != http.StatusOK || body["status"] != "done" {
			t.Fatalf("mine %s: status %d body %v", db, status, body)
		}
		result := body["result"].(map[string]any)
		if result["spill_runs"].(float64) == 0 {
			t.Fatalf("mine %s did not spill: %v", db, result)
		}
		wantRuns += result["spill_runs"].(float64)
		wantBytes += result["spill_bytes"].(float64)
	}

	// The one-entry history has evicted the first job's record.
	_, jobList := call(t, "GET", ts.URL+"/v1/jobs", nil)
	if n := len(jobList["jobs"].([]any)); n != 1 {
		t.Fatalf("retained %d job records, want 1 (JobHistory: 1)", n)
	}

	_, stats := call(t, "GET", ts.URL+"/v1/stats", nil)
	jobs := stats["jobs"].(map[string]any)
	if got := jobs["spilled_runs"].(float64); got != wantRuns {
		t.Errorf("stats spilled_runs = %v, want %v (both jobs, despite eviction)", got, wantRuns)
	}
	if got := jobs["spilled_bytes"].(float64); got != wantBytes {
		t.Errorf("stats spilled_bytes = %v, want %v", got, wantBytes)
	}

	// And /metrics reports the identical totals — same underlying counters.
	text := scrapeMetrics(t, ts)
	if got := sampleSum(text, "lash_spill_runs_total"); got != wantRuns {
		t.Errorf("lash_spill_runs_total = %v, want %v", got, wantRuns)
	}
	if got := sampleSum(text, "lash_spill_bytes_total"); got != wantBytes {
		t.Errorf("lash_spill_bytes_total = %v, want %v", got, wantBytes)
	}
}

// TestFaultCountersFoldFailedJobs: under an armed fault registry the
// process-wide retry and fault counters equal their totals over the jobs,
// a job that failed included. A run's counters reach /metrics once, when
// its MapReduce job ends, on the error path as on success.
func TestFaultCountersFoldFailedJobs(t *testing.T) {
	reg := &faults.Registry{}
	reg.FailNth("mapreduce.map.task", 1, faults.Error)
	_, ts := newTestServer(t, server.Config{Faults: reg})
	mustRegister(t, ts, testSpec("db"))

	opts := testOptions()
	opts["max_attempts"] = 3
	status, body := call(t, "POST", ts.URL+"/v1/mine", map[string]any{"database": "db", "options": opts, "wait": true})
	if status != http.StatusOK || body["status"] != "done" {
		t.Fatalf("retried mine: status %d body %v", status, body)
	}
	result := body["result"].(map[string]any)
	retries, injected := result["task_retries"].(float64), result["faults_injected"].(float64)
	if retries != 1 || injected != 1 {
		t.Fatalf("retried mine reports %v retries, %v faults; want 1, 1", retries, injected)
	}

	// Every reduce attempt now fails: on one worker the first partition is
	// tried twice, once retried, and its second failure fails the job.
	reg.FailProb("mapreduce.reduce.task", 1, 1, faults.Error)
	opts["min_support"], opts["max_attempts"], opts["workers"] = 1, 2, 1
	status, body = call(t, "POST", ts.URL+"/v1/mine", map[string]any{"database": "db", "options": opts, "wait": true})
	if status != http.StatusOK || body["status"] != "failed" {
		t.Fatalf("failing mine: status %d body %v", status, body)
	}
	retries, injected = retries+1, injected+2
	if n := reg.Injected(); float64(n) != injected {
		t.Fatalf("registry injected %d faults, want %v", n, injected)
	}

	text := scrapeMetrics(t, ts)
	if got := sampleSum(text, "lash_task_retries_total"); got != retries {
		t.Errorf("lash_task_retries_total = %v, want %v over both jobs", got, retries)
	}
	if got := sampleSum(text, "lash_faults_injected_total"); got != injected {
		t.Errorf("lash_faults_injected_total = %v, want %v over both jobs", got, injected)
	}
}
