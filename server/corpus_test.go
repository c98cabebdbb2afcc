package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"lash"
	"lash/server"
)

// This file tests the live-corpora API surface: the append endpoint and
// corpus versioning, .ldb uploads, version-qualified mining and pattern
// queries, delta re-mines through the HTTP API, subscriptions surviving
// appends, and the uniform error envelope.

// rawPost sends a request with an explicit Content-Type and raw body.
func rawPost(t *testing.T, url, contentType string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decoding response: %v", url, err)
	}
	return resp.StatusCode, out
}

// TestErrorEnvelope is the table-driven contract test of satellite 1: every
// non-2xx response carries {"error": {"code", "message", "retryable"}} with
// a stable snake_case code.
func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	mustRegister(t, ts, testSpec("db"))

	cases := []struct {
		name       string
		method     string
		path       string
		body       any
		wantStatus int
		wantCode   string
	}{
		{"register duplicate name", "POST", "/v1/databases", testSpec("db"),
			http.StatusConflict, "conflict"},
		{"register without source", "POST", "/v1/databases", map[string]any{"name": "empty"},
			http.StatusBadRequest, "bad_request"},
		{"get unknown database", "GET", "/v1/databases/nope", nil,
			http.StatusNotFound, "not_found"},
		{"bad pagination cursor", "GET", "/v1/databases?cursor=%21%21", nil,
			http.StatusBadRequest, "bad_request"},
		{"mine without database", "POST", "/v1/mine", map[string]any{"options": testOptions()},
			http.StatusBadRequest, "bad_request"},
		{"mine unknown database", "POST", "/v1/mine",
			map[string]any{"database": "nope", "options": testOptions()},
			http.StatusNotFound, "not_found"},
		{"mine unknown version", "POST", "/v1/mine",
			map[string]any{"database": "db", "version": 9, "options": testOptions()},
			http.StatusNotFound, "not_found"},
		{"mine bad options", "POST", "/v1/mine",
			map[string]any{"database": "db", "options": map[string]any{"min_support": -1}},
			http.StatusBadRequest, "bad_request"},
		{"stream unknown database", "POST", "/v1/mine/stream",
			map[string]any{"database": "nope", "options": testOptions()},
			http.StatusNotFound, "not_found"},
		{"poll unknown job", "GET", "/v1/jobs/job-999", nil,
			http.StatusNotFound, "job_not_found"},
		{"cancel unknown job", "DELETE", "/v1/jobs/job-999", nil,
			http.StatusNotFound, "job_not_found"},
		{"patterns without params", "GET", "/v1/patterns", nil,
			http.StatusBadRequest, "bad_request"},
		{"patterns unknown database", "GET", "/v1/patterns?db=nope", nil,
			http.StatusNotFound, "not_found"},
		{"patterns bad version", "GET", "/v1/patterns?db=db&version=zero", nil,
			http.StatusBadRequest, "bad_request"},
		{"patterns unmined version", "GET", "/v1/patterns?db=db&version=3", nil,
			http.StatusNotFound, "not_found"},
		{"subscribe unknown database", "GET", "/v1/patterns/subscribe?db=nope", nil,
			http.StatusNotFound, "not_found"},
		{"append unknown database", "POST", "/v1/databases/nope/sequences",
			map[string]any{"sequences": []string{"a b"}},
			http.StatusNotFound, "not_found"},
		{"append without sequences", "POST", "/v1/databases/db/sequences", map[string]any{},
			http.StatusBadRequest, "bad_request"},
		{"append re-parents an item", "POST", "/v1/databases/db/sequences",
			map[string]any{"sequences": []string{"b1 c"}, "hierarchy": []string{"b1 D"}},
			http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := call(t, tc.method, ts.URL+tc.path, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %v)", status, tc.wantStatus, body)
			}
			code, msg, retryable := errBody(t, body)
			if code != tc.wantCode {
				t.Errorf("code = %q, want %q", code, tc.wantCode)
			}
			if msg == "" {
				t.Error("message is empty")
			}
			if retryable {
				t.Error("retryable = true; none of these refusals should be retried")
			}
		})
	}

	// .ldb-specific envelope cases need raw bodies.
	t.Run("ldb upload without name", func(t *testing.T) {
		status, body := rawPost(t, ts.URL+"/v1/databases", "application/x-lash-ldb", []byte("whatever"))
		if status != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400 (body %v)", status, body)
		}
		if code, _, _ := errBody(t, body); code != "bad_request" {
			t.Errorf("code = %q, want bad_request", code)
		}
	})
	t.Run("ldb upload bad magic", func(t *testing.T) {
		status, body := rawPost(t, ts.URL+"/v1/databases?name=ldb", "application/x-lash-ldb", []byte(`{"json":"not ldb"}`))
		if status != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400 (body %v)", status, body)
		}
		code, msg, _ := errBody(t, body)
		if code != "bad_request" || !strings.Contains(msg, "magic") {
			t.Errorf("code = %q, message = %q; want bad_request mentioning the magic", code, msg)
		}
	})
}

// TestDatabasesPagination: GET /v1/databases shares the opaque limit/cursor
// contract with the other list endpoints.
func TestDatabasesPagination(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	var wantNames []string
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("db%d", i)
		mustRegister(t, ts, testSpec(name))
		wantNames = append(wantNames, name)
	}

	var got []string
	url := ts.URL + "/v1/databases?limit=2"
	for pages := 0; ; pages++ {
		if pages > 4 {
			t.Fatal("pagination did not terminate")
		}
		status, body := call(t, "GET", url, nil)
		if status != http.StatusOK {
			t.Fatalf("list: status %d, body %v", status, body)
		}
		if total := int(body["total"].(float64)); total != len(wantNames) {
			t.Fatalf("total = %d, want %d", total, len(wantNames))
		}
		for _, d := range body["databases"].([]any) {
			info := d.(map[string]any)
			got = append(got, info["name"].(string))
			if v := int(info["version"].(float64)); v != 1 {
				t.Errorf("%s: version = %d, want 1", info["name"], v)
			}
			for _, field := range []string{"created_at", "updated_at", "num_sequences"} {
				if _, ok := info[field]; !ok {
					t.Errorf("%s: view is missing %s", info["name"], field)
				}
			}
		}
		cursor, more := body["next_cursor"].(string)
		if !more {
			break
		}
		url = ts.URL + "/v1/databases?limit=2&cursor=" + cursor
	}
	if strings.Join(got, ",") != strings.Join(wantNames, ",") {
		t.Errorf("paged names = %v, want %v (registration order)", got, wantNames)
	}
}

// TestAppendAndVersions: POST /v1/databases/{name}/sequences installs a new
// corpus version; old versions stay mineable and queryable.
func TestAppendAndVersions(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	mustRegister(t, ts, testSpec("db"))

	status, info := call(t, "POST", ts.URL+"/v1/databases/db/sequences",
		map[string]any{"sequences": []string{"a b1 c", "c b2 c"}})
	if status != http.StatusOK {
		t.Fatalf("append: status %d, body %v", status, info)
	}
	if v := int(info["version"].(float64)); v != 2 {
		t.Fatalf("append: version = %d, want 2", v)
	}
	if n := int(info["num_sequences"].(float64)); n != 5 {
		t.Fatalf("append: num_sequences = %d, want 5", n)
	}

	// The registry view reflects the append.
	status, view := call(t, "GET", ts.URL+"/v1/databases/db", nil)
	if status != http.StatusOK || int(view["version"].(float64)) != 2 {
		t.Fatalf("get after append: status %d, body %v", status, view)
	}
	if view["created_at"] == view["updated_at"] {
		t.Error("updated_at did not advance past created_at on append")
	}

	// Mining version 1 explicitly sees the pre-append corpus; the default
	// (version 0) sees the appended one. "b2 c" is frequent only with the
	// appended "c b2 c" sequence.
	mineAt := func(version int) map[string]int64 {
		req := map[string]any{"database": "db", "options": map[string]any{
			"min_support": 2, "max_gap": 0, "max_length": 2}, "wait": true}
		if version != 0 {
			req["version"] = version
		}
		status, body := call(t, "POST", ts.URL+"/v1/mine", req)
		if status != http.StatusOK || body["status"] != "done" {
			t.Fatalf("mine version %d: status %d, body %v", version, status, body)
		}
		res := body["result"].(map[string]any)
		wantVer := version
		if wantVer == 0 {
			wantVer = 2
		}
		if cv := int(res["corpus_version"].(float64)); cv != wantVer {
			t.Fatalf("mine version %d: corpus_version = %d, want %d", version, cv, wantVer)
		}
		return patternSet(t, body)
	}
	v1 := mineAt(1)
	v2 := mineAt(0)
	if _, ok := v1["b2 c "]; ok {
		t.Errorf("v1 patterns %v: 'b2 c' frequent before the append", v1)
	}
	if sup, ok := v2["b2 c "]; !ok || sup != 2 {
		t.Errorf("v2 patterns %v: want 'b2 c' with support 2", v2)
	}

	// Version-qualified pattern queries read the matching result.
	status, body := call(t, "GET", ts.URL+"/v1/patterns?db=db&version=1&limit=100", nil)
	if status != http.StatusOK || int(body["corpus_version"].(float64)) != 1 {
		t.Fatalf("patterns version=1: status %d, body %v", status, body)
	}
	status, body = call(t, "GET", ts.URL+"/v1/patterns?db=db", nil)
	if status != http.StatusOK || int(body["corpus_version"].(float64)) != 2 {
		t.Fatalf("patterns default version: status %d, body %v (want latest-complete = 2)", status, body)
	}
}

// TestLDBUploadAndAppend: registration and appends accept raw binary .ldb
// bodies under Content-Type application/x-lash-ldb.
func TestLDBUploadAndAppend(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	var buf bytes.Buffer
	if err := testDB(t).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	status, info := rawPost(t, ts.URL+"/v1/databases?name=bin", "application/x-lash-ldb", buf.Bytes())
	if status != http.StatusCreated {
		t.Fatalf("upload: status %d, body %v", status, info)
	}
	if info["source"] != "upload:ldb" || int(info["num_sequences"].(float64)) != 3 {
		t.Fatalf("upload: info %v, want source upload:ldb with 3 sequences", info)
	}

	// The uploaded corpus mines like its inline twin.
	status, body := call(t, "POST", ts.URL+"/v1/mine",
		map[string]any{"database": "bin", "options": testOptions(), "wait": true})
	if status != http.StatusOK || body["status"] != "done" {
		t.Fatalf("mine upload: status %d, body %v", status, body)
	}
	want, err := lash.Mine(testDB(t), lash.Options{MinSupport: 2, MaxGap: 1, MaxLength: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := patternSet(t, body)
	if len(got) != len(want.Patterns) {
		t.Fatalf("mined %d patterns, want %d", len(got), len(want.Patterns))
	}

	// A self-contained .ldb fragment appends by item name.
	fb := lash.NewDatabaseBuilder()
	fb.AddParent("b1", "B")
	fb.AddSequence("a", "b1", "a")
	frag, err := fb.Build()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := frag.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	status, info = rawPost(t, ts.URL+"/v1/databases/bin/sequences", "application/x-lash-ldb", buf.Bytes())
	if status != http.StatusOK {
		t.Fatalf("append .ldb: status %d, body %v", status, info)
	}
	if v := int(info["version"].(float64)); v != 2 {
		t.Fatalf("append .ldb: version = %d, want 2", v)
	}
	if n := int(info["num_sequences"].(float64)); n != 4 {
		t.Fatalf("append .ldb: num_sequences = %d, want 4", n)
	}
}

// liveCorpus returns base sequences over a fixed vocabulary: every
// item w0..w4 is frequent, spread over several partitions.
func liveCorpusSequences() []string {
	out := make([]string, 0, 30)
	for i := 0; i < 30; i++ {
		out = append(out, fmt.Sprintf("w%d w%d w%d", i%5, (i+1)%5, (i+2)%5))
	}
	return out
}

// TestLiveCorporaEndToEnd is the e2e flow of the tentpole: register → mine
// (capturing state server-side) → append → re-mine (a delta run that
// splices clean partitions) → query. The delta result must equal a cold
// mine of the appended corpus, and must actually have reused partitions.
func TestLiveCorporaEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	base := liveCorpusSequences()
	mustRegister(t, ts, server.DatabaseSpec{Name: "db", Sequences: base})

	opts := map[string]any{"min_support": 5, "max_gap": 1, "max_length": 3}
	mine := func(dbName string) map[string]any {
		status, body := call(t, "POST", ts.URL+"/v1/mine",
			map[string]any{"database": dbName, "options": opts, "wait": true})
		if status != http.StatusOK || body["status"] != "done" {
			t.Fatalf("mine %s: status %d, body %v", dbName, status, body)
		}
		return body
	}
	mine("db") // v1 run: captures delta state server-side

	// Append sequences over a brand-new vocabulary: old partitions stay
	// clean, so the v2 re-mine can splice them from the captured state.
	extra := []string{"n1 n2 n3", "n1 n2 n3", "n1 n2 n3", "n2 n3 n1", "n2 n3 n1", "n3 n1 n2"}
	status, info := call(t, "POST", ts.URL+"/v1/databases/db/sequences",
		map[string]any{"sequences": extra})
	if status != http.StatusOK || int(info["version"].(float64)) != 2 {
		t.Fatalf("append: status %d, body %v", status, info)
	}

	v2 := mine("db") // delta run against version 2
	res := v2["result"].(map[string]any)
	if cv := int(res["corpus_version"].(float64)); cv != 2 {
		t.Errorf("corpus_version = %d, want 2", cv)
	}
	reused, _ := res["delta_partitions_reused"].(float64)
	if reused <= 0 {
		t.Errorf("delta_partitions_reused = %v, want > 0 (the re-mine should splice clean partitions)", reused)
	}

	// Differential: the delta-mined v2 result equals a cold mine of the
	// same corpus registered fresh (same serving order, same supports).
	mustRegister(t, ts, server.DatabaseSpec{Name: "cold", Sequences: append(append([]string{}, base...), extra...)})
	mine("cold")
	status, deltaPats := call(t, "GET", ts.URL+"/v1/patterns?db=db", nil)
	if status != http.StatusOK {
		t.Fatalf("patterns db: status %d", status)
	}
	status, coldPats := call(t, "GET", ts.URL+"/v1/patterns?db=cold", nil)
	if status != http.StatusOK {
		t.Fatalf("patterns cold: status %d", status)
	}
	got, want := patternsOf(t, deltaPats), patternsOf(t, coldPats)
	if len(got) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("delta-mined patterns diverge from cold mine:\ngot  %v\nwant %v", got, want)
	}

	// The pre-append result stays queryable under version=1.
	status, body := call(t, "GET", ts.URL+"/v1/patterns?db=db&version=1", nil)
	if status != http.StatusOK || int(body["corpus_version"].(float64)) != 1 {
		t.Fatalf("patterns version=1 after append: status %d, body %v", status, body)
	}

	// A stream after the next append resumes from v2's state like a mine.
	reusedBefore := metricValue(t, ts, "lash_delta_partitions_reused_total")
	if status, info := call(t, "POST", ts.URL+"/v1/databases/db/sequences",
		map[string]any{"sequences": []string{"n3 n2 n1"}}); status != http.StatusOK {
		t.Fatalf("second append: status %d, body %v", status, info)
	}
	status, lines := streamLines(t, ts.URL, map[string]any{"database": "db", "options": opts})
	if _, trailer := streamPatterns(t, lines); status != http.StatusOK || trailer["error"] != nil {
		t.Fatalf("stream of v3: status %d, trailer %v", status, trailer)
	}
	if reused := metricValue(t, ts, "lash_delta_partitions_reused_total"); reused <= reusedBefore {
		t.Errorf("lash_delta_partitions_reused_total %v → %v over the stream of v3, want it to rise (the stream resumes)",
			reusedBefore, reused)
	}
}

// subscribeAcrossAppend follows a version-1 job held in flight while an
// append installs version 2 and a job mines it, and checks the subscription
// sent v1's result (a1 a2), then v2's (b1 b2) behind a fresh marker, and
// ended at corpus version 2. With v2Done the version-2 job is mined to
// completion (wait:true) before the version-1 job is released; otherwise it
// stays in flight until the subscriber has v1's result, so the subscription
// follows it while it runs.
func subscribeAcrossAppend(t *testing.T, v2Done bool) {
	t.Helper()
	patsA := []lash.Pattern{{Items: []string{"a1"}, Support: 4}, {Items: []string{"a2"}, Support: 3}}
	patsB := []lash.Pattern{{Items: []string{"b1"}, Support: 2}, {Items: []string{"b2"}, Support: 1}}
	releaseA, releaseB := make(chan struct{}), make(chan struct{})
	if v2Done {
		close(releaseB)
	}
	baseSeqs := len(testSpec("db").Sequences)

	_, ts := newTestServer(t, server.Config{
		MineFunc: func(ctx context.Context, db *lash.Database, opt lash.Options) (*lash.Result, error) {
			if db.NumSequences() == baseSeqs {
				return gatedResult(ctx, releaseA, patsA)
			}
			return gatedResult(ctx, releaseB, patsB)
		},
	})
	mustRegister(t, ts, testSpec("db"))

	status, body := call(t, "POST", ts.URL+"/v1/mine",
		map[string]any{"database": "db", "options": testOptions()})
	if status != http.StatusAccepted {
		t.Fatalf("submit v1 job: status %d, body %v", status, body)
	}
	resp := openSubscription(t, ts.URL+"/v1/patterns/subscribe?db=db") // following the v1 job

	status, info := call(t, "POST", ts.URL+"/v1/databases/db/sequences",
		map[string]any{"sequences": []string{"a b1 c"}})
	if status != http.StatusOK || int(info["version"].(float64)) != 2 {
		t.Fatalf("append: status %d, body %v", status, info)
	}
	status, body = call(t, "POST", ts.URL+"/v1/mine",
		map[string]any{"database": "db", "options": testOptions(), "wait": v2Done})
	want := http.StatusAccepted
	if v2Done {
		want = http.StatusOK
	}
	if status != want {
		t.Fatalf("mine v2: status %d, body %v, want %d", status, body, want)
	}
	v2ID := body["job_id"].(string)
	close(releaseA)
	// The handler flushes v1's result only after it picked its next job, so
	// once a2 is read the version-2 job has been followed.
	records, markers, tr := readSubscription(t, resp, func(rec subLine) {
		if !v2Done && rec.Items[0] == "a2" {
			close(releaseB)
		}
	})

	var items []string
	for _, rec := range records {
		if rec.Replay {
			t.Errorf("record %v marked replay with nothing completed", rec.Items)
		}
		items = append(items, strings.Join(rec.Items, " "))
	}
	if want := []string{"a1", "a2", "b1", "b2"}; !slices.Equal(items, want) {
		t.Errorf("live records = %v, want %v (v1's result, then v2's)", items, want)
	}
	if want := []int{1, 2}; !slices.Equal(markers, want) {
		t.Errorf("version markers = %v, want %v", markers, want)
	}
	if !tr.Done || tr.CorpusVersion != 2 || tr.Live != 4 || tr.LiveJobID != v2ID || tr.Error != "" {
		t.Errorf("trailer = %+v, want done at corpus_version 2 with live=4 from %s", tr, v2ID)
	}
}

// TestSubscribeSurvivesAppend: a subscription following a job does not end
// when an append installs a new corpus version — it emits a version marker
// and continues with the job mining the new version.
func TestSubscribeSurvivesAppend(t *testing.T) { subscribeAcrossAppend(t, false) }

// TestSubscribeDeliversVersionCompletedWhileTailing: a version mined to
// completion while the subscriber still waits on an older job is sent too,
// after that job's result.
func TestSubscribeDeliversVersionCompletedWhileTailing(t *testing.T) { subscribeAcrossAppend(t, true) }

// TestConcurrentAppendsRace exercises appends racing in-flight mining,
// subscriptions, and pattern queries (run under -race). Appends must
// serialize into a gapless version history while everything else keeps
// serving consistent snapshots.
func TestConcurrentAppendsRace(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	mustRegister(t, ts, server.DatabaseSpec{Name: "db", Sequences: liveCorpusSequences()})

	const appenders, appendsEach = 3, 3
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < appendsEach; i++ {
				status, body := call(t, "POST", ts.URL+"/v1/databases/db/sequences",
					map[string]any{"sequences": []string{
						fmt.Sprintf("x%d_%d y%d_%d x%d_%d", g, i, g, i, g, i)}})
				if status != http.StatusOK {
					t.Errorf("append %d/%d: status %d, body %v", g, i, status, body)
				}
			}
		}(g)
	}
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				status, body := call(t, "POST", ts.URL+"/v1/mine", map[string]any{
					"database": "db", "wait": true,
					"options": map[string]any{"min_support": 5, "max_gap": 1, "max_length": 3}})
				if status != http.StatusOK || body["status"] != "done" {
					t.Errorf("mine: status %d, body %v", status, body)
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // queries racing the appends: any answered snapshot is fine
		defer wg.Done()
		for i := 0; i < 10; i++ {
			status, _ := call(t, "GET", ts.URL+"/v1/patterns?db=db&limit=5", nil)
			if status != http.StatusOK && status != http.StatusNotFound {
				t.Errorf("patterns during appends: status %d", status)
			}
		}
	}()
	wg.Add(1)
	go func() { // subscriptions racing the appends
		defer wg.Done()
		for i := 0; i < 3; i++ {
			resp, err := http.Get(ts.URL + "/v1/patterns/subscribe?db=db")
			if err != nil {
				t.Errorf("subscribe: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining only
			resp.Body.Close()
		}
	}()
	wg.Wait()

	status, view := call(t, "GET", ts.URL+"/v1/databases/db", nil)
	if status != http.StatusOK {
		t.Fatalf("get db: status %d", status)
	}
	wantVersion := 1 + appenders*appendsEach
	if v := int(view["version"].(float64)); v != wantVersion {
		t.Errorf("final version = %d, want %d (appends must serialize without gaps)", v, wantVersion)
	}
	if n := int(view["num_sequences"].(float64)); n != 30+appenders*appendsEach {
		t.Errorf("final num_sequences = %d, want %d", n, 30+appenders*appendsEach)
	}

	// After the dust settles the latest version delta-mines correctly.
	status, body := call(t, "POST", ts.URL+"/v1/mine", map[string]any{
		"database": "db", "wait": true,
		"options": map[string]any{"min_support": 5, "max_gap": 1, "max_length": 3}})
	if status != http.StatusOK || body["status"] != "done" {
		t.Fatalf("final mine: status %d, body %v", status, body)
	}
	res := body["result"].(map[string]any)
	if cv := int(res["corpus_version"].(float64)); cv != wantVersion {
		t.Errorf("final corpus_version = %d, want %d", cv, wantVersion)
	}
}
