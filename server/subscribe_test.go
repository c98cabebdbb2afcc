package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"lash"
	"lash/server"
)

// subLine is one decoded NDJSON line of GET /v1/patterns/subscribe.
type subLine struct {
	// Record fields.
	Items   []string `json:"items"`
	Support int64    `json:"support"`
	Replay  bool     `json:"replay"`
	// Marker fields.
	Version int `json:"version"`
	// Trailer fields.
	Done          bool   `json:"done"`
	Database      string `json:"database"`
	CorpusVersion int    `json:"corpus_version"`
	ReplayJobID   string `json:"replay_job_id"`
	Replayed      int    `json:"replayed"`
	LiveJobID     string `json:"live_job_id"`
	Live          int    `json:"live"`
	Error         string `json:"error"`
}

// isMarker reports whether the line is a corpus-version marker rather than
// a pattern record or the trailer.
func (l subLine) isMarker() bool { return !l.Done && l.Items == nil && l.Version != 0 }

// openSubscription sends GET /v1/patterns/subscribe and returns the response
// once its headers arrive. The handler sends them before it waits on a
// followed job, so by then the subscription has taken its replay and picked
// the job it follows: a test may release that job next. A handler that held
// the headers back fails the test instead of deadlocking it.
func openSubscription(t *testing.T, url string) *http.Response {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel) // hang up before the server's cleanup waits on the handler
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(5*time.Second, cancel)
	resp, err := http.DefaultClient.Do(req)
	if !timer.Stop() {
		t.Fatal("subscribe: no response headers within 5s")
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("subscribe: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		resp.Body.Close()
		t.Fatalf("subscribe: content-type %q", ct)
	}
	return resp
}

// readSubscription reads a subscription stream to its trailer, passing each
// pattern record to onRecord (when non-nil) as it arrives, and returns the
// pattern records, the version markers in emission order, and the trailer.
func readSubscription(t *testing.T, resp *http.Response, onRecord func(subLine)) ([]subLine, []int, subLine) {
	t.Helper()
	defer resp.Body.Close()
	var records []subLine
	var markers []int
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line subLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("subscribe: bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Done {
			if sc.Scan() {
				t.Fatalf("subscribe: data after the trailer: %q", sc.Text())
			}
			return records, markers, line
		}
		if line.isMarker() {
			markers = append(markers, line.Version)
			continue
		}
		if onRecord != nil {
			onRecord(line)
		}
		records = append(records, line)
	}
	t.Fatalf("subscribe: stream ended without a trailer (after %d records): %v", len(records), sc.Err())
	return nil, nil, subLine{}
}

// subscribe reads a full subscription stream; see readSubscription.
func subscribe(t *testing.T, url string) ([]subLine, []int, subLine) {
	t.Helper()
	return readSubscription(t, openSubscription(t, url), nil)
}

// patKey renders a pattern the way patternsOf renders a listing entry.
func patKey(items []string, support int64) string {
	return fmt.Sprintf("%s=%d", strings.Join(items, " "), support)
}

// TestSubscribeReplayOnly covers the degenerate subscription: a database
// with a completed result and nothing mining replays the index and ends.
func TestSubscribeReplayOnly(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	mustRegister(t, ts, testSpec("db"))
	minePatterns(t, ts, "db", map[string]any{"min_support": 1, "max_gap": 1, "max_length": 3})

	status, full := call(t, "GET", ts.URL+"/v1/patterns?db=db", nil)
	if status != http.StatusOK {
		t.Fatal("patterns failed")
	}
	want := patternsOf(t, full)

	records, markers, trailer := subscribe(t, ts.URL+"/v1/patterns/subscribe?db=db")
	if len(records) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(records), len(want))
	}
	if len(markers) != 1 || markers[0] != 1 {
		t.Errorf("markers = %v, want one marker for corpus version 1", markers)
	}
	for i, rec := range records {
		if !rec.Replay {
			t.Errorf("record %d not marked replay", i)
		}
		if got := patKey(rec.Items, rec.Support); got != want[i] {
			t.Errorf("record %d = %s, want %s (serving order must match /v1/patterns)", i, got, want[i])
		}
	}
	if !trailer.Done || trailer.Replayed != len(want) || trailer.Live != 0 ||
		trailer.LiveJobID != "" || trailer.ReplayJobID == "" || trailer.Error != "" {
		t.Errorf("trailer = %+v, want done with %d replayed, no live phase", trailer, len(want))
	}
}

// gatedResult is a MineFunc body for scripted jobs: it holds the run until
// gate closes (or the job is cancelled), then returns pats as the result.
func gatedResult(ctx context.Context, gate <-chan struct{}, pats []lash.Pattern) (*lash.Result, error) {
	select {
	case <-gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &lash.Result{Patterns: slices.Clone(pats)}, nil
}

// TestSubscribeReplayAndLive is the full contract under -race: concurrent
// subscribers each get the complete replay of the latest finished result,
// then the complete result of the job in flight when they subscribed — every
// pattern exactly once, in serving order — then one trailer. Following costs
// no run: the only mines are the two jobs'.
func TestSubscribeReplayAndLive(t *testing.T) {
	replayPats := []lash.Pattern{
		{Items: []string{"x"}, Support: 9},
		{Items: []string{"x", "y"}, Support: 5},
		{Items: []string{"y"}, Support: 3},
	}
	livePats := make([]lash.Pattern, 40)
	for i := range livePats {
		livePats[i] = lash.Pattern{Items: []string{"live", fmt.Sprintf("p%02d", i)}, Support: int64(100 - i)}
	}

	release := make(chan struct{}) // holds the followed job open
	_, ts := newTestServer(t, server.Config{
		MineFunc: func(ctx context.Context, db *lash.Database, opt lash.Options) (*lash.Result, error) {
			if opt.MinSupport == 1 { // job A: the completed result to replay
				return &lash.Result{Patterns: slices.Clone(replayPats)}, nil
			}
			return gatedResult(ctx, release, livePats) // job B: in flight while subscribers attach
		},
	})
	mustRegister(t, ts, testSpec("db"))

	minePatterns(t, ts, "db", map[string]any{"min_support": 1, "max_gap": 1, "max_length": 3})
	status, body := call(t, "POST", ts.URL+"/v1/mine",
		map[string]any{"database": "db", "options": map[string]any{"min_support": 2, "max_gap": 1, "max_length": 3}})
	if status != http.StatusAccepted {
		t.Fatalf("submit live job: status %d, body %v", status, body)
	}
	liveID := body["job_id"].(string)

	// Replay serving order: support descending.
	wantReplay := []string{
		patKey([]string{"x"}, 9), patKey([]string{"x", "y"}, 5), patKey([]string{"y"}, 3),
	}
	var wantLive []string
	for _, p := range livePats {
		wantLive = append(wantLive, patKey(p.Items, p.Support))
	}

	var subs []*http.Response
	for range 3 {
		subs = append(subs, openSubscription(t, ts.URL+"/v1/patterns/subscribe?db=db"))
	}
	close(release)

	var wg sync.WaitGroup
	for sub, resp := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			records, _, trailer := readSubscription(t, resp, nil)
			var gotReplay, gotLive []string
			for _, rec := range records {
				if rec.Replay {
					if len(gotLive) > 0 {
						t.Errorf("sub %d: replay record after live records", sub)
					}
					gotReplay = append(gotReplay, patKey(rec.Items, rec.Support))
				} else {
					gotLive = append(gotLive, patKey(rec.Items, rec.Support))
				}
			}
			if !slices.Equal(gotReplay, wantReplay) {
				t.Errorf("sub %d: replay = %v, want %v", sub, gotReplay, wantReplay)
			}
			if !slices.Equal(gotLive, wantLive) {
				t.Errorf("sub %d: live = %v, want %v (no duplicates, no gaps)", sub, gotLive, wantLive)
			}
			if !trailer.Done || trailer.Replayed != len(wantReplay) || trailer.Live != len(wantLive) ||
				trailer.LiveJobID != liveID || trailer.Error != "" {
				t.Errorf("sub %d: trailer = %+v, want replayed=%d live=%d live_job_id=%s",
					sub, trailer, len(wantReplay), len(wantLive), liveID)
			}
		}()
	}
	wg.Wait()

	jobs := jobStats(t, ts)
	if jobs["mines_run"].(float64) != 2 || jobs["submitted"].(float64) != 2 {
		t.Errorf("stats after three subscribers of one run: %v, want mines_run 2, submitted 2 (the two jobs)", jobs)
	}
}

// TestSubscribeLiveOnly: a database with a run in flight but nothing
// completed yet skips the replay phase.
func TestSubscribeLiveOnly(t *testing.T) {
	livePats := []lash.Pattern{
		{Items: []string{"a"}, Support: 2},
		{Items: []string{"b"}, Support: 1},
	}
	release := make(chan struct{})
	_, ts := newTestServer(t, server.Config{
		MineFunc: func(ctx context.Context, db *lash.Database, opt lash.Options) (*lash.Result, error) {
			return gatedResult(ctx, release, livePats)
		},
	})
	mustRegister(t, ts, testSpec("db"))
	status, body := call(t, "POST", ts.URL+"/v1/mine",
		map[string]any{"database": "db", "options": testOptions()})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %v", status, body)
	}

	resp := openSubscription(t, ts.URL+"/v1/patterns/subscribe?db=db")
	close(release)
	records, markers, trailer := readSubscription(t, resp, nil)
	if len(records) != len(livePats) {
		t.Fatalf("got %d records, want %d", len(records), len(livePats))
	}
	if len(markers) != 1 || markers[0] != 1 {
		t.Errorf("markers = %v, want one marker for corpus version 1", markers)
	}
	for i, rec := range records {
		if rec.Replay {
			t.Errorf("record %d marked replay with nothing completed", i)
		}
		if patKey(rec.Items, rec.Support) != patKey(livePats[i].Items, livePats[i].Support) {
			t.Errorf("record %d = %v/%d, want %v", i, rec.Items, rec.Support, livePats[i])
		}
	}
	if !trailer.Done || trailer.Replayed != 0 || trailer.ReplayJobID != "" || trailer.Live != len(livePats) {
		t.Errorf("trailer = %+v, want live-only with %d patterns", trailer, len(livePats))
	}
}

// TestSubscribeSendsFollowedJobsListing mines for real: a subscriber of an
// in-flight job receives exactly that job's GET /v1/patterns?job= listing,
// in order, and mines nothing itself — mines_run rises by the job's one run.
// Restricted runs are followed like any other, and so is a job a stream
// submitted, whose stream sends the same records.
func TestSubscribeSendsFollowedJobsListing(t *testing.T) {
	for _, row := range []struct{ name, restriction string }{{"none", "none"}, {"closed", "closed"}, {"stream", "none"}} {
		t.Run(row.name, func(t *testing.T) {
			gate := make(chan struct{})
			_, ts := newTestServer(t, server.Config{
				// The patterns are the library's; the gate only holds the
				// job in flight until the subscriber follows it.
				MineFunc: func(ctx context.Context, db *lash.Database, opt lash.Options) (*lash.Result, error) {
					select {
					case <-gate:
					case <-ctx.Done():
						return nil, ctx.Err()
					}
					return lash.MineContext(ctx, db, opt)
				},
			})
			mustRegister(t, ts, server.DatabaseSpec{Name: "gen", Generator: "text", Size: 300, Seed: 3})
			opts := map[string]any{"min_support": 5, "max_gap": 1, "max_length": 3, "restriction": row.restriction}
			req := map[string]any{"database": "gen", "options": opts}
			var id string
			var stream *http.Response
			if row.name == "stream" {
				stream = postStream(t, ts.URL, req)
				_, page := call(t, "GET", ts.URL+"/v1/jobs", nil)
				id = page["jobs"].([]any)[0].(map[string]any)["job_id"].(string)
			} else {
				status, body := call(t, "POST", ts.URL+"/v1/mine", req)
				if status != http.StatusAccepted {
					t.Fatalf("submit: status %d, body %v", status, body)
				}
				id = body["job_id"].(string)
			}

			resp := openSubscription(t, ts.URL+"/v1/patterns/subscribe?db=gen")
			close(gate)
			records, _, trailer := readSubscription(t, resp, nil)

			status, listing := call(t, "GET", ts.URL+"/v1/patterns?job="+id, nil)
			if status != http.StatusOK {
				t.Fatalf("patterns?job=%s: status %d, body %v", id, status, listing)
			}
			want := patternsOf(t, listing)
			got := make([]string, 0, len(records))
			for _, rec := range records {
				if rec.Replay {
					t.Fatalf("record %v marked replay with nothing completed", rec.Items)
				}
				got = append(got, patKey(rec.Items, rec.Support))
			}
			if len(want) == 0 || !slices.Equal(got, want) {
				t.Errorf("live records (%d) differ from the job's listing (%d)", len(got), len(want))
			}
			if stream != nil {
				_, lines := readStream(t, stream)
				if streamed, tr := streamPatterns(t, lines); !slices.Equal(streamed, want) || tr["job_id"] != id {
					t.Errorf("stream of job %v sent %d records, want %s's %d", tr["job_id"], len(streamed), id, len(want))
				}
			}
			if trailer.LiveJobID != id || trailer.Live != len(want) || trailer.Replayed != 0 || trailer.Error != "" {
				t.Errorf("trailer = %+v, want live=%d from %s", trailer, len(want), id)
			}
			jobs := jobStats(t, ts)
			if jobs["mines_run"].(float64) != 1 || jobs["submitted"].(float64) != 1 {
				t.Errorf("stats = %v, want mines_run 1, submitted 1: following costs no run", jobs)
			}
		})
	}
}

// TestSubscribeEndsOnUnsendableJob: a followed job that was cancelled, or
// whose result the cache evicted before the subscriber read it, ends the
// subscription with the reason in the trailer.
func TestSubscribeEndsOnUnsendableJob(t *testing.T) {
	pats := []lash.Pattern{{Items: []string{"a"}, Support: 2}}
	gates := map[int]chan struct{}{3: make(chan struct{}), 4: make(chan struct{})}
	newServer := func(cacheBytes int64) *httptest.Server {
		_, ts := newTestServer(t, server.Config{
			CacheBytes: cacheBytes,
			MineFunc: func(ctx context.Context, db *lash.Database, opt lash.Options) (*lash.Result, error) {
				return gatedResult(ctx, gates[opt.MaxLength], pats)
			},
		})
		mustRegister(t, ts, testSpec("db"))
		return ts
	}
	submit := func(ts *httptest.Server, maxLength int) string {
		opts := testOptions()
		opts["max_length"] = maxLength
		status, body := call(t, "POST", ts.URL+"/v1/mine", map[string]any{"database": "db", "options": opts})
		if status != http.StatusAccepted {
			t.Fatalf("submit: status %d, body %v", status, body)
		}
		return body["job_id"].(string)
	}

	t.Run("cancelled", func(t *testing.T) {
		ts := newServer(0)
		id := submit(ts, 3)
		resp := openSubscription(t, ts.URL+"/v1/patterns/subscribe?db=db")
		if status, body := call(t, "DELETE", ts.URL+"/v1/jobs/"+id, nil); status != http.StatusAccepted {
			t.Fatalf("cancel: status %d, body %v", status, body)
		}
		records, _, tr := readSubscription(t, resp, nil)
		if len(records) != 0 || tr.LiveJobID != id || !strings.Contains(tr.Error, "cancelled") {
			t.Errorf("records %v, trailer %+v: want none, and an error naming %s cancelled", records, tr, id)
		}
	})

	t.Run("evicted", func(t *testing.T) {
		ts := newServer(1) // every add evicts all but the newest result
		older := submit(ts, 3)
		newer := submit(ts, 4)
		resp := openSubscription(t, ts.URL+"/v1/patterns/subscribe?db=db") // follows newer first
		close(gates[3])
		waitForJob(t, ts, older)
		close(gates[4]) // newer's result evicts older's
		records, _, tr := readSubscription(t, resp, nil)
		if len(records) != len(pats) || tr.LiveJobID != older || !strings.Contains(tr.Error, "evicted") {
			t.Errorf("records %v, trailer %+v: want %s's result, then an error naming %s evicted", records, tr, newer, older)
		}
	})
}

// TestSubscribeErrors: parameter and not-found paths.
func TestSubscribeErrors(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	mustRegister(t, ts, testSpec("db"))

	status, _ := call(t, "GET", ts.URL+"/v1/patterns/subscribe", nil)
	if status != http.StatusBadRequest {
		t.Errorf("missing db: status %d, want 400", status)
	}
	status, _ = call(t, "GET", ts.URL+"/v1/patterns/subscribe?db=nope", nil)
	if status != http.StatusNotFound {
		t.Errorf("unknown db: status %d, want 404", status)
	}
	// Registered but never mined and nothing in flight.
	status, _ = call(t, "GET", ts.URL+"/v1/patterns/subscribe?db=db", nil)
	if status != http.StatusNotFound {
		t.Errorf("nothing to subscribe to: status %d, want 404", status)
	}
}
