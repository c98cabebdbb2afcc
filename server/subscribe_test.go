package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
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

// subscribe reads a full subscription stream to its trailer and returns the
// pattern records, the version markers in emission order, and the trailer.
func subscribe(t *testing.T, url string) ([]subLine, []int, subLine) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("subscribe: content-type %q", ct)
	}
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
		records = append(records, line)
	}
	t.Fatalf("subscribe: stream ended without a trailer (after %d records): %v", len(records), sc.Err())
	return nil, nil, subLine{}
}

func patKey(items []string, support int64) string {
	return fmt.Sprintf("%v=%d", items, support)
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
		got := fmt.Sprintf("%s=%d", joinItems(rec.Items), rec.Support)
		if got != want[i] {
			t.Errorf("record %d = %s, want %s (serving order must match /v1/patterns)", i, got, want[i])
		}
	}
	if !trailer.Done || trailer.Replayed != len(want) || trailer.Live != 0 ||
		trailer.LiveJobID != "" || trailer.ReplayJobID == "" || trailer.Error != "" {
		t.Errorf("trailer = %+v, want done with %d replayed, no live phase", trailer, len(want))
	}
}

func joinItems(items []string) string {
	out := ""
	for i, it := range items {
		if i > 0 {
			out += " "
		}
		out += it
	}
	return out
}

// TestSubscribeReplayAndLive is the full contract under -race: concurrent
// subscribers each get the complete replay of the latest finished result,
// then the complete live tail of the in-flight run — every pattern exactly
// once, in order — then one trailer.
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
		MineFunc: func(ctx context.Context, db *lash.Database, opt lash.Options, emit func(lash.Pattern) error) (*lash.Result, error) {
			if opt.MinSupport == 1 { // job A: the completed result to replay
				return &lash.Result{Patterns: append([]lash.Pattern(nil), replayPats...)}, nil
			}
			if emit == nil {
				select { // job B: stays running while subscribers follow
				case <-release:
				case <-ctx.Done():
				}
				return &lash.Result{}, nil
			}
			for _, p := range livePats { // job B's feeder
				if err := emit(p); err != nil {
					return nil, err
				}
				time.Sleep(time.Millisecond) // let subscribers interleave with appends
			}
			return &lash.Result{Patterns: append([]lash.Pattern(nil), livePats...)}, nil
		},
	})
	defer close(release)
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

	var wg sync.WaitGroup
	for sub := 0; sub < 3; sub++ {
		wg.Add(1)
		go func(sub int) {
			defer wg.Done()
			records, _, trailer := subscribe(t, ts.URL+"/v1/patterns/subscribe?db=db")
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
			if !equalStrings(gotReplay, wantReplay) {
				t.Errorf("sub %d: replay = %v, want %v", sub, gotReplay, wantReplay)
			}
			if !equalStrings(gotLive, wantLive) {
				t.Errorf("sub %d: live tail = %v, want %v (no duplicates, no gaps)", sub, gotLive, wantLive)
			}
			if !trailer.Done || trailer.Replayed != len(wantReplay) || trailer.Live != len(wantLive) ||
				trailer.LiveJobID != liveID || trailer.Error != "" {
				t.Errorf("sub %d: trailer = %+v, want replayed=%d live=%d live_job_id=%s",
					sub, trailer, len(wantReplay), len(wantLive), liveID)
			}
		}(sub)
	}
	wg.Wait()

	// One feeder — a stream job, the most recent in-flight run of the
	// database while the later subscribers attached — served all three, and
	// was never itself followed: that would have started a feeder's feeder.
	_, stats := call(t, "GET", ts.URL+"/v1/stats", nil)
	if n := stats["jobs"].(map[string]any)["streams"].(float64); n != 1 {
		t.Errorf("stats streams = %v after three subscribers of one run, want 1", n)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
		MineFunc: func(ctx context.Context, db *lash.Database, opt lash.Options, emit func(lash.Pattern) error) (*lash.Result, error) {
			if emit == nil {
				select {
				case <-release:
				case <-ctx.Done():
				}
				return &lash.Result{}, nil
			}
			for _, p := range livePats {
				if err := emit(p); err != nil {
					return nil, err
				}
			}
			return &lash.Result{}, nil
		},
	})
	defer close(release)
	mustRegister(t, ts, testSpec("db"))
	status, body := call(t, "POST", ts.URL+"/v1/mine",
		map[string]any{"database": "db", "options": testOptions()})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %v", status, body)
	}

	records, markers, trailer := subscribe(t, ts.URL+"/v1/patterns/subscribe?db=db")
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
