package server_test

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"lash"
	"lash/server"
)

// minePatterns runs one wait:true mine and returns nothing — the point is
// to leave a completed result behind for the patterns endpoints.
func minePatterns(t *testing.T, ts *httptest.Server, db string, opts map[string]any) {
	t.Helper()
	status, body := call(t, "POST", ts.URL+"/v1/mine",
		map[string]any{"database": db, "options": opts, "wait": true})
	if status != http.StatusOK || body["status"] != "done" {
		t.Fatalf("mine: status %d, body %v", status, body)
	}
}

// patternsOf decodes the "patterns" array of a patterns response into
// "item item..."→support.
func patternsOf(t *testing.T, body map[string]any) []string {
	t.Helper()
	raw, ok := body["patterns"].([]any)
	if !ok {
		t.Fatalf("no patterns in %v", body)
	}
	out := make([]string, 0, len(raw))
	for _, p := range raw {
		pm := p.(map[string]any)
		var items []string
		for _, it := range pm["items"].([]any) {
			items = append(items, it.(string))
		}
		out = append(out, fmt.Sprintf("%s=%d", strings.Join(items, " "), int64(pm["support"].(float64))))
	}
	return out
}

func TestPatternsPagination(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	mustRegister(t, ts, testSpec("db"))
	minePatterns(t, ts, "db", map[string]any{"min_support": 1, "max_gap": 1, "max_length": 3})

	// The unpaginated listing is the reference.
	status, full := call(t, "GET", ts.URL+"/v1/patterns?db=db", nil)
	if status != http.StatusOK {
		t.Fatalf("patterns: status %d, body %v", status, full)
	}
	want := patternsOf(t, full)
	if len(want) < 4 {
		t.Fatalf("test database mined only %d patterns; want enough to paginate", len(want))
	}
	if _, hasCursor := full["next_cursor"]; hasCursor {
		t.Fatal("unlimited query returned a next_cursor")
	}

	// Page through with limit=2; pages must concatenate to the reference.
	var got []string
	pageURL := ts.URL + "/v1/patterns?db=db&limit=2"
	for pages := 0; ; pages++ {
		if pages > len(want) {
			t.Fatal("cursor chain did not terminate")
		}
		status, page := call(t, "GET", pageURL, nil)
		if status != http.StatusOK {
			t.Fatalf("page: status %d, body %v", status, page)
		}
		got = append(got, patternsOf(t, page)...)
		if int(page["total"].(float64)) != len(want) {
			t.Errorf("page total = %v, want %d", page["total"], len(want))
		}
		cur, ok := page["next_cursor"].(string)
		if !ok {
			break
		}
		pageURL = ts.URL + "/v1/patterns?db=db&limit=2&cursor=" + url.QueryEscape(cur)
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("paged patterns = %v, want %v", got, want)
	}

	// A cursor minted for one query cannot page another.
	status, page := call(t, "GET", ts.URL+"/v1/patterns?db=db&limit=2", nil)
	if status != http.StatusOK {
		t.Fatalf("mint page: status %d", status)
	}
	cur := page["next_cursor"].(string)
	status, _ = call(t, "GET", ts.URL+"/v1/patterns?db=db&limit=2&min_support=2&cursor="+url.QueryEscape(cur), nil)
	if status != http.StatusBadRequest {
		t.Errorf("cross-query cursor: status %d, want 400", status)
	}
	// Garbage cursors are a 400, not a panic.
	status, _ = call(t, "GET", ts.URL+"/v1/patterns?db=db&limit=2&cursor=%21%21not-base64", nil)
	if status != http.StatusBadRequest {
		t.Errorf("garbage cursor: status %d, want 400", status)
	}
}

func TestPatternsTopWithPagination(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	mustRegister(t, ts, testSpec("db"))
	minePatterns(t, ts, "db", map[string]any{"min_support": 1, "max_gap": 1, "max_length": 3})

	status, full := call(t, "GET", ts.URL+"/v1/patterns?db=db", nil)
	if status != http.StatusOK {
		t.Fatal("patterns failed")
	}
	want := patternsOf(t, full)
	total := len(want)

	// top caps the result set but still reports the full total (the old
	// contract), and limit pages within the cap.
	status, capped := call(t, "GET", ts.URL+"/v1/patterns?db=db&top=3&limit=2", nil)
	if status != http.StatusOK {
		t.Fatalf("top page: status %d", status)
	}
	if got := patternsOf(t, capped); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("top=3&limit=2 page = %v, want first two of %v", got, want[:3])
	}
	if int(capped["total"].(float64)) != total {
		t.Errorf("total = %v, want full %d", capped["total"], total)
	}
	cur, ok := capped["next_cursor"].(string)
	if !ok {
		t.Fatal("capped page missing next_cursor")
	}
	status, last := call(t, "GET", ts.URL+"/v1/patterns?db=db&top=3&limit=2&cursor="+url.QueryEscape(cur), nil)
	if status != http.StatusOK {
		t.Fatalf("last page: status %d", status)
	}
	if got := patternsOf(t, last); len(got) != 1 || got[0] != want[2] {
		t.Errorf("last capped page = %v, want [%v]", got, want[2])
	}
	if _, hasCursor := last["next_cursor"]; hasCursor {
		t.Error("exhausted capped set still returned a next_cursor")
	}
}

// TestPatternsHugeLimit is the regression test for the top-cap bypass: with
// a cursor at position p, limit = MaxInt made offset+limit wrap negative,
// the "past the cap" clamp was skipped and the page ran to the end of the
// result instead of stopping at top. limit and cursor are client input; no
// value of either may widen the capped set or break an uncapped page.
func TestPatternsHugeLimit(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	mustRegister(t, ts, testSpec("db"))
	minePatterns(t, ts, "db", map[string]any{"min_support": 1, "max_gap": 1, "max_length": 3})

	status, full := call(t, "GET", ts.URL+"/v1/patterns?db=db", nil)
	if status != http.StatusOK {
		t.Fatal("patterns failed")
	}
	want := patternsOf(t, full)
	if len(want) < 5 {
		t.Fatalf("test database mined only %d patterns", len(want))
	}
	huge := strconv.Itoa(math.MaxInt)

	for _, c := range []struct {
		filter string   // the query the cursor is sealed to
		want   []string // its whole (capped) result set
	}{
		{"&top=3", want[:3]},
		{"", want},
		{"&top=3&prefix=a", nil}, // filled in below: a bounded-selection query
	} {
		if c.want == nil {
			_, all := call(t, "GET", ts.URL+"/v1/patterns?db=db&prefix=a", nil)
			c.want = patternsOf(t, all)[:3]
		}
		base := ts.URL + "/v1/patterns?db=db" + c.filter
		// Without a cursor the huge limit is simply "everything".
		status, page := call(t, "GET", base+"&limit="+huge, nil)
		if status != http.StatusOK {
			t.Fatalf("%q huge limit: status %d, body %v", c.filter, status, page)
		}
		if got := patternsOf(t, page); strings.Join(got, "|") != strings.Join(c.want, "|") {
			t.Errorf("%q&limit=MaxInt = %v, want %v", c.filter, got, c.want)
		}
		// With a cursor past the first pattern it is "the rest", and only
		// the rest: the cap still holds and the set is exhausted.
		_, first := call(t, "GET", base+"&limit=1", nil)
		cur, ok := first["next_cursor"].(string)
		if !ok {
			t.Fatalf("%q&limit=1 minted no cursor", c.filter)
		}
		status, page = call(t, "GET", base+"&limit="+huge+"&cursor="+url.QueryEscape(cur), nil)
		if status != http.StatusOK {
			t.Fatalf("%q huge limit with cursor: status %d, body %v", c.filter, status, page)
		}
		if got := patternsOf(t, page); strings.Join(got, "|") != strings.Join(c.want[1:], "|") {
			t.Errorf("%q&limit=MaxInt&cursor=<1> = %v, want %v", c.filter, got, c.want[1:])
		}
		if _, more := page["next_cursor"]; more {
			t.Errorf("%q&limit=MaxInt&cursor=<1> still returned a next_cursor", c.filter)
		}
		if int(page["total"].(float64)) != int(first["total"].(float64)) {
			t.Errorf("%q: total changed between pages: %v vs %v", c.filter, page["total"], first["total"])
		}
	}
}

func TestPatternsHierarchyQueries(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	mustRegister(t, ts, testSpec("db"))
	minePatterns(t, ts, "db", map[string]any{"min_support": 1, "max_gap": 1, "max_length": 3})

	status, full := call(t, "GET", ts.URL+"/v1/patterns?db=db", nil)
	if status != http.StatusOK {
		t.Fatal("patterns failed")
	}
	all := patternsOf(t, full)

	// level=0 keeps exactly the fully generalized patterns (every item a
	// hierarchy root: a, c, B — not b1/b2).
	status, body := call(t, "GET", ts.URL+"/v1/patterns?db=db&level=0", nil)
	if status != http.StatusOK {
		t.Fatalf("level: status %d", status)
	}
	got := patternsOf(t, body)
	var want []string
	for _, p := range all {
		if !strings.Contains(p, "b1") && !strings.Contains(p, "b2") {
			want = append(want, p)
		}
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("level=0 = %v, want %v", got, want)
	}

	// prefix= keeps exactly the patterns starting with the given items, in
	// the same serving order as the full listing.
	status, body = call(t, "GET", ts.URL+"/v1/patterns?db=db&prefix=a,B", nil)
	if status != http.StatusOK {
		t.Fatalf("prefix: status %d", status)
	}
	got = patternsOf(t, body)
	want = want[:0]
	for _, p := range all {
		if strings.HasPrefix(p, "a B ") || strings.HasPrefix(p, "a B=") {
			want = append(want, p)
		}
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("prefix=a,B = %v, want %v", got, want)
	}

	// rollup= walks a pattern's generalization chain: a,b1 generalizes to
	// a,B (b1 → B), which is fully general and ends the chain.
	status, body = call(t, "GET", ts.URL+"/v1/patterns?db=db&rollup=a,b1", nil)
	if status != http.StatusOK {
		t.Fatalf("rollup: status %d, body %v", status, body)
	}
	got = patternsOf(t, body)
	if len(got) != 2 || !strings.HasPrefix(got[0], "a b1=") || !strings.HasPrefix(got[1], "a B=") {
		t.Errorf("rollup chain = %v, want [a b1, a B]", got)
	}
	// rollup of an unmined pattern is a 404; combining it with filters is
	// a 400.
	status, _ = call(t, "GET", ts.URL+"/v1/patterns?db=db&rollup=nope", nil)
	if status != http.StatusNotFound {
		t.Errorf("rollup miss: status %d, want 404", status)
	}
	status, _ = call(t, "GET", ts.URL+"/v1/patterns?db=db&rollup=a,b1&top=2", nil)
	if status != http.StatusBadRequest {
		t.Errorf("rollup+top: status %d, want 400", status)
	}

	// contains= intersects multiple items.
	status, body = call(t, "GET", ts.URL+"/v1/patterns?db=db&contains=a,B", nil)
	if status != http.StatusOK {
		t.Fatalf("contains: status %d", status)
	}
	got = patternsOf(t, body)
	want = want[:0]
	for _, p := range all {
		items := strings.Split(strings.SplitN(p, "=", 2)[0], " ")
		hasA, hasB := false, false
		for _, it := range items {
			hasA = hasA || it == "a"
			hasB = hasB || it == "B"
		}
		if hasA && hasB {
			want = append(want, p)
		}
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("contains=a,B = %v, want %v", got, want)
	}

	// An unknown level is an empty result, not an error; a bad one is 400.
	status, body = call(t, "GET", ts.URL+"/v1/patterns?db=db&level=9", nil)
	if status != http.StatusOK || int(body["total"].(float64)) != 0 {
		t.Errorf("level=9: status %d total %v, want 200/0", status, body["total"])
	}
	status, _ = call(t, "GET", ts.URL+"/v1/patterns?db=db&level=-1", nil)
	if status != http.StatusBadRequest {
		t.Errorf("level=-1: status %d, want 400", status)
	}
}

func TestJobsPagination(t *testing.T) {
	stall := make(chan struct{})
	_, ts := newTestServer(t, server.Config{
		Workers: 2,
		MineFunc: func(ctx context.Context, db *lash.Database, opt lash.Options) (*lash.Result, error) {
			select {
			case <-stall:
			case <-ctx.Done():
			}
			return &lash.Result{}, nil
		},
	})
	mustRegister(t, ts, testSpec("db"))

	// Five distinct jobs (different min_support so nothing coalesces).
	for i := 1; i <= 5; i++ {
		opts := map[string]any{"min_support": i, "max_gap": 1, "max_length": 3}
		status, body := call(t, "POST", ts.URL+"/v1/mine", map[string]any{"database": "db", "options": opts})
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, body %v", i, status, body)
		}
	}
	defer close(stall)

	var ids []string
	pageURL := ts.URL + "/v1/jobs?limit=2"
	for pages := 0; ; pages++ {
		if pages > 5 {
			t.Fatal("jobs cursor chain did not terminate")
		}
		status, page := call(t, "GET", pageURL, nil)
		if status != http.StatusOK {
			t.Fatalf("jobs page: status %d, body %v", status, page)
		}
		if int(page["total"].(float64)) != 5 {
			t.Errorf("jobs total = %v, want 5", page["total"])
		}
		for _, j := range page["jobs"].([]any) {
			ids = append(ids, j.(map[string]any)["job_id"].(string))
		}
		cur, ok := page["next_cursor"].(string)
		if !ok {
			break
		}
		pageURL = ts.URL + "/v1/jobs?limit=2&cursor=" + url.QueryEscape(cur)
	}
	if len(ids) != 5 {
		t.Fatalf("paged %d job ids, want 5: %v", len(ids), ids)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("job %s delivered twice across pages", id)
		}
		seen[id] = true
	}

	// Unpaginated listing still returns everything at once.
	status, all := call(t, "GET", ts.URL+"/v1/jobs", nil)
	if status != http.StatusOK || len(all["jobs"].([]any)) != 5 {
		t.Errorf("unpaginated jobs: status %d, %d jobs, want 5", status, len(all["jobs"].([]any)))
	}
}
