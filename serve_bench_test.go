package lash_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"lash/server"
)

// BenchmarkServePatterns measures GET /v1/patterns at the handler: the
// whole request path (middleware, routing, query parsing, index search,
// wire encoding) without a socket, one sub-benchmark per query kind of the
// bench/ serve-query mix. allocs/op is the number to watch: it must not
// grow with the page.

// nullResponse discards the reply, so the benchmark measures the handler
// and not a recorder's buffer.
type nullResponse struct{ h http.Header }

func (w *nullResponse) Header() http.Header         { return w.h }
func (w *nullResponse) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullResponse) WriteHeader(int)             {}

func BenchmarkServePatterns(b *testing.B) {
	srv := server.New(server.Config{})
	defer srv.Close(b.Context()) //nolint:errcheck // benchmark teardown
	if _, err := srv.AddDatabase(server.DatabaseSpec{Name: "serve", Generator: "text", Size: 3000, Seed: 7}); err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/mine", strings.NewReader(
		`{"database":"serve","options":{"min_support":6,"max_gap":1,"max_length":4},"wait":true}`)))
	var mined server.JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &mined); err != nil || mined.Status != server.JobDone {
		b.Fatalf("mine: %v, status %d: %.200s", err, rec.Code, rec.Body)
	}
	// Query arguments come from the result: the item most patterns start
	// with (a wide prefix range and a long postings list), a most specific
	// pattern to roll up, and a support that thousands of patterns clear.
	pats := mined.Result.Patterns
	starts := map[string]int{}
	var hot string
	var leaf []string
	for _, p := range pats {
		starts[p.Items[0]]++
		if starts[p.Items[0]] > starts[hot] {
			hot = p.Items[0]
		}
		if len(p.Items) > len(leaf) {
			leaf = p.Items
		}
	}
	if len(pats) < 2000 || starts[hot] < 100 {
		b.Fatalf("mined %d patterns, %d starting with %q; the benchmark needs full pages", len(pats), starts[hot], hot)
	}
	item := url.QueryEscape(hot)
	for _, q := range []struct{ name, query string }{
		{"top", "top=100"},
		{"contains", "contains=" + item + "&limit=50"},
		{"prefix", "prefix=" + item + "&limit=50"},
		{"rollup", "rollup=" + url.QueryEscape(strings.Join(leaf, ","))},
		{"page", "min_support=6&limit=1000"},
	} {
		b.Run(q.name, func(b *testing.B) {
			req := httptest.NewRequest("GET", "/v1/patterns?db=serve&"+q.query, nil)
			check := httptest.NewRecorder()
			h.ServeHTTP(check, req)
			var page struct{ Returned int }
			if err := json.Unmarshal(check.Body.Bytes(), &page); err != nil || check.Code != http.StatusOK || page.Returned == 0 {
				b.Fatalf("%s: status %d, returned %d, %v", q.query, check.Code, page.Returned, err)
			}
			w := &nullResponse{h: http.Header{}}
			b.ReportAllocs()
			b.SetBytes(int64(check.Body.Len()))
			for b.Loop() {
				clear(w.h)
				h.ServeHTTP(w, req)
			}
		})
	}
}
