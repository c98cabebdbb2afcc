package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path"
	"strings"
	"testing"
	"time"

	"lash"
)

// This file fuzzes the decoders of untrusted input that name what the
// result cache holds — pattern queries and their cursors, mine requests,
// database specs, appends — under one invariant: a documented reply or the
// error envelope, never a panic and never a 5xx. Seeds live in testdata/fuzz.

// fuzzServer is a server over the paper example, mined once, whose runs are
// a stub: the fuzzers explore request decoding, not the miner. Its retention
// is small so a long fuzz run does not grow with the requests it made.
func fuzzServer(t testing.TB) *Server {
	s := New(Config{CacheBytes: 1 << 20, JobHistory: 64,
		MineFunc: func(ctx context.Context, db *lash.Database, opt lash.Options) (*lash.Result, error) {
			return &lash.Result{Patterns: []lash.Pattern{{Items: []string{"a", "B"}, Support: 3}}}, ctx.Err()
		}})
	if _, err := s.AddDatabase(paperSpec("paper")); err != nil {
		t.Fatal(err)
	}
	rec := serve(s, "POST", "/v1/mine", `{"database":"paper","options":{"min_support":2,"max_gap":1,"max_length":3},"wait":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("mine: %d %s", rec.Code, rec.Body)
	}
	return s
}

// checkFuzzReply holds a reply to the invariant: its status is one of want,
// and its body is the documented one (decoded into ok, strictly) on a 2xx
// and the error envelope otherwise.
func checkFuzzReply(t *testing.T, rec *httptest.ResponseRecorder, ok any, want ...int) {
	t.Helper()
	allowed := false
	for _, code := range want {
		allowed = allowed || rec.Code == code
	}
	if !allowed {
		t.Fatalf("status %d, want one of %v: %s", rec.Code, want, rec.Body)
	}
	dec := json.NewDecoder(rec.Body)
	dec.DisallowUnknownFields()
	if rec.Code < 300 {
		if err := dec.Decode(ok); err != nil {
			t.Fatalf("status %d with an undocumented body: %v", rec.Code, err)
		}
		return
	}
	var env map[string]ErrorBody
	if err := dec.Decode(&env); err != nil || len(env) != 1 || env["error"].Code == "" || env["error"].Message == "" {
		t.Fatalf("status %d without the error envelope (%v): %v", rec.Code, err, env)
	}
}

// FuzzPatternQuery sends arbitrary query strings through parsePatternQuery
// and decodeCursor — an error or a sane value, and a cursor minted for the
// parsed query round-trips — and then through GET /v1/patterns itself.
func FuzzPatternQuery(f *testing.F) {
	for _, q := range []string{
		"", "db=paper", "db=paper&top=2&limit=1", "db=paper&contains=a,B&prefix=a&level=1&min_support=2",
		"db=paper&rollup=a,b1", "db=paper&rollup=a&top=1", "db=paper&version=1", "db=paper&version=9", "db=nope",
		"job=job-1&db=paper", "job=job-1&version=2", "job=job-404",
		"db=paper&limit=1&cursor=" + encodeCursor("job-1|t0|s0|c|p|l-1", 1),
		"db=paper&cursor=" + encodeCursor("other", 1), "db=paper&cursor=%21%21", "db=paper&cursor=e30",
		"db=paper&top=-1", "db=paper&limit=99999999999999999999", "db=paper&level=x", "a=%zz;b",
	} {
		f.Add(q)
	}
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, rawQuery string) {
		if pos, err := decodeCursor(rawQuery, ""); err == nil && pos < 0 {
			t.Fatalf("decodeCursor(%q) = %d", rawQuery, pos)
		}
		v, _ := url.ParseQuery(rawQuery) // like r.URL.Query(): the pairs that parse
		if pq, err := parsePatternQuery(v, "job-1"); err == nil {
			if pq.top < 0 || pq.limit < 0 || pq.offset < 0 || pq.q.MinSupport < 0 {
				t.Fatalf("parsePatternQuery(%q) = %+v", rawQuery, pq)
			}
			fp := pq.fingerprint("job-1")
			if pos, err := decodeCursor(encodeCursor(fp, pq.offset), fp); err != nil || pos != pq.offset {
				t.Fatalf("cursor for %q at %d decoded to %d, %v", fp, pq.offset, pos, err)
			}
		}
		req := httptest.NewRequest("GET", "/v1/patterns", nil)
		req.URL.RawQuery = rawQuery
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		var page struct {
			CorpusVersion int           `json:"corpus_version"`
			Database      string        `json:"database"`
			JobID         string        `json:"job_id"`
			NextCursor    string        `json:"next_cursor"`
			Patterns      []PatternView `json:"patterns"`
			Returned      int           `json:"returned"`
			Total         int           `json:"total"`
		}
		checkFuzzReply(t, rec, &page, http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict)
		if rec.Code == http.StatusOK && (page.Returned != len(page.Patterns) || page.Returned > page.Total) {
			t.Fatalf("%q: returned %d of total %d with %d patterns", rawQuery, page.Returned, page.Total, len(page.Patterns))
		}
	})
}

// FuzzMineRequest sends arbitrary bodies to POST /v1/mine and to
// POST /v1/mine/stream. The stream submits as the mine does, so it refuses
// the same bodies with the same status; what it accepts it answers with
// pattern records and one trailer counting them.
func FuzzMineRequest(f *testing.F) {
	for _, body := range []string{
		`{"database":"paper","options":{"min_support":2,"max_gap":1,"max_length":3},"wait":true}`,
		`{"database":"paper","version":1,"options":{"min_support":1,"max_gap":0,"max_length":2,"algorithm":"mgfsm","local_miner":"bfs","restriction":"closed","workers":2,"memory_budget":1024,"deadline_ms":5,"max_attempts":3}}`,
		`{"database":"paper","version":7,"options":{"min_support":2,"max_gap":1,"max_length":3}}`,
		`{"database":"paper","version":-1,"options":{}}`,
		`{"database":"nope","options":{"min_support":2,"max_gap":1,"max_length":3}}`,
		`{"database":"paper","options":{"min_support":0}}`,
		`{"database":"paper","options":{"min_support":2,"max_gap":1,"max_length":3,"algorithm":"apriori"}}`,
		`{"database":"paper","options":{"min_support":9223372036854775807,"max_gap":-5,"max_length":1e3,"deadline_ms":9223372036854775807}}`,
		// deadline_ms × 1e6 wraps an int64: to 448 µs, and to −1 ms.
		`{"database":"paper","options":{"min_support":2,"max_gap":1,"max_length":3,"deadline_ms":18446744073710},"wait":true}`,
		`{"database":"paper","options":{"min_support":2,"max_gap":1,"max_length":3,"deadline_ms":9223372036854775807},"wait":true}`,
		`{"database":"paper","options":{"min_support":2,"max_gap":1,"max_length":3,"workers":300000},"wait":true}`,
		`{"database":"paper","unknown":1}`, `{"database":7}`, `{"options":null}`, `[]`, `null`, ``, `{`, "\xff\xfe",
	} {
		f.Add([]byte(body))
	}
	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var v JobView
		rec := serve(s, "POST", "/v1/mine", string(body))
		checkFuzzReply(t, rec, &v,
			http.StatusOK, http.StatusAccepted, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge)
		stream := serve(s, "POST", "/v1/mine/stream", string(body))
		if rec.Code >= 300 {
			checkFuzzReply(t, stream, nil, rec.Code)
			return
		}
		if stream.Code != http.StatusOK {
			t.Fatalf("stream of a body /v1/mine accepted: status %d: %s", stream.Code, stream.Body)
		}
		lines := bytes.Split(bytes.TrimSuffix(stream.Body.Bytes(), []byte("\n")), []byte("\n"))
		for _, line := range lines[:len(lines)-1] {
			var p PatternView
			if err := strictDecode(line, &p); err != nil || len(p.Items) == 0 {
				t.Fatalf("stream record %s: %v", line, err)
			}
		}
		var tr StreamTrailer
		if err := strictDecode(lines[len(lines)-1], &tr); err != nil || !tr.Done || tr.JobID == "" || tr.Patterns != len(lines)-1 {
			t.Fatalf("stream trailer %s after %d records: %v", lines[len(lines)-1], len(lines)-1, err)
		}
	})
}

// strictDecode decodes one JSON value, refusing fields v does not declare.
func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// TestOptionsSpecDeadline: a deadline_ms is taken as sent or refused by name,
// never wrapped into some other deadline.
func TestOptionsSpecDeadline(t *testing.T) {
	const maxMS = math.MaxInt64 / int64(time.Millisecond)
	for _, c := range []struct {
		ms   int64
		want time.Duration // -1: refused, naming deadline_ms
	}{
		{0, 0}, {5, 5 * time.Millisecond}, {maxMS, time.Duration(maxMS) * time.Millisecond},
		{maxMS + 1, -1},
		{18446744073710, -1},  // × 1e6 wraps to 448 µs
		{math.MaxInt64, -1},   // wraps to −1 ms
		{math.MinInt64, -1},   // wraps to 0, "no deadline"
		{-18446744073709, -1}, // wraps to a positive 552 µs
	} {
		opt, err := OptionsSpec{MinSupport: 2, MaxGap: 1, MaxLength: 3, DeadlineMS: c.ms}.toOptions()
		switch {
		case c.want >= 0 && (err != nil || opt.Deadline != c.want):
			t.Errorf("deadline_ms %d: Deadline %v, err %v; want %v", c.ms, opt.Deadline, err, c.want)
		case c.want < 0 && (err == nil || !strings.Contains(err.Error(), "deadline_ms")):
			t.Errorf("deadline_ms %d: Deadline %v, err %v; want an error naming deadline_ms", c.ms, opt.Deadline, err)
		}
	}
}

// FuzzDatabaseSpec sends arbitrary bodies to POST /v1/databases. The
// generators build as many sequences as the caller asks for up to
// maxGeneratedSequences, so specs that ask for many the server would build
// are skipped: the decoder is on trial, not the generators.
func FuzzDatabaseSpec(f *testing.F) {
	for _, body := range []string{
		`{"name":"d","hierarchy":["b1 B","b2 B"],"sequences":["a b1 a","a b2 c","a b1 b2"]}`,
		`{"name":"paper","sequences":["a"]}`, `{"name":"g","generator":"text","size":20,"text_hierarchy":"LP","seed":3}`,
		`{"name":"m","generator":"market","size":10,"levels":3}`, `{"name":"m","generator":"market","levels":99}`,
		`{"name":"x","generator":"zipf"}`, `{"name":"x","generator":"text","sequences":["a"]}`,
		`{"name":"x","generator":"text","hierarchy":["a b"]}`, `{"name":"f","sequences_file":"../etc/passwd"}`,
		`{"name":"f","sequences_file":"/abs","hierarchy_file":"h"}`, `{"name":"c","hierarchy":["a b","b a"],"sequences":["a"]}`,
		`{"name":"h","hierarchy":["a b c"],"sequences":["a"]}`, `{"name":"e","sequences":["", "  "]}`,
		`{"name":"","sequences":["a"]}`, `{"sequences":["a"]}`, `{"name":"u","size":"big"}`, `{"name":"u","extra":true}`,
		`[]`, `null`, ``, `{`, "\x00",
		`{"name":"big","generator":"text","size":2147483648}`, `{"name":"big","generator":"market","size":4611686018427387904}`,
	} {
		f.Add([]byte(body))
	}
	s, registered := fuzzServer(f), 0
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec DatabaseSpec
		json.NewDecoder(bytes.NewReader(body)).Decode(&spec) //nolint:errcheck // the server judges the body; this only reads the size it asks for
		want := []int{http.StatusCreated, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge}
		if spec.Generator != "" && spec.Size > 500 {
			if spec.Size <= maxGeneratedSequences {
				t.Skip("generator sized past what a fuzz iteration should build")
			}
			want = want[1:] // refused before anything is generated
		}
		var info DatabaseInfo
		rec := serve(s, "POST", "/v1/databases", string(body))
		checkFuzzReply(t, rec, &info, want...)
		if rec.Code != http.StatusCreated {
			return
		}
		if info.Name != spec.Name || info.Version != 1 {
			t.Fatalf("registered %+v from %s", info, body)
		}
		// Databases cannot be dropped; start over before they pile up.
		if registered++; registered == 256 {
			s, registered = fuzzServer(t), 0
		}
	})
}

// FuzzAppendSpec sends arbitrary JSON and raw .ldb bodies to
// POST /v1/databases/{name}/sequences: the database's version moves by one
// on a 200 and not at all otherwise.
func FuzzAppendSpec(f *testing.F) {
	frag, err := lash.NewDatabaseBuilder().AddParent("b3", "B").AddSequence("a", "b3", "d").Build()
	if err != nil {
		f.Fatal(err)
	}
	var wire bytes.Buffer
	if err := frag.WriteBinary(&wire); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		name string
		ldb  bool
		body string
	}{
		{"paper", false, `{"sequences":["a b1","c d"]}`}, {"paper", false, `{"sequences":["a b3"],"hierarchy":["b3 B"]}`},
		{"paper", false, `{"sequences":["b1 a"],"hierarchy":["b1 C"]}`}, {"paper", false, `{"sequences":["a"],"hierarchy":["a b c"]}`},
		{"paper", false, `{"sequences":["a"],"hierarchy":["x y","y x"]}`}, {"paper", false, `{"sequences":[]}`},
		{"paper", false, `{"sequences":["", "# c"]}`}, {"paper", false, `{"sequences":["a"],"extra":1}`},
		{"paper", false, `{"sequences":"a"}`}, {"paper", false, `null`}, {"paper", false, ``}, {"paper", false, wire.String()},
		{"nope", false, `{"sequences":["a"]}`}, {"a/b c%", false, `{"sequences":["a"]}`},
		{"paper", true, wire.String()}, {"paper", true, wire.String()[:wire.Len()-1]}, {"paper", true, lash.BinaryMagic},
		{"paper", true, `{"sequences":["a"]}`}, {"paper", true, ``}, {"nope", true, wire.String()},
	} {
		f.Add(seed.name, seed.ldb, []byte(seed.body))
	}
	s, version := fuzzServer(f), 1
	f.Fuzz(func(t *testing.T, name string, ldb bool, body []byte) {
		if target := "/v1/databases/" + name + "/sequences"; path.Clean(target) != target {
			t.Skip("the mux answers an unclean path itself, before a handler sees it")
		}
		req := httptest.NewRequest("POST", "/v1/databases/"+url.PathEscape(name)+"/sequences", bytes.NewReader(body))
		if ldb {
			req.Header.Set("Content-Type", ldbContentType)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		var info DatabaseInfo
		checkFuzzReply(t, rec, &info,
			http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge)
		if rec.Code == http.StatusOK {
			if name != "paper" || info.Version != version+1 {
				t.Fatalf("append to %q answered %+v at version %d", name, info, version)
			}
			version++
		}
		checkFuzzReply(t, serve(s, "GET", "/v1/databases/paper", ""), &info, http.StatusOK)
		if info.Version != version {
			t.Fatalf("append to %q answered %d and left version %d, want %d", name, rec.Code, info.Version, version)
		}
		// Versions cannot be dropped; start over before they pile up.
		if version == 256 {
			s, version = fuzzServer(t), 1
		}
	})
}
