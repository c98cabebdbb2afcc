package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lash"
	"lash/internal/pindex"
)

// The wire writer's contract is "the bytes encoding/json would have sent".
// These tests hold it to that: every body the writer can produce is compared
// byte for byte with writeJSON over the map / view struct the handlers used
// to build, which is kept here as the reference, and every NDJSON record
// with json.Encoder over the record struct the streaming handlers encoded.

// nastyItems are item names exercising every escaping rule of
// encoding/json's string encoder.
var nastyItems = []string{
	"plain", "", `quote"back\slash`, "<script>&amp;</script>", "tab\tnl\ncr\rbs\bff\f",
	"ctl\x00\x01\x1f\x7f", "héllo wörld ✓ 日本語 🙂", "sep\u2028and\u2029", "bad\xff\xfeutf8\xc3", "\xe2\x80",
	strings.Repeat("long", 100) + "<",
}

func refViewPatterns(ix *pindex.Index, ids []uint32) []PatternView {
	out := make([]PatternView, len(ids))
	for i, id := range ids {
		out[i] = PatternView{Items: ix.AppendItems([]string{}, id), Support: ix.Support(id)}
	}
	return out
}

// refIndexViews is every pattern of ix in canonical order, ids 0..Len−1:
// the list a job body renders once the index serves it.
func refIndexViews(ix *pindex.Index) []PatternView {
	ids := make([]uint32, ix.Len())
	for i := range ids {
		ids[i] = uint32(i)
	}
	return refViewPatterns(ix, ids)
}

// refPatternsBody is the GET /v1/patterns body as the handler built it
// before the wire writer: a map through writeJSON.
func refPatternsBody(j *job, ix *pindex.Index, ids []uint32, total int, nextCursor string) []byte {
	resp := map[string]any{
		"database":       j.dbName,
		"corpus_version": j.version,
		"job_id":         j.id,
		"total":          total,
		"returned":       len(ids),
		"patterns":       refViewPatterns(ix, ids),
	}
	if nextCursor != "" {
		resp["next_cursor"] = nextCursor
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, resp)
	return rec.Body.Bytes()
}

// refJobBody is a result-bearing job body as the handlers built it before
// the wire writer: the JobView with a ResultView of res and patterns
// attached, through writeJSON. patterns come from the body's source — the
// named list it was given, or refIndexViews — never from res.Patterns,
// which the service drops once the index is built.
func refJobBody(v JobView, res *lash.Result, patterns []PatternView) []byte {
	v.Result = &ResultView{
		Patterns:              patterns,
		FrequentItems:         viewPatterns(res.FrequentItems),
		CorpusVersion:         v.CorpusVersion,
		NumPartitions:         res.NumPartitions,
		Explored:              res.Explored,
		MapOutputBytes:        res.Stats.MapOutputBytes,
		MapOutputRecords:      res.Stats.MapOutputRecords,
		SpillRuns:             res.Stats.SpillRuns,
		SpillBytes:            res.Stats.SpillBytes,
		TaskRetries:           res.Stats.TaskRetries,
		FaultsInjected:        res.Stats.FaultsInjected,
		DeltaPartitionsDirty:  res.Stats.DeltaPartitionsDirty,
		DeltaPartitionsReused: res.Stats.DeltaPartitionsReused,
		DeltaPartitionsGrown:  res.Stats.DeltaPartitionsGrown,
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	return rec.Body.Bytes()
}

// refNDJSON is the pattern records of a stream as the streaming handlers
// wrote them before the wire writer: record(items, support) of each pattern
// of ix in serving order, through one json.Encoder.
func refNDJSON(ix *pindex.Index, record func(items []string, support int64) any) []byte {
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	ids, _ := ix.Search(nil, pindex.Query{Level: pindex.NoLevel}, 0, -1)
	var items []string
	for _, id := range ids {
		items = ix.AppendItems(items[:0], id)
		enc.Encode(record(items, ix.Support(id))) //nolint:errcheck // a bytes.Buffer does not fail
	}
	return out.Bytes()
}

// The records of POST /v1/mine/stream and of GET /v1/patterns/subscribe.
func streamRecord(items []string, support int64) any {
	return PatternView{Items: items, Support: support}
}

func subscribeRecord(replay bool) func([]string, int64) any {
	return func(items []string, support int64) any {
		return SubscribeRecord{Items: items, Support: support, Replay: replay}
	}
}

// SubscribeRecord is one NDJSON pattern line of GET
// /v1/patterns/subscribe, as the handler encoded it before the wire writer.
type SubscribeRecord struct {
	Items   []string `json:"items"`
	Support int64    `json:"support"`
	Replay  bool     `json:"replay"`
}

// ndjsonTails pairs each record tail the streaming handlers pass to
// sendIndex with the record struct it stands for.
var ndjsonTails = []struct {
	tail   string
	record func([]string, int64) any
}{
	{"}\n", streamRecord},
	{`,"replay":true}` + "\n", subscribeRecord(true)},
	{`,"replay":false}` + "\n", subscribeRecord(false)},
}

// checkNDJSON renders res's records through sendIndex with each tail and
// compares them with refNDJSON, and checks that a flush follows every 64th
// record.
func checkNDJSON(t *testing.T, name string, res *lash.Result) {
	t.Helper()
	total := res.Index().Len()
	var wantFlushes []int
	for n := 64; n <= total; n += 64 {
		wantFlushes = append(wantFlushes, n)
	}
	for _, c := range ndjsonTails {
		var got bytes.Buffer
		var flushes []int // records written at each flush
		n, ok := sendIndex(&got, func() { flushes = append(flushes, bytes.Count(got.Bytes(), []byte("\n"))) }, res, c.tail)
		want := refNDJSON(res.Index(), c.record)
		if !ok || n != total || !slices.Equal(flushes, wantFlushes) {
			t.Errorf("%s, tail %q: sendIndex = %d, %v, flushed after records %v; want %d, true, flushed after %v",
				name, c.tail, n, ok, flushes, total, wantFlushes)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s, tail %q: records differ from json.Encoder\n got  %.300q\n want %.300q", name, c.tail, got.Bytes(), want)
		}
	}
}

// checkBody compares a recorded wire-writer response with the reference
// bytes, including the framing: one Content-Length for a body that fit the
// buffer, none (chunked) past it.
func checkBody(t *testing.T, name string, rec *httptest.ResponseRecorder, want []byte) {
	t.Helper()
	got := rec.Body.Bytes()
	if !bytes.Equal(got, want) {
		at := 0
		for at < len(got) && at < len(want) && got[at] == want[at] {
			at++
		}
		t.Errorf("%s: body differs from encoding/json at byte %d\n got  %q\n want %q", name, at,
			got[max(at-40, 0):min(at+40, len(got))], want[max(at-40, 0):min(at+40, len(want))])
	}
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("%s: status %d, Content-Type %q", name, rec.Code, rec.Header().Get("Content-Type"))
	}
	wantLen := ""
	if len(want) <= wireChunk {
		wantLen = strconv.Itoa(len(want))
	}
	if cl := rec.Header().Get("Content-Length"); cl != wantLen {
		t.Errorf("%s: Content-Length %q, want %q for a %d-byte body", name, cl, wantLen, len(want))
	}
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	cases := append([]string(nil), nastyItems...)
	for b := 0; b < 256; b++ { // every single byte, alone and embedded
		cases = append(cases, string([]byte{byte(b)}), "a"+string([]byte{byte(b)})+"z")
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got[1:], want)
		}
	}
}

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range nastyItems {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	})
}

func TestWirePatternsBodyMatchesEncodingJSON(t *testing.T) {
	pats := []pindex.Pattern{{Items: []string{}, Support: 0}, {Items: nastyItems, Support: -7}}
	for i, item := range nastyItems {
		pats = append(pats, pindex.Pattern{Items: []string{item, "x"}, Support: int64(1) << (4 * i)})
	}
	ix := pindex.Build(pats, nil)
	all, _ := ix.Search(nil, pindex.Query{Level: pindex.NoLevel}, 0, -1)
	j := &job{id: `job-<1>&"x"`, dbName: "d\u2028b\xff", version: 3}

	for _, ids := range [][]uint32{nil, {}, all[:1], all} {
		for _, cursor := range []string{"", encodeCursor("fp|<>&", 2)} {
			name := fmt.Sprintf("%d ids, cursor %q", len(ids), cursor)
			rec := httptest.NewRecorder()
			newWireWriter(rec).writePatternsBody(j, ix, ids, len(all)+5, cursor)
			checkBody(t, name, rec, refPatternsBody(j, ix, ids, len(all)+5, cursor))
		}
	}
}

func TestWireJobBodyMatchesEncodingJSON(t *testing.T) {
	somePatterns := []lash.Pattern{
		{Items: nastyItems, Support: 9}, {Items: []string{"a"}, Support: 1}, {Items: []string{}, Support: 2}, {Items: nil, Support: 3},
	}
	created := time.Date(2026, 9, 28, 15, 4, 5, 123456789, time.FixedZone("x", -(3*3600+30*60)))
	// Every omitempty field of JobView and ResultView, present and absent
	// independently; patterns and frequent_items nil, empty and populated.
	const optional = 13
	for mask := 0; mask < 1<<optional; mask++ {
		bit := func(i int) int64 { return int64(mask >> i & 1) }
		v := JobView{
			ID: "job-7", Database: "d<b>", Status: JobDone, Cached: bit(0) == 1, Coalesced: int(bit(0)) * 4,
			CorpusVersion: int(bit(1)) * 2,
			Error:         strings.Repeat(`boom "<&>"`, int(bit(2))),
			Created:       created,
			QueueMS:       bit(3) * 15,
			RuntimeMS:     bit(4) * 1200,
		}
		res := &lash.Result{NumPartitions: 3, Explored: 1 << 40}
		res.Stats.MapOutputBytes = 77
		res.Stats.MapOutputRecords = -1
		res.Stats.SpillRuns = bit(5) * 2
		res.Stats.SpillBytes = bit(6) * 4096
		res.Stats.TaskRetries = bit(7)
		res.Stats.FaultsInjected = bit(8) * 3
		res.Stats.DeltaPartitionsDirty = bit(9) * 5
		res.Stats.DeltaPartitionsReused = bit(10) * 6
		res.Stats.DeltaPartitionsGrown = bit(12) * 7
		if bit(11) == 1 {
			res.Patterns, res.FrequentItems = somePatterns, somePatterns[1:2]
		} else if bit(0) == 1 {
			res.Patterns, res.FrequentItems = []lash.Pattern{}, []lash.Pattern{}
		}
		checkJobBody(t, fmt.Sprintf("mask %013b", mask), v, res)
	}

	// Timestamps as the manager makes them: local, UTC, monotonic reading
	// attached, whole seconds, and the zero value.
	for _, at := range []time.Time{time.Now(), time.Now().UTC(), time.Unix(1_700_000_000, 0), {}} {
		v := JobView{ID: "job-1", Database: "db", Status: JobDone, Created: at}
		checkJobBody(t, at.String(), v, &lash.Result{})
	}

	// A mined result over a hierarchy and names that need escaping: its
	// named list and its index render the same body.
	s, _ := wireTestServer(t)
	db, _, _ := s.registry.getVersion("db", 0)
	res, err := lash.Mine(db, lash.Options{MinSupport: 1, MaxGap: 1, MaxLength: 3})
	if err != nil {
		t.Fatal(err)
	}
	v := JobView{ID: "job-1", Database: "db", Status: JobDone, Created: created}
	checkJobBody(t, "mined", v, res)
	rec := httptest.NewRecorder()
	newWireWriter(rec).writeJobBody(v, res, res.Patterns)
	checkBody(t, "mined, named against the index", rec, refJobBody(v, res, refIndexViews(res.Index())))

	// A resumed version's index extends the previous version's: its
	// canonical walk renders the body its named list does, and its pages
	// are a full build's.
	next := resumedResult(t)
	checkJobBody(t, "resumed", v, next)
	rec = httptest.NewRecorder()
	newWireWriter(rec).writeJobBody(v, next, next.Patterns)
	checkBody(t, "resumed, named against the overlay", rec, refJobBody(v, next, refIndexViews(next.Index())))
	pats := make([]pindex.Pattern, len(next.Patterns))
	for i, p := range next.Patterns {
		pats[i] = pindex.Pattern{Items: p.Items, Support: p.Support}
	}
	full, ix := pindex.Build(pats, nil), next.Index()
	j := &job{id: "job-2", dbName: "gen", version: 2}
	mid := next.Patterns[len(pats)/2]
	for _, q := range []pindex.Query{
		{Level: pindex.NoLevel}, {MinSupport: mid.Support, Level: pindex.NoLevel},
		{Contains: mid.Items[:1], Level: pindex.NoLevel}, {Prefix: mid.Items[:1], Level: pindex.NoLevel},
	} {
		for _, page := range [][2]int{{0, 100}, {len(pats) / 3, 50}, {0, -1}} {
			ids, total := ix.Search(nil, q, page[0], page[1])
			want, wantTotal := full.Search(nil, q, page[0], page[1])
			rec := httptest.NewRecorder()
			newWireWriter(rec).writePatternsBody(j, ix, ids, total, "")
			checkBody(t, fmt.Sprintf("resumed page %+v %v", q, page), rec, refPatternsBody(j, full, want, wantTotal, ""))
		}
	}
}

// resumedResult mines a generated corpus, builds its index, appends two of
// its own sentences and resumes: the result's index is an overlay on the
// first's.
func resumedResult(t *testing.T) *lash.Result {
	t.Helper()
	db, err := lash.GenerateTextDatabase(lash.TextConfig{Sentences: 800, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opt := lash.Options{MinSupport: 6, MaxGap: 1, MaxLength: 3}
	cold, err := lash.Mine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	b := lash.NewDatabaseBuilder()
	b.AddSequence(db.Sequence(22)...)
	b.AddSequence(db.Sequence(58)...)
	frag, err := b.Build()
	if err == nil {
		db, err = db.Append(frag)
	}
	if err != nil {
		t.Fatal(err)
	}
	opt.Resume = cold.State
	cold.Index()
	next, err := lash.Mine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ix := next.Index(); ix.Base() != cold.Index() || ix == ix.Base() {
		t.Fatal("the resumed result's index is not an overlay on the first's")
	}
	return next
}

// checkJobBody renders res's job body from both sources — its named list,
// as the first replies do, and its serving index, as every reply after the
// index build does — and compares each with encoding/json over the same
// source.
func checkJobBody(t *testing.T, name string, v JobView, res *lash.Result) {
	t.Helper()
	rec := httptest.NewRecorder()
	newWireWriter(rec).writeJobBody(v, res, res.Patterns)
	checkBody(t, name+", named", rec, refJobBody(v, res, viewPatterns(res.Patterns)))
	rec = httptest.NewRecorder()
	newWireWriter(rec).writeJobBody(v, res, nil)
	checkBody(t, name+", indexed", rec, refJobBody(v, res, refIndexViews(res.Index())))
}

// FuzzWirePatterns holds every pattern list the writer renders — a job
// body's, a page's and the NDJSON records' — to encoding/json's compact
// output, for fuzzed item names and supports.
func FuzzWirePatterns(f *testing.F) {
	for i, item := range nastyItems {
		f.Add(item, nastyItems[(i+1)%len(nastyItems)], int64(1)<<(5*i))
	}
	f.Fuzz(func(t *testing.T, a, b string, support int64) {
		res := &lash.Result{
			Patterns:      []lash.Pattern{{Items: []string{a, b}, Support: support}, {Items: []string{b, a, b}, Support: support / 3}},
			FrequentItems: []lash.Pattern{{Items: []string{a}, Support: support}},
		}
		v := JobView{ID: a, Database: b, Status: JobDone, Created: time.Unix(1_700_000_000, 0)}
		checkJobBody(t, "job body", v, res)

		ix := res.Index()
		all, _ := ix.Search(nil, pindex.Query{Level: pindex.NoLevel}, 0, -1)
		j := &job{id: a, dbName: b, version: 1}
		cursor := encodeCursor(b, 1)
		rec := httptest.NewRecorder()
		newWireWriter(rec).writePatternsBody(j, ix, all, len(all), cursor)
		checkBody(t, "page", rec, refPatternsBody(j, ix, all, len(all), cursor))

		checkNDJSON(t, "records", res)
	})
}

// TestWireChunkedBody sends bodies several times the chunk bound: they must
// arrive whole and identical, without a Content-Length, from a writer whose
// buffer never grew past one chunk plus one pattern — and a recycled writer
// must start clean.
func TestWireChunkedBody(t *testing.T) {
	var pats []pindex.Pattern
	var mined []lash.Pattern
	for i := 0; len(pats) < 12_000; i++ {
		items := []string{fmt.Sprintf("item-%06d", i), "<shared>", fmt.Sprintf("t%d", i%7)}
		pats = append(pats, pindex.Pattern{Items: items, Support: int64(i)})
		mined = append(mined, lash.Pattern{Items: items, Support: int64(i)})
	}
	ix := pindex.Build(pats, nil)
	all, _ := ix.Search(nil, pindex.Query{Level: pindex.NoLevel}, 0, -1)
	j := &job{id: "job-1", dbName: "big", version: 1}

	want := refPatternsBody(j, ix, all, len(all), "")
	if len(want) < 3*wireChunk {
		t.Fatalf("body is %d bytes; want several chunks of %d", len(want), wireChunk)
	}
	ww := newWireWriter(nil)
	rec := httptest.NewRecorder()
	ww.w = rec
	ww.writePatternsBody(j, ix, all, len(all), "")
	checkBody(t, "patterns", rec, want)
	if cap(ww.buf) > 2*wireChunk+4096 {
		t.Errorf("writer buffer grew to %d bytes for a chunked body; want it bounded by ~%d", cap(ww.buf), wireChunk)
	}

	v := JobView{ID: "job-1", Database: "big", CorpusVersion: 1, Status: JobDone, Created: time.Now()}
	checkJobBody(t, "job", v, &lash.Result{Patterns: mined, FrequentItems: mined[:10]})

	rec = httptest.NewRecorder()
	newWireWriter(rec).writePatternsBody(j, ix, all[:2], len(all), "")
	checkBody(t, "small body after big ones", rec, refPatternsBody(j, ix, all[:2], len(all), ""))
}

// wireTestServer is a Server holding one mined result over a hierarchy
// corpus whose item names need escaping.
func wireTestServer(t *testing.T) (*Server, *job) {
	t.Helper()
	s := New(Config{})
	t.Cleanup(func() { s.Close(t.Context()) }) //nolint:errcheck // test teardown
	_, err := s.AddDatabase(DatabaseSpec{
		Name:      "db",
		Hierarchy: []string{`b<1> B&"`, `b<2> B&"`, "c  C"},
		Sequences: []string{`a b<1> a`, `a b<2> c` + " ", `a b<1> b<2>`, `a c` + " " + ` b<1>`},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/mine", strings.NewReader(
		`{"database":"db","options":{"min_support":1,"max_gap":1,"max_length":3},"wait":true}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("mine: %d %s", rec.Code, rec.Body)
	}
	j, _, ok := s.jobs.cache.latest("db", 0)
	if !ok {
		t.Fatal("no mined result")
	}
	return s, j
}

// resultOf is the mined result a done job's record reports.
func resultOf(t *testing.T, s *Server, j *job) *lash.Result {
	t.Helper()
	res, ok := s.jobs.cache.result(j.key)
	if !ok {
		t.Fatalf("job %s has no retained result", j.id)
	}
	return res
}

// TestHandlersServeEncodingJSONBytes drives the real handlers: every kind
// of GET /v1/patterns query and both result-bearing job endpoints must
// answer with exactly the bytes the pre-writer handlers produced for the
// same state.
func TestHandlersServeEncodingJSONBytes(t *testing.T) {
	s, j := wireTestServer(t)
	ix := resultOf(t, s, j).Index()
	n := ix.Len()
	if n < 8 {
		t.Fatalf("corpus mined only %d patterns", n)
	}
	get := func(target string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		return rec
	}

	// refPage answers a filter query the way the old handler did: the whole
	// match list, cut to the top cap, then to the page.
	refPage := func(q pindex.Query, top, limit, offset int, fingerprint string) []byte {
		all, total := ix.Search(nil, q, 0, -1)
		end := len(all)
		if top > 0 && top < end {
			end = top
		}
		page := all[min(offset, end):end]
		if limit > 0 && limit < len(page) {
			page = page[:limit]
		}
		cursor := ""
		if limit > 0 && offset+len(page) < end {
			cursor = encodeCursor(fingerprint, offset+len(page))
		}
		return refPatternsBody(j, ix, page, total, cursor)
	}
	none := pindex.Query{Level: pindex.NoLevel}
	with := func(f func(*pindex.Query)) pindex.Query { q := none; f(&q); return q }
	item := `b<1>`
	cases := []struct {
		query      string
		q          pindex.Query
		top, limit int
	}{
		{"", none, 0, 0},
		{"&top=3", none, 3, 0},
		{"&top=1000000", none, 1000000, 0},
		{"&limit=2", none, 0, 2},
		{"&top=5&limit=2", none, 5, 2},
		{"&min_support=2", with(func(q *pindex.Query) { q.MinSupport = 2 }), 0, 0},
		{"&min_support=2&limit=1", with(func(q *pindex.Query) { q.MinSupport = 2 }), 0, 1},
		{"&contains=" + url.QueryEscape(item) + "&limit=2", with(func(q *pindex.Query) { q.Contains = []string{item} }), 0, 2},
		{"&contains=a," + url.QueryEscape(item), with(func(q *pindex.Query) { q.Contains = []string{"a", item} }), 0, 0},
		{"&prefix=a&limit=3", with(func(q *pindex.Query) { q.Prefix = []string{"a"} }), 0, 3},
		{"&prefix=a&top=2", with(func(q *pindex.Query) { q.Prefix = []string{"a"} }), 2, 0},
		{"&prefix=a&level=1&min_support=2&limit=1", pindex.Query{Prefix: []string{"a"}, Level: 1, MinSupport: 2}, 0, 1},
		{"&level=0&limit=2", pindex.Query{Level: 0}, 0, 2},
		{"&contains=nope", with(func(q *pindex.Query) { q.Contains = []string{"nope"} }), 0, 0},
		{"&prefix=nope&limit=4", with(func(q *pindex.Query) { q.Prefix = []string{"nope"} }), 0, 4},
	}
	for _, c := range cases {
		pq := patternQuery{q: c.q, top: c.top}
		fingerprint := pq.fingerprint(j.id)
		// Walk the cursor chain: every page, first to last, is compared.
		offset := 0
		for pages := 0; ; pages++ {
			target := "/v1/patterns?db=db" + c.query
			if offset > 0 {
				target += "&cursor=" + encodeCursor(fingerprint, offset)
			}
			want := refPage(c.q, c.top, c.limit, offset, fingerprint)
			checkBody(t, target, get(target), want)
			var decoded struct {
				Returned   int    `json:"returned"`
				NextCursor string `json:"next_cursor"`
			}
			if err := json.Unmarshal(want, &decoded); err != nil {
				t.Fatal(err)
			}
			if decoded.NextCursor == "" || pages > n {
				break
			}
			offset += decoded.Returned
		}
	}

	// rollup: the chain, total = returned = its length.
	chain := ix.Rollup([]string{"a", item})
	if len(chain) < 2 {
		t.Fatalf("rollup chain of [a %s] has %d entries; want a real chain", item, len(chain))
	}
	target := "/v1/patterns?db=db&rollup=a," + url.QueryEscape(item)
	checkBody(t, target, get(target), refPatternsBody(j, ix, chain, len(chain), ""))

	// The job endpoints: GET /v1/jobs/{id}, and POST /v1/mine answered from
	// the cache (a fresh job id, cached: true, the same result).
	checkBody(t, "GET job", get("/v1/jobs/"+j.id), refJobBody(s.jobs.view(j), resultOf(t, s, j), refIndexViews(ix)))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/mine", strings.NewReader(
		`{"database":"db","options":{"min_support":1,"max_gap":1,"max_length":3}}`)))
	var hit JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &hit); err != nil || !hit.Cached {
		t.Fatalf("repeat mine was not a cache hit: %v %s", err, rec.Body)
	}
	hj, _ := s.jobs.get(hit.ID)
	checkBody(t, "POST mine (cache hit)", rec, refJobBody(s.jobs.view(hj), resultOf(t, s, hj), refIndexViews(ix)))
}

// TestWireNDJSONMatchesEncodingJSON holds the NDJSON records of
// POST /v1/mine/stream and GET /v1/patterns/subscribe to json.Encoder:
// sendIndex directly over patterns of nastyItems, across several 64-record
// batches, then both handlers over a result mined from a corpus whose items
// are the fields of nastyItems.
func TestWireNDJSONMatchesEncodingJSON(t *testing.T) {
	var pats []lash.Pattern
	for i, a := range nastyItems {
		pats = append(pats, lash.Pattern{Items: []string{a}, Support: int64(i) - 3})
		for j, b := range nastyItems {
			pats = append(pats, lash.Pattern{Items: []string{a, b}, Support: int64(1) << (i + j)})
		}
	}
	checkNDJSON(t, "nastyItems", &lash.Result{Patterns: pats})
	checkNDJSON(t, "no patterns", &lash.Result{})

	s, _ := wireTestServer(t)
	var words []string
	for _, item := range nastyItems {
		words = append(words, strings.Fields(item)...)
	}
	var seqs []string
	for i, w := range words {
		seqs = append(seqs, strings.Join([]string{w, words[(i+1)%len(words)], words[(i+3)%len(words)], w}, " "))
	}
	if _, err := s.AddDatabase(DatabaseSpec{
		Name: "nasty", Hierarchy: []string{words[0] + " P<&>", words[1] + " P<&>"}, Sequences: seqs,
	}); err != nil {
		t.Fatal(err)
	}
	serve := func(method, target, body string) []byte {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", method, target, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	const mine = `{"database":"nasty","options":{"min_support":1,"max_gap":1,"max_length":3},"wait":true}`
	serve("POST", "/v1/mine", mine)
	j, res, ok := s.jobs.cache.latest("nasty", 0)
	if !ok {
		t.Fatal("no mined result")
	}
	if n := res.Index().Len(); n < 3*64 {
		t.Fatalf("nasty corpus mined %d patterns; want several 64-record batches", n)
	}
	marker, _ := json.Marshal(SubscribeMarker{Version: j.version})
	for _, c := range []struct {
		method, target, body string
		want                 []byte
	}{
		{"POST", "/v1/mine/stream", mine, refNDJSON(res.Index(), streamRecord)},
		{"GET", "/v1/patterns/subscribe?db=nasty", "", append(append(marker, '\n'), refNDJSON(res.Index(), subscribeRecord(true))...)},
	} {
		got := serve(c.method, c.target, c.body)
		if !bytes.HasPrefix(got, c.want) {
			at := 0
			for at < len(got) && at < len(c.want) && got[at] == c.want[at] {
				at++
			}
			t.Errorf("%s: records differ from json.Encoder at byte %d\n got  %q\n want %q", c.target, at,
				got[at:min(at+80, len(got))], c.want[at:min(at+80, len(c.want))])
			continue
		}
		if trailer := got[len(c.want):]; !bytes.HasPrefix(trailer, []byte(`{"done":true,`)) || bytes.Count(trailer, []byte("\n")) != 1 {
			t.Errorf("%s: want one trailer line after the records, got %q", c.target, trailer)
		}
	}
}

// discardResponse is the cheapest possible ResponseWriter, so that the
// allocation bound below counts the handler and not the recorder.
type discardResponse struct {
	h http.Header
	n int // bytes written
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }
func (d *discardResponse) WriteHeader(int)             {}

// TestServeTop100AllocsBound pins the request path of the most common
// query: GET /v1/patterns?top=100 through the whole handler stack
// (middleware, routing, query parsing, search, encoding) allocates a small
// constant — the request's own bookkeeping, 12 at the time of writing — and
// nothing per pattern. Before the wire writer the same request cost 172.
func TestServeTop100AllocsBound(t *testing.T) {
	s := New(Config{})
	t.Cleanup(func() { s.Close(t.Context()) }) //nolint:errcheck // test teardown
	if _, err := s.AddDatabase(DatabaseSpec{Name: "g", Generator: "text", Size: 300, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/mine", strings.NewReader(
		`{"database":"g","options":{"min_support":3,"max_gap":1,"max_length":3},"wait":true}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("mine: %d %s", rec.Code, rec.Body)
	}
	h := s.Handler()
	req := httptest.NewRequest("GET", "/v1/patterns?db=g&top=100", nil)
	check := httptest.NewRecorder()
	h.ServeHTTP(check, req)
	var page struct{ Returned int }
	if err := json.Unmarshal(check.Body.Bytes(), &page); err != nil || page.Returned != 100 {
		t.Fatalf("top=100 returned %d patterns (%v); the bound needs a full page", page.Returned, err)
	}
	w := &discardResponse{h: http.Header{}}
	got := testing.AllocsPerRun(200, func() {
		clear(w.h)
		h.ServeHTTP(w, req)
	})
	const bound = 20
	if got > bound {
		t.Errorf("GET /v1/patterns?top=100: %v allocs/request, want <= %d", got, bound)
	}
}

// TestConcurrentPatternRequests shares the writer pool (buffer, id and item
// scratch) and the request-counter cache between goroutines: under -race,
// and by comparing every reply with the reference bytes, a writer handed
// out twice or recycled while still in use shows up.
func TestConcurrentPatternRequests(t *testing.T) {
	s, j := wireTestServer(t)
	ix := resultOf(t, s, j).Index()
	all, total := ix.Search(nil, pindex.Query{Level: pindex.NoLevel}, 0, -1)
	withA, totalA := ix.Search(nil, pindex.Query{Level: pindex.NoLevel, Prefix: []string{"a"}}, 0, -1)
	targets := map[string][]byte{
		"/v1/patterns?db=db":            refPatternsBody(j, ix, all, total, ""),
		"/v1/patterns?db=db&top=2":      refPatternsBody(j, ix, all[:2], total, ""),
		"/v1/patterns?db=db&prefix=a":   refPatternsBody(j, ix, withA, totalA, ""),
		"/v1/jobs/" + j.id:              refJobBody(s.jobs.view(j), resultOf(t, s, j), refIndexViews(ix)),
		"/v1/patterns?db=db&top=notint": nil, // a 400 through writeError, counted under another series
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for target, want := range targets {
					rec := httptest.NewRecorder()
					s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
					if want == nil {
						if rec.Code != http.StatusBadRequest {
							t.Errorf("%s: status %d, want 400", target, rec.Code)
						}
					} else if !bytes.Equal(rec.Body.Bytes(), want) {
						t.Errorf("%s: concurrent reply differs from the reference", target)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestJobBodyWhileListDrops hammers GET /v1/jobs/{id} from several
// goroutines while the job finishes and buildIndex drops its named list, so
// under -race a reader of the list that the drop is not ordered with shows
// up, and every done body, whichever source rendered it, must be the same
// bytes as the index's.
func TestJobBodyWhileListDrops(t *testing.T) {
	s := New(Config{})
	t.Cleanup(func() { s.Close(t.Context()) }) //nolint:errcheck // test teardown
	if _, err := s.AddDatabase(DatabaseSpec{Name: "text", Generator: "text", Size: 1500, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/mine", strings.NewReader(
		`{"database":"text","options":{"min_support":20,"max_gap":1,"max_length":4}}`)))
	var sub JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil || rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	var (
		wg         sync.WaitGroup
		stop       = make(chan struct{})
		firstBody  = make([][]byte, 4)
		doneBodies atomic.Int64
	)
	for g := range firstBody {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+sub.ID, nil))
				if !bytes.Contains(rec.Body.Bytes(), []byte(`"result":`)) {
					continue
				}
				doneBodies.Add(1)
				if firstBody[g] == nil {
					firstBody[g] = rec.Body.Bytes()
				} else if !bytes.Equal(rec.Body.Bytes(), firstBody[g]) {
					t.Error("two done bodies of one job differ")
					return
				}
			}
		}()
	}
	j, _ := s.jobs.get(sub.ID)
	<-j.done
	s.jobs.wg.Wait() // the index is built and the list dropped
	for after := doneBodies.Load() + int64(len(firstBody)); doneBodies.Load() < after; {
		time.Sleep(time.Millisecond) // until bodies rendered after the drop are in
	}
	close(stop)
	wg.Wait()
	res, named, ok := s.jobs.cache.body(j.key)
	if !ok || named != nil || res.Patterns != nil {
		t.Fatalf("after the index build: retained %v, named list of %d, Result.Patterns of %d; want retained, both dropped", ok, len(named), len(res.Patterns))
	}
	want := refJobBody(s.jobs.view(j), res, refIndexViews(res.Index()))
	for g, body := range firstBody {
		if !bytes.Equal(body, want) {
			t.Errorf("goroutine %d: done body differs from the index's", g)
		}
	}
}

// BenchmarkMineReply times the largest body the service sends: the
// POST /v1/mine reply of a result the size of bench/'s cold-text workload
// (16 000 sentences, σ 32, γ 1, λ 4), rendered by writeJobBody from the
// result's serving index, as every reply after the index build is, to a
// writer that discards it. reply-B/op is the body's size.
func BenchmarkMineReply(b *testing.B) {
	s := New(Config{})
	b.Cleanup(func() { s.Close(b.Context()) }) //nolint:errcheck // benchmark teardown
	if _, err := s.AddDatabase(DatabaseSpec{Name: "text", Generator: "text", Size: 16000, Seed: 23}); err != nil {
		b.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/mine", strings.NewReader(
		`{"database":"text","options":{"min_support":32,"max_gap":1,"max_length":4},"wait":true}`)))
	j, res, ok := s.jobs.cache.latest("text", 0)
	if rec.Code != http.StatusOK || !ok {
		b.Fatalf("mine: %d %.200s", rec.Code, rec.Body)
	}
	res.Index() // the service's own build, off the clock and out of allocs/op
	v := s.jobs.view(j)
	w := &discardResponse{h: http.Header{}}
	b.ReportAllocs()
	for b.Loop() {
		w.n = 0
		newWireWriter(w).writeJobBody(v, res, nil)
	}
	b.ReportMetric(float64(w.n), "reply-B/op")
}
