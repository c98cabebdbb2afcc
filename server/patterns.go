package server

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"lash"
	"lash/internal/pindex"
)

// This file is the pattern-serving tier: GET /v1/patterns answers pattern
// queries from the immutable serving index each completed result carries
// (lash.Result.Index, built by the job manager off the worker goroutine)
// instead of scanning the pattern slice, and shares the limit/cursor
// pagination helper with GET /v1/jobs. GET /v1/patterns/subscribe lives in
// subscribe.go.

// pageCursor is the decoded form of the opaque pagination cursor: the sealed
// fingerprint of the query it belongs to and the position to resume from.
// Positions index the serving permutation of an immutable index (or the
// submission-ordered job list), so a cursor stays valid for as long as the
// result it points into is retained.
type pageCursor struct {
	Query string `json:"q"`
	Pos   int    `json:"pos"`
}

// sealQuery is the form a query fingerprint takes inside a cursor: a
// fixed-width hex digest. Filter values are arbitrary bytes (prefix=%80), and
// json.Marshal rewrites invalid UTF-8 to U+FFFD, so a fingerprint sealed as
// itself would not match the very query that minted it; the digest survives
// the cursor's round trip whatever the filters hold.
func sealQuery(fingerprint string) string {
	sum := sha256.Sum256([]byte(fingerprint))
	return hex.EncodeToString(sum[:16])
}

// encodeCursor renders a cursor opaquely (base64url of its JSON).
func encodeCursor(fingerprint string, pos int) string {
	raw, _ := json.Marshal(pageCursor{Query: sealQuery(fingerprint), Pos: pos}) //nolint:errcheck // struct of two plain fields cannot fail to marshal
	return base64.RawURLEncoding.EncodeToString(raw)
}

// decodeCursor parses an opaque cursor and checks it against the request's
// query fingerprint, so a cursor minted by one query cannot silently page
// through another.
func decodeCursor(s, fingerprint string) (int, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return 0, fmt.Errorf("bad cursor %q", s)
	}
	var c pageCursor
	if err := json.Unmarshal(raw, &c); err != nil || c.Pos < 0 {
		return 0, fmt.Errorf("bad cursor %q", s)
	}
	if c.Query != sealQuery(fingerprint) {
		return 0, fmt.Errorf("cursor does not match this query (mint a fresh one without cursor=)")
	}
	return c.Pos, nil
}

// parsePage reads the shared limit/cursor pagination parameters. limit = 0
// (absent) means "everything"; a cursor resumes a previous page of the
// query identified by fingerprint.
func parsePage(q url.Values, fingerprint string) (limit, offset int, err error) {
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return 0, 0, fmt.Errorf("bad limit %q", v)
		}
		limit = n
	}
	if v := q.Get("cursor"); v != "" {
		offset, err = decodeCursor(v, fingerprint)
		if err != nil {
			return 0, 0, err
		}
	}
	return limit, offset, nil
}

// csvParam collects a repeatable, comma-separable query parameter into a
// list: ?contains=a,b&contains=c → [a b c].
func csvParam(q url.Values, key string) []string {
	var out []string
	for _, v := range q[key] {
		for _, item := range strings.Split(v, ",") {
			if item = strings.TrimSpace(item); item != "" {
				out = append(out, item)
			}
		}
	}
	return out
}

// patternQuery is one parsed GET /v1/patterns request.
type patternQuery struct {
	q      pindex.Query
	rollup []string // exclusive roll-up chain lookup
	top    int      // legacy result-set cap (0 = uncapped)
	limit  int      // page size (0 = everything)
	offset int      // cursor position
}

// kind names the query for lash_pindex_queries_total, by its most specific
// term.
func (pq *patternQuery) kind() string {
	switch {
	case len(pq.rollup) > 0:
		return "rollup"
	case len(pq.q.Prefix) > 0:
		return "prefix"
	case len(pq.q.Contains) > 0:
		return "contains"
	case pq.q.Level >= 0:
		return "level"
	case pq.q.MinSupport > 0:
		return "min_support"
	case pq.top > 0 || pq.limit > 0:
		return "top"
	}
	return "plain"
}

// parsePatternQuery reads every filter and pagination parameter of
// GET /v1/patterns. jobID seals the cursor fingerprint to the result being
// paged, so a cursor cannot cross from one job's index into another's.
func parsePatternQuery(v url.Values, jobID string) (patternQuery, error) {
	pq := patternQuery{q: pindex.Query{Level: pindex.NoLevel}}
	if s := v.Get("top"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return pq, fmt.Errorf("bad top %q", s)
		}
		pq.top = n
	}
	if s := v.Get("min_support"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil || n < 0 {
			return pq, fmt.Errorf("bad min_support %q", s)
		}
		pq.q.MinSupport = n
	}
	if s := v.Get("level"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return pq, fmt.Errorf("bad level %q", s)
		}
		pq.q.Level = n
	}
	pq.q.Contains = csvParam(v, "contains")
	pq.q.Prefix = csvParam(v, "prefix")
	pq.rollup = csvParam(v, "rollup")
	if len(pq.rollup) > 0 &&
		(pq.top > 0 || pq.q.MinSupport > 0 || pq.q.Level != pindex.NoLevel ||
			len(pq.q.Contains) > 0 || len(pq.q.Prefix) > 0 || v.Get("limit") != "" || v.Get("cursor") != "") {
		return pq, errors.New("rollup= cannot be combined with other filters or pagination")
	}

	// The fingerprint is only ever compared against a cursor's: without one
	// there is nothing to seal, so most requests never format it.
	fingerprint := ""
	if v.Get("cursor") != "" {
		fingerprint = pq.fingerprint(jobID)
	}
	var err error
	pq.limit, pq.offset, err = parsePage(v, fingerprint)
	return pq, err
}

// fingerprint canonically identifies the query (filters + result identity,
// not pagination) for cursor sealing.
func (pq *patternQuery) fingerprint(jobID string) string {
	return fmt.Sprintf("%s|t%d|s%d|c%s|p%s|l%d", jobID, pq.top, pq.q.MinSupport,
		strings.Join(pq.q.Contains, ","), strings.Join(pq.q.Prefix, ","), pq.q.Level)
}

// resolvePatternsJob picks the result a pattern query reads, and the job it
// is served under: the named job (which must be terminal and successful) or
// the database's most recent successful job — at the requested corpus
// version when version= is given, otherwise at the highest version with a
// complete result. Either way the result comes from the cache, so one that
// was evicted answers like one never mined.
func (s *Server) resolvePatternsJob(w http.ResponseWriter, v url.Values) (*job, *lash.Result, bool) {
	dbName := v.Get("db")
	if dbName == "" && v.Get("job") == "" {
		writeError(w, http.StatusBadRequest, errors.New("db or job query parameter is required"))
		return nil, nil, false
	}
	version := 0 // 0 = latest complete
	if raw := v.Get("version"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad version %q", raw))
			return nil, nil, false
		}
		version = n
	}
	if id := v.Get("job"); id != "" {
		j, ok := s.jobs.get(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", errJobMissing, id))
			return nil, nil, false
		}
		var res *lash.Result
		if status, done := j.terminal(); done && status == JobDone {
			res, _ = s.jobs.cache.result(j.key)
		}
		if res == nil {
			writeError(w, http.StatusConflict, fmt.Errorf("job %s has no result (status %s)", id, s.jobs.view(j).Status))
			return nil, nil, false
		}
		if dbName != "" && j.dbName != dbName {
			writeError(w, http.StatusBadRequest, fmt.Errorf("job %s mined database %q, not %q", id, j.dbName, dbName))
			return nil, nil, false
		}
		if version != 0 && j.version != version {
			writeError(w, http.StatusBadRequest, fmt.Errorf("job %s mined corpus version %d, not %d", id, j.version, version))
			return nil, nil, false
		}
		return j, res, true
	}
	if _, ok := s.registry.get(dbName); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w %q", errDBMissing, dbName))
		return nil, nil, false
	}
	j, res, ok := s.jobs.cache.latest(dbName, version)
	if !ok {
		err := fmt.Errorf("database %q has no mined results yet (POST /v1/mine first)", dbName)
		if version != 0 {
			err = fmt.Errorf("database %q has no mined results for corpus version %d", dbName, version)
		}
		writeError(w, http.StatusNotFound, err)
	}
	return j, res, ok
}

// handlePatterns answers GET /v1/patterns?db=NAME[&job=ID][&top=K]
// [&min_support=N][&contains=ITEMS][&prefix=ITEMS][&level=L][&rollup=ITEMS]
// [&limit=N][&cursor=C] from already-mined results: by default the
// database's most recent successful job, or the named job. Patterns come
// from the result's immutable serving index in serving order — support
// descending, ties in canonical mining order — without scanning: top-k and
// min_support slice the support permutation, contains reads (or intersects)
// postings lists, prefix selects the page from one binary-searched lex
// range, level reads a bucket, and rollup walks the hierarchy roll-up chain
// of one pattern; the reply is encoded straight from the matching ids by
// the wire writer (wire.go). limit/cursor
// paginate any of them (except rollup) with an opaque position cursor that
// stays stable because the index never changes.
func (s *Server) handlePatterns(w http.ResponseWriter, r *http.Request) {
	v := r.URL.Query()
	j, res, ok := s.resolvePatternsJob(w, v)
	if !ok {
		return
	}
	pq, err := parsePatternQuery(v, j.id)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.metrics.pindexQuery(pq.kind())

	// A finished result — and its memoized index — is immutable: no lock
	// needed. A request racing the manager's async index build simply builds
	// it first (Result.Index is memoized).
	ix := res.Index()

	if len(pq.rollup) > 0 {
		chain := ix.Rollup(pq.rollup)
		if chain == nil {
			writeError(w, http.StatusNotFound, fmt.Errorf("pattern %q is not in the mined result", strings.Join(pq.rollup, " ")))
			return
		}
		newWireWriter(w).writePatternsBody(j, ix, chain, len(chain), "")
		return
	}

	// top caps the result set (the old ?top=K contract); limit/cursor then
	// page within the capped set. The reported total stays the full match
	// count, also the old contract. size is compared against the room left
	// under the cap, never added to the offset: both come from the client
	// and their sum can overflow.
	size := pq.limit
	if size == 0 {
		size = -1 // everything
	}
	if pq.top > 0 {
		if room := max(pq.top-pq.offset, 0); size < 0 || size > room {
			size = room
		}
	}
	ww := newWireWriter(w)
	var total int
	ww.ids, total = ix.Search(ww.ids[:0], pq.q, pq.offset, size)

	// A next_cursor appears only when a limited page stopped short of the
	// (possibly top-capped) result set.
	nextCursor := ""
	if pq.limit > 0 {
		end := total
		if pq.top > 0 && pq.top < end {
			end = pq.top
		}
		if next := pq.offset + len(ww.ids); next < end {
			nextCursor = encodeCursor(pq.fingerprint(j.id), next)
		}
	}
	ww.writePatternsBody(j, ix, ww.ids, total, nextCursor)
}

// handleListJobs answers GET /v1/jobs[?limit=N&cursor=C]: all jobs in
// submission order, paginated with the same opaque cursor the patterns
// endpoint uses. Positions index the retained job list; records pruned by
// the history bound may shift later pages, so cursors here are best-effort
// (the patterns cursor, over an immutable index, is exact).
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	const fingerprint = "jobs"
	limit, offset, err := parsePage(r.URL.Query(), fingerprint)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	jobs := s.jobs.list()
	total := len(jobs)
	if offset > total {
		offset = total
	}
	page := jobs[offset:]
	if limit > 0 && limit < len(page) {
		page = page[:limit]
	}
	views := make([]JobView, len(page))
	for i, j := range page {
		views[i] = s.jobs.view(j)
	}
	resp := map[string]any{"jobs": views, "total": total}
	if limit > 0 && offset+len(page) < total {
		resp["next_cursor"] = encodeCursor(fingerprint, offset+len(page))
	}
	writeJSON(w, http.StatusOK, resp)
}
