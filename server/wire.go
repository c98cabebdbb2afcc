package server

import (
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"lash"
	"lash/internal/pindex"
)

// This file is the wire encoder of every body that carries a pattern list:
// GET /v1/patterns pages, the result-bearing job bodies of POST /v1/mine and
// GET /v1/jobs/{id}, and the NDJSON records of POST /v1/mine/stream and
// GET /v1/patterns/subscribe. Those bodies are the bytes the service ships
// most of, so they are appended straight from index ids / lash.Pattern into
// one buffer — no intermediate view structs, no reflection — and handed to
// the connection in bounded chunks. The output is byte-identical to what
// json.Encoder (writeJSON, compact like every body the service sends)
// produces for the equivalent map or view struct; the differential tests in
// wire_test.go hold the two together. Small bodies (errors, stats,
// databases, result-less jobs) stay on writeJSON.

// wireChunk bounds how much of a body is buffered before it is written to
// the connection. A body that never reaches it (any page of up to ~5 000
// patterns) goes out in one write with Content-Length set; longer ones are
// streamed chunk by chunk, so a 5.5 MB mine reply never sits in memory whole.
const wireChunk = 256 << 10

// maxPooledIDs bounds the search scratch a pooled writer keeps: an
// unpaginated listing of a large result needs one id per pattern, which is
// not worth pinning between requests.
const maxPooledIDs = 16 << 10

// wireWriter renders one compact JSON document into w.
type wireWriter struct {
	w    http.ResponseWriter
	buf  []byte
	sent bool // the header and a first chunk are already on the wire

	// Scratch the pattern handlers borrow along with the buffer.
	ids   []uint32
	items []string
}

var wirePool = sync.Pool{New: func() any {
	return &wireWriter{items: make([]string, 0, 8)}
}}

// newWireWriter starts a 200 application/json body on w.
func newWireWriter(w http.ResponseWriter) *wireWriter {
	ww := wirePool.Get().(*wireWriter)
	ww.w = w
	return ww
}

// finish terminates the document the way json.Encoder does (one trailing
// newline), sends whatever is still buffered and recycles the writer. A
// body that fit the buffer whole is sent with its Content-Length.
func (ww *wireWriter) finish() {
	ww.buf = append(ww.buf, '\n')
	if !ww.sent {
		ww.w.Header().Set("Content-Length", strconv.Itoa(len(ww.buf)))
	}
	ww.flush()
	if cap(ww.ids) > maxPooledIDs {
		ww.ids = nil
	}
	*ww = wireWriter{buf: ww.buf[:0], ids: ww.ids[:0], items: ww.items[:0]}
	wirePool.Put(ww)
}

// spill takes over buf, the writer's buffer extended by a list loop, and
// sends it once it has reached wireChunk. Loops call it after each element,
// which keeps the buffer within one element of the bound.
func (ww *wireWriter) spill(buf []byte) []byte {
	ww.buf = buf
	if len(buf) >= wireChunk {
		ww.flush()
	}
	return ww.buf
}

func (ww *wireWriter) flush() {
	if !ww.sent {
		ww.w.Header().Set("Content-Type", "application/json")
		ww.w.WriteHeader(http.StatusOK)
		ww.sent = true
	}
	ww.w.Write(ww.buf) //nolint:errcheck // nothing to do about a broken client pipe
	ww.buf = ww.buf[:0]
}

// key starts a member of the open object after its first, which the
// callers write with the brace. Keys are this file's own literals (plain
// ASCII), so they need no escaping.
func (ww *wireWriter) key(k string) {
	ww.buf = append(append(append(ww.buf, ',', '"'), k...), '"', ':')
}

func (ww *wireWriter) str(k, v string) {
	ww.key(k)
	ww.buf = appendJSONString(ww.buf, v)
}

func (ww *wireWriter) int(k string, v int64) {
	ww.key(k)
	ww.buf = strconv.AppendInt(ww.buf, v, 10)
}

// optInt is int under `omitempty`.
func (ww *wireWriter) optInt(k string, v int64) {
	if v != 0 {
		ww.int(k, v)
	}
}

// appendPattern appends one pattern as encoding/json renders a PatternView
// (nil items as null), with tail in place of its closing brace: "}" in a
// list, more members and a newline in an NDJSON record.
func appendPattern(buf []byte, items []string, support int64, tail string) []byte {
	buf = append(buf, `{"items":`...)
	if items == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i, item := range items {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, item)
		}
		buf = append(buf, ']')
	}
	buf = strconv.AppendInt(append(buf, `,"support":`...), support, 10)
	return append(buf, tail...)
}

// patterns appends a []PatternView value rendered from mined patterns.
func (ww *wireWriter) patterns(ps []lash.Pattern) {
	buf := append(ww.buf, '[')
	for i, p := range ps {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = ww.spill(appendPattern(buf, p.Items, p.Support, "}"))
	}
	ww.buf = append(buf, ']')
}

// writePatternsBody sends a GET /v1/patterns reply: the patterns ids names
// in ix (rendered in the order given), the query's total match count, and
// the cursor of the next page when there is one. Keys are in the sorted
// order encoding/json gives the map this body used to be.
func (ww *wireWriter) writePatternsBody(j *job, ix *pindex.Index, ids []uint32, total int, nextCursor string) {
	ww.buf = strconv.AppendInt(append(ww.buf, `{"corpus_version":`...), int64(j.version), 10)
	ww.str("database", j.dbName)
	ww.str("job_id", j.id)
	if nextCursor != "" {
		ww.str("next_cursor", nextCursor)
	}
	buf := append(ww.buf, `,"patterns":[`...)
	for i, id := range ids {
		if i > 0 {
			buf = append(buf, ',')
		}
		ww.items = ix.AppendItems(ww.items[:0], id)
		buf = ww.spill(appendPattern(buf, ww.items, ix.Support(id), "}"))
	}
	ww.buf = append(buf, ']')
	ww.int("returned", int64(len(ids)))
	ww.int("total", int64(total))
	ww.buf = append(ww.buf, '}')
	ww.finish()
}

// writeJobBody sends v — a JobView without its Result — with res rendered
// in the Result position, field for field what encoding/json makes of
// JobView{..., Result: &ResultView{...}}. The patterns are named, res's list
// while the cache still holds it, and otherwise res's serving index in
// canonical order: ids 0..Len−1, the order pindex.Build was given the list
// in, so both render the same bytes.
func (ww *wireWriter) writeJobBody(v JobView, res *lash.Result, named []lash.Pattern) {
	ww.buf = appendJSONString(append(ww.buf, `{"job_id":`...), v.ID)
	ww.str("database", v.Database)
	ww.optInt("corpus_version", int64(v.CorpusVersion))
	ww.str("status", string(v.Status))
	ww.key("cached")
	ww.buf = strconv.AppendBool(ww.buf, v.Cached)
	ww.int("coalesced", int64(v.Coalesced))
	if v.Error != "" {
		ww.str("error", v.Error)
	}
	ww.key("created")
	ww.buf = append(v.Created.AppendFormat(append(ww.buf, '"'), time.RFC3339Nano), '"')
	ww.optInt("queue_ms", v.QueueMS)
	ww.optInt("runtime_ms", v.RuntimeMS)

	ww.buf = append(ww.buf, `,"result":{"patterns":`...)
	if named != nil {
		ww.patterns(named)
	} else {
		ix := res.Index()
		buf := append(ww.buf, '[')
		for id := range uint32(ix.Len()) {
			if id > 0 {
				buf = append(buf, ',')
			}
			ww.items = ix.AppendItems(ww.items[:0], id)
			buf = ww.spill(appendPattern(buf, ww.items, ix.Support(id), "}"))
		}
		ww.buf = append(buf, ']')
	}
	if len(res.FrequentItems) > 0 {
		ww.key("frequent_items")
		ww.patterns(res.FrequentItems)
	}
	ww.int("corpus_version", int64(v.CorpusVersion))
	ww.int("num_partitions", int64(res.NumPartitions))
	ww.int("explored", res.Explored)
	ww.int("map_output_bytes", res.Stats.MapOutputBytes)
	ww.int("map_output_records", res.Stats.MapOutputRecords)
	ww.optInt("spill_runs", res.Stats.SpillRuns)
	ww.optInt("spill_bytes", res.Stats.SpillBytes)
	ww.optInt("task_retries", res.Stats.TaskRetries)
	ww.optInt("faults_injected", res.Stats.FaultsInjected)
	ww.optInt("delta_partitions_dirty", res.Stats.DeltaPartitionsDirty)
	ww.optInt("delta_partitions_reused", res.Stats.DeltaPartitionsReused)
	ww.optInt("delta_partitions_grown", res.Stats.DeltaPartitionsGrown)
	ww.buf = append(ww.buf, '}', '}')
	ww.finish()
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal exactly as
// encoding/json does with its default HTML escaping: ", \ and control bytes
// escaped (short forms for \b \f \n \r \t), <, > and & as \u00XX, U+2028
// and U+2029 as \u202X, and each invalid UTF-8 byte as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			c, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case c == utf8.RuneError && size == 1:
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
				start = i + size
			case c == '\u2028' || c == '\u2029':
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
				start = i + size
			}
			i += size
			continue
		}
		if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch b {
		case '\\', '"':
			dst = append(dst, '\\', b)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
		}
		i++
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
