package lash

import (
	"io"
	"time"

	"lash/internal/obs"
)

// Trace collects the span tree of one or more mining runs: every MapReduce
// job, its map/shuffle/reduce phases, per-task and per-partition intervals,
// and any caller-side spans added with Span (corpus loading, output
// writing). Attach one via Options.Trace, then render it with WriteJSON —
// the `lash -trace-out` flag does exactly that.
//
// A Trace retains a bounded ring of recent spans (the most recent 65536);
// WriteJSON's "dropped" counts the older spans a very large run overwrote. Trace is
// safe for concurrent use, but is meant to observe one run at a time —
// spans of concurrent runs interleave into one forest.
type Trace struct {
	tracer *obs.Tracer
	root   obs.SpanID // 0: each run records a "mine" root span of its own
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{tracer: obs.NewTracer(0)}
}

// NewTraceUnder returns a trace that records into tracer and hangs a run's
// jobs from the span root instead of a "mine" span of its own: the caller
// times the run and records root itself, so the interval is read once.
// lashd makes each job's run that span. The tracer's type lives in an
// internal package: only this module can call it.
func NewTraceUnder(tracer *obs.Tracer, root obs.SpanID) *Trace {
	return &Trace{tracer: tracer, root: root}
}

// handle exposes the internal tracer to the mining pipeline (nil-safe).
func (t *Trace) handle() *obs.Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// Span starts a named caller-side span at the trace's root level and
// returns the function that ends it:
//
//	done := tr.Span("load-corpus")
//	db, err := loadDatabase(...)
//	done()
//
// Safe on a nil Trace (the returned function is a no-op).
func (t *Trace) Span(name string) func() {
	if t == nil {
		return func() {}
	}
	begin := time.Now()
	return func() {
		t.tracer.Record(obs.SpanRecord{Name: name, Partition: -1, Start: begin, Duration: time.Since(begin)})
	}
}

// WriteJSON renders the collected spans as a JSON span forest, one compact
// document with a trailing newline (pipe it through `jq .` to read it),
// shaped like this once indented:
//
//	{
//	  "spans": 12,            // retained spans
//	  "dropped": 0,           // spans lost to the ring buffer
//	  "wall_ms": 1042.7,      // earliest start to latest end
//	  "roots": [              // top-level spans, children nested
//	    {"name": "mine", "partition": -1, "start_ms": 0, "duration_ms": 1040.1,
//	     "children": [
//	       {"name": "job", "job": "flist", ...,
//	        "children": [{"name": "phase", "phase": "map", ...}, ...]},
//	       ...]}
//	  ]
//	}
//
// start_ms is relative to the trace's earliest span; a job's phase children
// ("map", "shuffle", "reduce") are laid out back to back and sum to the
// job's duration.
func (t *Trace) WriteJSON(w io.Writer) error {
	if t == nil {
		return obs.WriteTraceJSON(w, nil, 0)
	}
	return obs.WriteTraceJSON(w, t.tracer.Spans(), t.tracer.Dropped())
}
