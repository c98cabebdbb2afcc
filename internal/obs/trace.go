package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// SpanID identifies a span within one Tracer. 0 means "no span" and is the
// parent of root spans.
type SpanID uint64

// SpanRecord is one finished span: a named interval with optional job,
// phase, and partition labels and a parent link. Partition is -1 when the
// span is not tied to one partition.
type SpanRecord struct {
	ID        SpanID
	Parent    SpanID
	Name      string
	Job       string
	Phase     string
	Partition int
	Start     time.Time
	Duration  time.Duration
}

// Tracer collects finished spans into a ring buffer of recent spans that
// grows on demand up to a fixed capacity (oldest records are overwritten
// once it is full; Dropped counts the overwrites), so a tracer costs what
// it holds. All methods are nil-receiver safe, so instrumented code can
// thread an optional *Tracer without branching.
type Tracer struct {
	next atomic.Uint64

	mu       sync.Mutex
	ring     []SpanRecord
	capacity int
	total    int // records ever written
}

// DefaultTraceCapacity is the ring size NewTracer(0) uses — enough for a
// full CLI run's job, phase, task, and per-partition spans at paper scale.
const DefaultTraceCapacity = 1 << 16

// NewTracer returns a tracer whose ring holds up to capacity finished
// spans (0 = DefaultTraceCapacity). The ring starts empty and doubles as
// spans arrive.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{capacity: capacity}
}

// NextID allocates a span id without starting a span — for spans whose
// interval is recorded after the fact (watermark-derived phase spans) but
// whose id must exist up front so children can link to it. Returns 0 on a
// nil tracer.
func (t *Tracer) NextID() SpanID {
	if t == nil {
		return 0
	}
	return SpanID(t.next.Add(1))
}

// Record stores one finished span, assigning an id if rec.ID is 0, and
// returns the id. Oldest records are overwritten once the ring is full.
// No-op (returning 0) on a nil tracer.
func (t *Tracer) Record(rec SpanRecord) SpanID {
	if t == nil {
		return 0
	}
	if rec.ID == 0 {
		rec.ID = t.NextID()
	}
	t.mu.Lock()
	switch {
	case len(t.ring) == t.capacity:
		t.ring[t.total%t.capacity] = rec
	case len(t.ring) == cap(t.ring):
		grown := make([]SpanRecord, len(t.ring), min(max(2*cap(t.ring), 16), t.capacity))
		copy(grown, t.ring)
		t.ring = append(grown, rec)
	default:
		t.ring = append(t.ring, rec)
	}
	t.total++
	t.mu.Unlock()
	return rec.ID
}

// Trim releases the ring's unused slots, for a trace whose last span is in,
// and returns the bytes the ring then holds. A later Record grows it again.
// 0 on a nil tracer.
func (t *Tracer) Trim() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(make([]SpanRecord, 0, len(t.ring)), t.ring...)
	}
	return int64(cap(t.ring)) * int64(unsafe.Sizeof(SpanRecord{}))
}

// Spans returns a copy of the retained spans, ordered by start time.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]SpanRecord(nil), t.ring...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Dropped returns how many spans were overwritten because the ring was
// full.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - len(t.ring)
}

// TraceNode is one span in the JSON span tree written by WriteTraceJSON.
// Start and duration are milliseconds; start is relative to the trace's
// earliest span. Partition is -1 for spans not tied to one partition.
type TraceNode struct {
	Name       string       `json:"name"`
	Job        string       `json:"job,omitempty"`
	Phase      string       `json:"phase,omitempty"`
	Partition  int          `json:"partition"`
	StartMS    float64      `json:"start_ms"`
	DurationMS float64      `json:"duration_ms"`
	Children   []*TraceNode `json:"children,omitempty"`
}

// TraceDoc is the top-level JSON document of a trace file.
type TraceDoc struct {
	// Spans is the number of retained spans; Dropped counts spans lost to
	// the ring buffer (0 means the tree is complete).
	Spans   int `json:"spans"`
	Dropped int `json:"dropped"`
	// WallMS spans the earliest start to the latest end.
	WallMS float64      `json:"wall_ms"`
	Roots  []*TraceNode `json:"roots"`
}

// BuildTree assembles span records into a forest: children attach to their
// parent when it is retained, and spans whose parent was dropped (or 0)
// become roots. Siblings are ordered by start time.
func BuildTree(spans []SpanRecord, dropped int) *TraceDoc {
	doc := &TraceDoc{Spans: len(spans), Dropped: dropped}
	if len(spans) == 0 {
		return doc
	}
	base := spans[0].Start
	end := base
	nodes := make(map[SpanID]*TraceNode, len(spans))
	for _, sp := range spans {
		if sp.Start.Before(base) {
			base = sp.Start
		}
	}
	for _, sp := range spans {
		nodes[sp.ID] = &TraceNode{
			Name:       sp.Name,
			Job:        sp.Job,
			Phase:      sp.Phase,
			Partition:  sp.Partition,
			StartMS:    durMS(sp.Start.Sub(base)),
			DurationMS: durMS(sp.Duration),
		}
		if e := sp.Start.Add(sp.Duration); e.After(end) {
			end = e
		}
	}
	for _, sp := range spans { // spans is start-ordered, so children append in order
		n := nodes[sp.ID]
		if parent, ok := nodes[sp.Parent]; ok && sp.Parent != sp.ID {
			parent.Children = append(parent.Children, n)
		} else {
			doc.Roots = append(doc.Roots, n)
		}
	}
	doc.WallMS = durMS(end.Sub(base))
	return doc
}

func durMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// WriteTraceJSON renders the span forest of a tracer's retained spans as
// one compact JSON document with a trailing newline (see TraceDoc for the
// schema); pipe it through jq to read it.
func WriteTraceJSON(w io.Writer, spans []SpanRecord, dropped int) error {
	return json.NewEncoder(w).Encode(BuildTree(spans, dropped))
}
