package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	if tr.NextID() != 0 {
		t.Fatal("nil NextID")
	}
	if tr.Record(SpanRecord{Name: "y"}) != 0 {
		t.Fatal("nil Record")
	}
	if tr.Spans() != nil || tr.Dropped() != 0 || tr.Trim() != 0 {
		t.Fatal("nil accessors")
	}
}

func TestTracerRingOverwrite(t *testing.T) {
	tr := NewTracer(4)
	base := time.Now()
	for i := 0; i < 10; i++ {
		tr.Record(SpanRecord{Name: "s", Start: base.Add(time.Duration(i) * time.Millisecond)})
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	// The retained spans are the 4 most recent ones.
	if got := spans[0].Start; got != base.Add(6*time.Millisecond) {
		t.Fatalf("oldest retained span at +%v, want +6ms", got.Sub(base))
	}

	// A larger ring grows as spans arrive, stops at its capacity and then
	// wraps like the small one.
	tr = NewTracer(100)
	for i := 0; i < 250; i++ {
		tr.Record(SpanRecord{Name: "s", Start: base.Add(time.Duration(i) * time.Millisecond)})
		if i == 29 && (len(tr.ring) != 30 || cap(tr.ring) >= 100) {
			t.Fatalf("after 30 spans the ring holds %d in %d slots, want 30 in fewer than 100", len(tr.ring), cap(tr.ring))
		}
		// Trimmed, the ring holds exactly its spans and grows again after.
		if i == 29 {
			if b := tr.Trim(); cap(tr.ring) != 30 || b != 30*int64(unsafe.Sizeof(SpanRecord{})) {
				t.Fatalf("trimmed ring has %d slots, %d bytes; want 30 slots", cap(tr.ring), b)
			}
		}
	}
	if spans := tr.Spans(); len(spans) != 100 || cap(tr.ring) != 100 || tr.Dropped() != 150 {
		t.Fatalf("retained %d in %d slots, dropped %d; want 100, 100, 150", len(spans), cap(tr.ring), tr.Dropped())
	} else if got := spans[0].Start; got != base.Add(150*time.Millisecond) {
		t.Fatalf("oldest retained span at +%v, want +150ms", got.Sub(base))
	}
}

func TestBuildTree(t *testing.T) {
	tr := NewTracer(16)
	base := time.Now()
	root := tr.Record(SpanRecord{Name: "run", Start: base, Duration: 100 * time.Millisecond})
	job := tr.Record(SpanRecord{Name: "job", Job: "flist", Parent: root, Start: base.Add(time.Millisecond), Duration: 40 * time.Millisecond})
	tr.Record(SpanRecord{Name: "phase", Phase: "map", Parent: job, Start: base.Add(2 * time.Millisecond), Duration: 10 * time.Millisecond, Partition: -1})
	tr.Record(SpanRecord{Name: "orphan", Parent: 9999, Start: base.Add(3 * time.Millisecond), Duration: time.Millisecond})

	doc := BuildTree(tr.Spans(), tr.Dropped())
	if doc.Spans != 4 || doc.Dropped != 0 {
		t.Fatalf("counts: %+v", doc)
	}
	if len(doc.Roots) != 2 {
		t.Fatalf("roots = %d, want 2 (run + orphan)", len(doc.Roots))
	}
	run := doc.Roots[0]
	if run.Name != "run" || len(run.Children) != 1 || run.Children[0].Name != "job" {
		t.Fatalf("tree shape wrong: %+v", run)
	}
	if run.Children[0].Children[0].Phase != "map" {
		t.Fatal("phase label lost")
	}
	if doc.WallMS < 100 || doc.WallMS > 101 {
		t.Fatalf("wall = %v, want ~100ms", doc.WallMS)
	}
}

func TestWriteTraceJSON(t *testing.T) {
	tr := NewTracer(8)
	base := time.Now()
	tr.Record(SpanRecord{Name: "run", Start: base, Duration: 5 * time.Millisecond, Partition: -1})
	var b strings.Builder
	if err := WriteTraceJSON(&b, tr.Spans(), tr.Dropped()); err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, []byte(b.String())); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSuffix(b.String(), "\n"); got != compact.String() {
		t.Fatalf("trace JSON is not compact:\n%s", b.String())
	}
	var doc TraceDoc
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace JSON does not round-trip: %v\n%s", err, b.String())
	}
	if doc.Spans != 1 || len(doc.Roots) != 1 || doc.Roots[0].Name != "run" {
		t.Fatalf("doc = %+v", doc)
	}
}
