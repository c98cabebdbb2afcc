package obs

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilHandlesAreSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	g.Inc()
	g.Dec()
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(1.5)
	if h.Sum() != 0 || h.Count() != 0 {
		t.Fatal("nil histogram state")
	}
	var run *Run
	run.SetJobSpan(7)
	run.Record(SpanRecord{Name: "s", Duration: time.Second}, nil)
	pm := run.PipelineMetricsOf()
	pm.Phases("flist").Map.Observe(1)
	pm.AddRun(&RunCounters{})
	pm.PartitionsMined.Inc()
	if run.JobSpan() != 0 || run.TracerOf() != nil || pm == nil || pm.ShuffleBytes != nil {
		t.Fatal("nil Run accessors")
	}
}

// Record feeds one interval to both readers: the tracer's span (under the
// run's root by default) and the histogram, with the same duration.
func TestRunRecord(t *testing.T) {
	run := &Run{Tracer: NewTracer(0), Root: 7}
	h := NewHistogram(DurationBuckets)
	start := time.Now()
	run.Record(SpanRecord{Name: "queue", Partition: -1, Start: start, Duration: 1500 * time.Millisecond}, h)
	run.Record(SpanRecord{Name: "mine", Job: "partition+mine", Parent: 3, Partition: 7, Start: start.Add(time.Second), Duration: time.Millisecond}, nil)
	spans := run.Tracer.Spans()
	if len(spans) != 2 || spans[0].Parent != 7 || spans[1].Parent != 3 {
		t.Fatalf("spans %+v: want a root child of span 7 and a child of span 3", spans)
	}
	if got := spans[1]; got.Name != "mine" || got.Job != "partition+mine" || got.Partition != 7 || got.Duration != time.Millisecond {
		t.Fatalf("labels lost: %+v", got)
	}
	if h.Count() != 1 || h.Sum() != spans[0].Duration.Seconds() {
		t.Fatalf("histogram count %d sum %v, span %v", h.Count(), h.Sum(), spans[0].Duration)
	}
}

// AddRun adds every counter of a finished run to its process-wide family.
func TestAddRun(t *testing.T) {
	pm := NewPipelineMetrics(NewRegistry())
	var rc RunCounters
	for i, c := range []*atomic.Int64{&rc.ShuffleRecords, &rc.ShuffleBytes, &rc.SpillFlushes, &rc.SpillRuns,
		&rc.SpillBytes, &rc.SpillRecords, &rc.TaskRetries, &rc.FaultsInjected, &rc.SpillCleanupErrors} {
		c.Store(int64(i + 1))
	}
	pm.AddRun(&rc)
	pm.AddRun(&rc)
	for i, c := range []*Counter{pm.ShuffleRecords, pm.ShuffleBytes, pm.SpillFlushes, pm.SpillRuns,
		pm.SpillBytes, pm.SpillRecords, pm.TaskRetries, pm.FaultsInjected, pm.SpillCleanupErrors} {
		if got := c.Value(); got != 2*int64(i+1) {
			t.Errorf("counter %d = %d, want %d", i, got, 2*(i+1))
		}
	}
}

func TestStandaloneHandles(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	var g Gauge
	g.Set(10)
	g.Dec()
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge = %d, want 9", got)
	}
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got := h.Sum(); math.Abs(got-105) > 1e-9 {
		t.Fatalf("sum = %v, want 105", got)
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	jobs := r.Counter("test_jobs_total", "Jobs processed.", "state", "done")
	jobs.Add(4)
	r.Counter("test_jobs_total", "Jobs processed.", "state", "failed").Inc()
	r.Gauge("test_queue_depth", "Jobs waiting.").Set(2)
	h := r.Histogram("test_latency_seconds", "Request latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(10)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP test_jobs_total Jobs processed.
# TYPE test_jobs_total counter
test_jobs_total{state="done"} 4
test_jobs_total{state="failed"} 1
# HELP test_latency_seconds Request latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 10.55
test_latency_seconds_count 3
# HELP test_queue_depth Jobs waiting.
# TYPE test_queue_depth gauge
test_queue_depth 2
`
	if got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistryIdempotentAndPanics(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_x_total", "X.", "k", "v")
	b := r.Counter("test_x_total", "X.", "k", "v")
	if a != b {
		t.Fatal("re-registration did not return the same handle")
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("bad name", func() { r.Counter("Bad-Name_total", "help") })
	mustPanic("empty help", func() { r.Counter("test_y_total", "") })
	mustPanic("blank help", func() { r.Counter("test_y_total", " \t\n") })
	mustPanic("counter without _total", func() { r.Counter("test_y", "help") })
	mustPanic("gauge with _total", func() { r.Gauge("test_y_total", "help") })
	mustPanic("type change", func() {
		r.Gauge("test_q", "Q.")
		r.Histogram("test_q", "Q.", []float64{1})
	})
	mustPanic("help change", func() { r.Counter("test_x_total", "different help", "k", "v") })
	mustPanic("odd labels", func() { r.Counter("test_z_total", "help", "k") })
	mustPanic("bad label name", func() { r.Counter("test_z_total", "help", "Bad-Key", "v") })
	mustPanic("histogram le label", func() { r.Histogram("test_h_seconds", "help", []float64{1}, "le", "1") })
	r.Histogram("test_lat_seconds", "Latency.", []float64{1})
	mustPanic("family after histogram series", func() { r.Gauge("test_lat_seconds_count", "help") })
	r.Gauge("test_req_sum", "help")
	mustPanic("histogram after family series", func() { r.Histogram("test_req", "help", []float64{1}) })
	mustPanic("descending bounds", func() { NewHistogram([]float64{2, 1}) })
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("test_esc", "Escapes.", "k", "a\"b\\c\nd").Set(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `test_esc{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("escaping wrong:\n%s", b.String())
	}
}

func TestGoCollector(t *testing.T) {
	r := NewRegistry()
	RegisterGoCollector(r)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, fam := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_gc_cycles_total"} {
		if !strings.Contains(out, "# TYPE "+fam) {
			t.Fatalf("missing %s in:\n%s", fam, out)
		}
	}
	if strings.Contains(out, "go_goroutines 0\n") {
		t.Fatal("go_goroutines not refreshed on scrape")
	}
}

// TestConcurrentRecordAndScrape is the -race hammer: 32 goroutines record
// into counters, gauges, and histograms while the registry is scraped
// concurrently.
func TestConcurrentRecordAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_hammer_total", "Hammered counter.")
	g := r.Gauge("test_hammer_gauge", "Hammered gauge.")
	h := r.Histogram("test_hammer_seconds", "Hammered histogram.", DurationBuckets)
	tr := NewTracer(128)

	const goroutines = 32
	const iters = 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				c.Inc()
				g.Set(int64(j))
				h.Observe(float64(seed*j) * 1e-6)
				tr.Record(SpanRecord{Name: "hammer"})
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
			tr.Spans()
		}
	}()
	wg.Wait()
	<-done

	if got := c.Value(); got != goroutines*iters {
		t.Fatalf("counter = %d, want %d", got, goroutines*iters)
	}
	if got := h.Count(); got != goroutines*iters {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*iters)
	}
	if got := tr.Dropped() + len(tr.Spans()); got != goroutines*iters {
		t.Fatalf("spans retained+dropped = %d, want %d", got, goroutines*iters)
	}
}

func TestPipelineMetricsPhases(t *testing.T) {
	r := NewRegistry()
	pm := NewPipelineMetrics(r)
	for _, job := range []string{"flist", "partition+mine", "naive", "semi-naive", "mystery"} {
		ph := pm.Phases(job)
		ph.Map.Observe(1)
		ph.Shuffle.Observe(2)
		ph.Reduce.Observe(3)
	}
	if pm.FList.Map.Count() != 1 || pm.Mine.Shuffle.Count() != 1 ||
		pm.Naive.Reduce.Count() != 1 || pm.SemiNaive.Map.Count() != 1 ||
		pm.Other.Map.Count() != 1 {
		t.Fatal("phase routing wrong")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
}
