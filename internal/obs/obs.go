// Package obs is the repro's dependency-free observability substrate:
// atomic metric primitives behind a Prometheus-compatible Registry, plus
// lightweight span tracing (trace.go) and the pipeline-wide handle bundles
// the mining phases record into (pipeline.go).
//
// # The hot-path handle contract
//
// Metrics are registered once, up front, and recording happens through the
// returned handles (*Counter, *Gauge, *Histogram): a record is one or two
// atomic operations — no map lookup, no lock, and no allocation. Code on a
// hot path must never call a Registry method per record; it holds the
// handle (pre-registered by the component that owns the registry) and the
// registry is only consulted again at scrape time. All handle methods are
// nil-receiver safe, so instrumented code needs no "is observability on?"
// branches: a nil handle records into the void at the cost of one branch.
//
// Each event is recorded once. A MapReduce job counts into its own
// RunCounters, and PipelineMetrics.AddRun adds them to the process-wide
// families when the job ends, so those counters move per job, at its end,
// not while it runs. A timed interval reads the clock once and goes through
// Run.Record, which makes it a span when a tracer is attached and observes
// its histogram when metrics are.
//
// # Exposition
//
// Registry.WritePrometheus renders the classic Prometheus text exposition
// format (version 0.0.4): one HELP and TYPE line per family, families
// sorted by name, children sorted by label signature, histograms expanded
// into cumulative _bucket/_sum/_count series ending in a +Inf bucket.
// Registration is the only metric check: it panics on malformed names or
// label sets, blank help text, a counter without the _total suffix (or a
// non-counter with it), a histogram labelled le, a family colliding with a
// histogram's _bucket/_sum/_count series, or a re-registration that changes
// a family's type or help text. These are programmer errors; everything
// else the text format requires holds by construction of WritePrometheus.
package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; all methods are nil-receiver safe.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be ≥ 0 for the exposition to stay monotone).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The zero value is ready to
// use; all methods are nil-receiver safe.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed, ascending buckets (upper
// bounds; a +Inf bucket is implicit) and tracks their sum. Observations
// are lock-free: one atomic add on the bucket, a CAS loop on the float sum,
// one add on the count. Construct with NewHistogram or Registry.Histogram;
// all methods are nil-receiver safe.
type Histogram struct {
	bounds  []float64      // ascending upper bounds, +Inf excluded
	buckets []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits
}

// NewHistogram returns a standalone histogram over the given ascending
// upper bounds (the +Inf bucket is added implicitly).
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observations (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// DurationBuckets are the default upper bounds (seconds) for phase and job
// timing histograms: 500µs to 2 minutes.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one labeled series of a family. Exactly one of the handle
// fields is set, matching the family's type.
type child struct {
	labels  string // rendered `{k="v",...}` block, "" for the unlabeled series
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family is one metric family: a name, help text, a type, and its labeled
// children.
type family struct {
	name     string
	help     string
	typ      metricType
	children []*child
	index    map[string]*child // label signature → child
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is idempotent: re-registering the same
// (name, label set) returns the existing handle; changing a family's type
// or help text panics.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	onScrape []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var (
	nameRe  = regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)
	labelRe = regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)
)

// labelSignature renders a label pair list ("k1", "v1", "k2", "v2", ...)
// into the canonical `{k1="v1",k2="v2"}` block, sorted by label name.
func labelSignature(name string, labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %s: odd label list %q (want key, value pairs)", name, labels))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		if !labelRe.MatchString(labels[i]) {
			panic(fmt.Sprintf("obs: metric %s: bad label name %q", name, labels[i]))
		}
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// register resolves (or creates) the family and child for a registration.
// The child's handle is allocated under the registry lock, so concurrent
// registrations of the same series (e.g. lazily labeled request counters)
// race-freely receive the same handle.
func (r *Registry) register(name, help string, typ metricType, bounds []float64, labels []string) *child {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: bad metric name %q", name))
	}
	if strings.TrimSpace(help) == "" {
		panic(fmt.Sprintf("obs: metric %s registered without help text", name))
	}
	if typ == typeCounter && !strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("obs: counter %s must end in _total", name))
	}
	if typ != typeCounter && strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("obs: %s %s must not end in _total", typ, name))
	}
	sig := labelSignature(name, labels)
	if typ == typeHistogram {
		for i := 0; i < len(labels); i += 2 {
			if labels[i] == "le" {
				panic(fmt.Sprintf("obs: histogram %s must not carry an le label", name))
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		if series := r.seriesClash(name, typ); series != "" {
			panic(fmt.Sprintf("obs: metric %s: series %s would be written by two families", name, series))
		}
		fam = &family{name: name, help: help, typ: typ, index: make(map[string]*child)}
		r.families[name] = fam
	} else {
		if fam.typ != typ {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, typ, fam.typ))
		}
		if fam.help != help {
			panic(fmt.Sprintf("obs: metric %s re-registered with different help text", name))
		}
	}
	if c, ok := fam.index[sig]; ok {
		return c
	}
	c := &child{labels: sig}
	switch typ {
	case typeCounter:
		c.counter = &Counter{}
	case typeGauge:
		c.gauge = &Gauge{}
	case typeHistogram:
		c.hist = NewHistogram(bounds)
	}
	fam.index[sig] = c
	fam.children = append(fam.children, c)
	return c
}

// seriesClash returns the sample name a new family called name would share
// with an existing one — a histogram's _bucket, _sum or _count series — or
// "" when there is none. Called with r.mu held.
func (r *Registry) seriesClash(name string, typ metricType) string {
	for _, s := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, s); ok {
			if f := r.families[base]; f != nil && f.typ == typeHistogram {
				return name
			}
		}
		if typ == typeHistogram && r.families[name+s] != nil {
			return name + s
		}
	}
	return ""
}

// Counter registers (or finds) a counter series and returns its handle.
// labels are key, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.register(name, help, typeCounter, nil, labels).counter
}

// Gauge registers (or finds) a gauge series and returns its handle.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.register(name, help, typeGauge, nil, labels).gauge
}

// Histogram registers (or finds) a histogram series over the given
// ascending bucket upper bounds and returns its handle. Re-registration
// ignores bounds and returns the existing series.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	return r.register(name, help, typeHistogram, bounds, labels).hist
}

// OnScrape registers a hook run at the start of every WritePrometheus call
// — the place to refresh pull-style gauges (Go runtime stats, uptime)
// exactly once per scrape.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.onScrape = append(r.onScrape, fn)
	r.mu.Unlock()
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in text exposition format (0.0.4):
// families sorted by name, children by label signature.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	hooks := append([]func(){}, r.onScrape...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}

	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	// Children are snapshotted under the lock too: register appends to
	// fam.children while lazily labeled series appear mid-scrape.
	fams := make([]*family, len(names))
	kids := make([][]*child, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
		kids[i] = append([]*child(nil), fams[i].children...)
	}
	r.mu.Unlock()

	var b strings.Builder
	for i, fam := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", fam.name, escapeHelp(fam.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam.name, fam.typ)
		children := kids[i]
		sort.Slice(children, func(i, j int) bool { return children[i].labels < children[j].labels })
		for _, c := range children {
			switch fam.typ {
			case typeCounter:
				fmt.Fprintf(&b, "%s%s %d\n", fam.name, c.labels, c.counter.Value())
			case typeGauge:
				fmt.Fprintf(&b, "%s%s %d\n", fam.name, c.labels, c.gauge.Value())
			case typeHistogram:
				writeHistogram(&b, fam.name, c)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram child: cumulative buckets with the
// le label merged into the child's label block, then _sum and _count.
func writeHistogram(b *strings.Builder, name string, c *child) {
	h := c.hist
	cum := int64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLabel(c.labels, "le", le), cum)
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, c.labels, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, c.labels, h.Count())
}

// mergeLabel appends one more label pair to a rendered label block.
func mergeLabel(labels, k, v string) string {
	pair := k + `="` + escapeLabel(v) + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// RegisterGoCollector registers the Go runtime gauges (goroutines, heap,
// GC) on r, refreshed once per scrape via an OnScrape hook. GC pause time
// and cycle counts are exposed as counters fed by deltas between scrapes.
func RegisterGoCollector(r *Registry) {
	goroutines := r.Gauge("go_goroutines", "Number of goroutines that currently exist.")
	heapAlloc := r.Gauge("go_heap_alloc_bytes", "Bytes of allocated heap objects.")
	heapSys := r.Gauge("go_heap_sys_bytes", "Bytes of heap memory obtained from the OS.")
	heapObjects := r.Gauge("go_heap_objects", "Number of allocated heap objects.")
	gcCycles := r.Counter("go_gc_cycles_total", "Completed GC cycles.")
	gcPause := r.Counter("go_gc_pause_nanoseconds_total", "Cumulative GC stop-the-world pause time in nanoseconds.")
	var lastCycles, lastPause uint64
	var mu sync.Mutex
	r.OnScrape(func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		goroutines.Set(int64(runtime.NumGoroutine()))
		heapAlloc.Set(int64(ms.HeapAlloc))
		heapSys.Set(int64(ms.HeapSys))
		heapObjects.Set(int64(ms.HeapObjects))
		mu.Lock()
		gcCycles.Add(int64(uint64(ms.NumGC) - lastCycles))
		gcPause.Add(int64(ms.PauseTotalNs - lastPause))
		lastCycles, lastPause = uint64(ms.NumGC), ms.PauseTotalNs
		mu.Unlock()
	})
}
