package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// span is one traced interval. Spans are recorded from the benchmark's own
// files, around its calls into each layer and around each HTTP exchange;
// the program under test is not instrumented. Spans of one operation share
// Op, and Parent is the ID of the span that caused this one (0 for none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Op      int    `json:"op"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished interval and returns its id.
func (t *tracer) add(name, layer string, parent, op int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Layer: layer, Op: op,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// timed runs fn inside a span, which spans recorded by fn may name as their
// parent, and returns the span's duration.
func (t *tracer) timed(name, layer string, parent, op int, fn func(id int) error) (time.Duration, error) {
	start := time.Now()
	id := t.add(name, layer, parent, op, start, start)
	err := fn(id)
	end := time.Now()
	t.mu.Lock()
	t.spans[id-1].EndNS = end.Sub(t.epoch).Nanoseconds()
	t.mu.Unlock()
	return end.Sub(start), err
}

// write stores the spans next to the benchmark's sources.
func (t *tracer) write(dir, workload string) error {
	raw, err := json.Marshal(map[string]any{"workload": workload, "spans": t.spans})
	if err != nil {
		return err
	}
	return writeFile(dir, "trace-"+workload+".json", raw)
}

// writeFile writes one output file of a run, creating dir as needed.
func writeFile(dir, name string, raw []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), raw, 0o644)
}

// The traced pass spends the window on the service-side probes in these
// shares; the layer replay afterwards takes what it takes (its work is
// fixed by the corpus).
const (
	shareKind   = 0.04 // each of the five query kinds, one connection
	shareSteady = 0.10 // the closed-loop mix from nproc connections
	shareBusy   = 0.15 // the same mix beside a looping cold mine
	shareOpen   = 0.10 // open loop
	openRate    = 1000 // requests per second of the open loop
	floorProbes = 2000 // GET /healthz exchanges for the HTTP floor
	cacheProbes = 5    // identical POST /v1/mine answered from the cache
	coldProbes  = 2    // traced cold ops
)

// tracedRun is the traced pass: it reports the per-layer metrics. Whatever
// the workload, it runs the same probes — a cold op, cache hits, one live
// cycle of each shape, every query kind, the mix alone, beside a mine and in
// open loop, then the single-goroutine layer replay — on the workload's own
// corpus and options, so each workload's trace says where its seconds go.
func (r *run) tracedRun(outDir string) error {
	if err := r.setUp(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if err := r.prepare(); err != nil {
		return err
	}
	tr := newTracer()
	cl := r.sut.newClient()
	defer cl.close()
	for _, probe := range []func(*tracer, *client) error{r.probeCold, r.probeCache, r.probeLive, r.probeQueries} {
		if err := probe(tr, cl); err != nil {
			return err
		}
	}
	if err := r.replay(tr); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.metrics.set("runtime.gc_cpu_pct", ms.GCCPUFraction*100)
	r.metrics.set("runtime.heap_peak_mb", float64(ms.HeapSys)/1e6)
	return tr.write(outDir, r.spec.name)
}

func share(window time.Duration, s float64) time.Duration {
	return time.Duration(float64(window) * s)
}

// probeCold traces cold ops exchange by exchange and splits each mine into
// queue wait, run and the rest (response encode, transfer, request decode)
// by the queue_ms/runtime_ms the job reports. The allocation counters are
// read around the exchanges only, so the harness's own decoding stays out.
func (r *run) probeCold(tr *tracer, cl *client) error {
	budgets := r.spec.budgets
	if len(budgets) == 1 {
		// Every workload reports both shuffle paths; the budget is a quarter
		// of what the in-memory shuffle of this corpus ships.
		budgets = []int64{0, max(1, r.warm[0].job.Result.MapOutputBytes/4)}
	}
	var register, queue, runS, respond, mb []float64
	perBudget := make([][]float64, len(budgets))
	var allocs, mallocs float64
	var before, after runtime.MemStats
	ops := 0
	for i := 0; i < coldProbes; i++ {
		for b, budget := range budgets {
			ops++
			name := fmt.Sprintf("probe%d-%d", i, b)
			opt := r.spec.options
			opt.MemoryBudget = budget

			runtime.ReadMemStats(&before)
			start := time.Now()
			dReg, err := cl.register(name, r.corpus.ldb)
			if !r.tally.check(err) {
				return err
			}
			mid := time.Now()
			reply, elapsed, err := cl.mineSend(name, opt)
			runtime.ReadMemStats(&after)
			if !r.tally.check(err) {
				return err
			}
			m, err := decodeMined(reply, elapsed)
			if !r.tally.check(err) {
				return err
			}
			end := mid.Add(m.elapsed)
			allocs += float64(after.TotalAlloc - before.TotalAlloc)
			mallocs += float64(after.Mallocs - before.Mallocs)

			op := tr.add("cold-op", "server", 0, ops, start, end)
			tr.add("POST /v1/databases", "server", op, ops, start, start.Add(dReg))
			mine := tr.add("POST /v1/mine", "server", op, ops, mid, end)
			q := time.Duration(m.job.QueueMS) * time.Millisecond
			run := time.Duration(m.job.RuntimeMS) * time.Millisecond
			tr.add("job queued", "server", mine, ops, mid, mid.Add(q))
			tr.add("job running", "core", mine, ops, mid.Add(q), mid.Add(q+run))
			tr.add("respond", "server", mine, ops, mid.Add(q+run), end)

			r.checkMine(m, budget)
			register = append(register, dReg.Seconds())
			queue = append(queue, q.Seconds())
			runS = append(runS, run.Seconds())
			respond = append(respond, (m.elapsed - q - run).Seconds())
			mb = append(mb, float64(m.bytes)/1e6)
			perBudget[b] = append(perBudget[b], m.elapsed.Seconds()*1000)
		}
	}
	r.metrics.median("server.register_s", register)
	r.metrics.median("server.job_queue_s", queue)
	r.metrics.median("server.job_run_s", runS)
	r.metrics.median("server.respond_s", respond)
	r.metrics.median("server.response_mb", mb)
	r.metrics.median("server.mine_mem_ms", perBudget[0])
	r.metrics.median("server.mine_spill_ms", perBudget[1])
	r.metrics.set("runtime.alloc_mb_per_op", allocs/float64(ops)/1e6)
	r.metrics.set("runtime.mallocs_per_op", mallocs/float64(ops))
	return nil
}

// probeCache repeats an identical mine: the service answers it inline from
// the result cache, with the full result body.
func (r *run) probeCache(tr *tracer, cl *client) error {
	var ms []float64
	for i := 0; i < cacheProbes; i++ {
		start := time.Now()
		m, err := cl.mine("probe0-0", r.spec.options)
		if !r.tally.check(err) {
			return err
		}
		if !m.job.Cached {
			r.tally.check(fmt.Errorf("repeat of an identical mine was not answered from the cache"))
		}
		tr.add("POST /v1/mine (cached)", "server", 0, 0, start, start.Add(m.elapsed))
		ms = append(ms, m.elapsed.Seconds()*1000)
	}
	r.metrics.median("server.cache_hit_ms", ms)
	return nil
}

// probeLive runs one refresh cycle of each append shape against a live
// database and reports how much of the previous state each could reuse.
func (r *run) probeLive(tr *tracer, cl *client) error {
	if r.spec.shape != shapeLive {
		if err := r.firstMine(cl, liveDB); !r.tally.check(err) {
			return err
		}
	}
	ls, err := r.newLiveState()
	if err != nil {
		return err
	}
	var appends []float64
	for i, topical := range []bool{false, true} {
		start := time.Now()
		f, err := r.step(cl, ls, topical)
		if !r.tally.check(err) {
			return err
		}
		name, metric := "zipf", "server.refresh_zipf_ms"
		if topical {
			name, metric = "topical", "server.refresh_topical_ms"
		}
		op := tr.add("refresh "+name, "server", 0, 100+i, start, start.Add(f.latency))
		tr.add("POST /v1/databases/{name}/sequences", "server", op, 100+i, start, start.Add(f.appendTime))
		tr.add("POST /v1/mine (delta)", "core", op, 100+i, start.Add(f.appendTime), start.Add(f.appendTime+f.mine.elapsed))
		tr.add("GET /v1/patterns", "pindex", op, 100+i, start.Add(f.appendTime+f.mine.elapsed), start.Add(f.latency))
		r.metrics.set(metric, f.latency.Seconds()*1000)
		r.metrics.set("core.delta_reuse_"+name, f.reuse())
		appends = append(appends, f.appendTime.Seconds())
	}
	r.verifyLast(ls)
	r.metrics.median("server.append_s", appends)
	return nil
}

// probeQueries measures the serving path: the HTTP floor, each query kind
// alone, then the mix in closed loop, beside a cold mine, and in open loop.
func (r *run) probeQueries(tr *tracer, cl *client) error {
	floor := make([]float64, 0, floorProbes)
	start := time.Now()
	for i := 0; i < floorProbes; i++ {
		status, reply, d, err := cl.get("/healthz")
		if err := expect(200, status, reply, err); err != nil {
			r.tally.check(err)
			return err
		}
		floor = append(floor, d.Seconds()*1e6)
	}
	tr.add("GET /healthz x"+fmt.Sprint(floorProbes), "server", 0, 0, start, time.Now())
	r.metrics.median("server.http_floor_us", floor)

	// The queries read the live database's first version when the workload
	// has no serving database of its own; all hold the same result.
	db := liveDB
	if r.spec.shape == shapeServe {
		db = serveDB
	}
	// Version 1 is the one the oracle describes.
	pool := newQueryPool(patternsPath(db, 1), r.oracle, r.spec.pageSupport(), r.seed)

	var bytes int64
	var wall time.Duration
	for kind, name := range queryKinds {
		only := &queryPool{}
		for k := range only.cases {
			only.cases[k] = pool.cases[kind]
		}
		start := time.Now()
		qs := closedLoop(r.sut, only, 1, r.seed, share(r.window, shareKind))
		tr.add("closed loop: "+name, "server", 0, 0, start, time.Now())
		qs.verify(&r.tally, r.oracle)
		us := qs.all()
		for i := range us {
			us[i] *= 1e6
		}
		r.metrics.median("server.query_"+name+"_us", us)
		bytes += qs.bytes
		wall += qs.wall
	}
	r.metrics.set("server.query_resp_mb_per_s", float64(bytes)/1e6/wall.Seconds())

	nproc := runtime.NumCPU()
	start = time.Now()
	steady := closedLoop(r.sut, pool, nproc, r.seed, share(r.window, shareSteady))
	tr.add("closed loop: mix", "server", 0, 0, start, time.Now())
	steady.verify(&r.tally, r.oracle)
	r.metrics.set("server.query_rps", float64(steady.n)/steady.wall.Seconds())
	r.metrics.set("server.query_p99_ms", quantile(sorted(steady.all()), 0.99)*1000)

	// Busy: the same loop while one more connection mines cold under fresh
	// names, reads beside writes.
	stop := make(chan struct{})
	mining := make(chan error, 1)
	go func() {
		mc := r.sut.newClient()
		defer mc.close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				mining <- nil
				return
			default:
			}
			if _, _, err := r.coldOp(mc, fmt.Sprintf("busy%d", i)); err != nil {
				mining <- err
				return
			}
		}
	}()
	start = time.Now()
	busy := closedLoop(r.sut, pool, nproc, r.seed+1, share(r.window, shareBusy))
	close(stop)
	r.tally.check(<-mining)
	tr.add("closed loop: mix beside a cold mine", "server", 0, 0, start, time.Now())
	busy.verify(&r.tally, r.oracle)
	lat := sorted(busy.all())
	r.metrics.set("server.query_busy_rps", float64(busy.n)/busy.wall.Seconds())
	r.metrics.set("server.query_busy_p50_ms", quantile(lat, 0.5)*1000)
	r.metrics.set("server.query_busy_p99_ms", quantile(lat, 0.99)*1000)

	start = time.Now()
	open := openLoop(r.sut, pool, nproc, r.seed+2, openRate, share(r.window, shareOpen))
	tr.add(fmt.Sprintf("open loop: mix at %d/s", openRate), "server", 0, 0, start, time.Now())
	open.verify(&r.tally, r.oracle)
	lat = sorted(open.all())
	r.metrics.set("server.open_p50_ms", quantile(lat, 0.5)*1000)
	r.metrics.set("server.open_p99_ms", quantile(lat, 0.99)*1000)
	r.metrics.set("server.open_max_late_ms", open.maxLate.Seconds()*1000)
	return nil
}
