package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"time"

	"lash"
)

// tally counts what was attempted and what failed: one unit per operation
// sent to the service and one per verification made of its answers.
type tally struct {
	attempted int
	failed    int
	notes     []string
}

// check records one attempted unit and whether it held.
func (t *tally) check(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.notes) < 20 {
		t.notes = append(t.notes, err.Error())
	}
	return false
}

// run is the state of one benchmark run of one workload.
type run struct {
	spec    spec
	seed    int64
	window  time.Duration // how long the measured phase lasts
	corpus  *corpus
	oracle  *oracle
	sut     *sut
	tally   tally
	metrics readings

	// Kept by the set-up so the first checks have something to look at.
	warm []mined
}

const (
	// setupRounds is how many times a run sets the workload up from
	// nothing; setup_s is their median and the last one is measured on.
	setupRounds = 3
	// rssOps is the measured op after which peak_rss_mb is read. The
	// service keeps every result, state and version it ever made, so peak
	// memory grows with the ops completed; reading it at a fixed op count
	// keeps a faster commit from looking like a fatter one.
	rssOps = 5
	// liveDB and serveDB name the databases of the last two workloads.
	liveDB  = "live"
	serveDB = "serve"
)

// setUp builds the workload's inputs and brings the service to the state
// the measured phase starts from: generate the corpus, encode it, start the
// service, and send the workload's set-up requests (for the cold workloads
// one warm-up op; for the other two register, mine once and fetch the first
// page, which waits for the serving index).
func (r *run) setUp() error {
	c, err := generate(r.spec, r.seed)
	if err != nil {
		return err
	}
	r.corpus = c
	if r.sut, err = startSUT(); err != nil {
		return err
	}
	cl := r.sut.newClient()
	defer cl.close()
	r.warm = r.warm[:0]
	switch r.spec.shape {
	case shapeCold:
		_, ms, err := r.coldOp(cl, "warm")
		r.warm = ms
		return err
	case shapeLive:
		return r.firstMine(cl, liveDB)
	default:
		return r.firstMine(cl, serveDB)
	}
}

// firstMine registers the corpus under name, mines it and reads the top of
// the result.
func (r *run) firstMine(cl *client, name string) error {
	if _, err := cl.register(name, r.corpus.ldb); err != nil {
		return err
	}
	m, err := cl.mine(name, r.spec.options)
	if err != nil {
		return err
	}
	r.warm = append(r.warm, m)
	status, reply, _, err := cl.get(topPath(name))
	return expect(200, status, reply, err)
}

// coldOp is one cold op: for each budget of the workload, upload the corpus
// under a fresh name and mine it. A fresh name defeats both the result cache
// and the per-database state store, so every mine starts from nothing. The
// op's latency is the sum of its exchanges.
func (r *run) coldOp(cl *client, tag string) (time.Duration, []mined, error) {
	var total time.Duration
	var ms []mined
	for i, budget := range r.spec.budgets {
		name := fmt.Sprintf("%s-%d", tag, i)
		d, err := cl.register(name, r.corpus.ldb)
		if err != nil {
			return 0, nil, err
		}
		opt := r.spec.options
		opt.MemoryBudget = budget
		m, err := cl.mine(name, opt)
		if err != nil {
			return 0, nil, err
		}
		total += d + m.elapsed
		ms = append(ms, m)
	}
	return total, ms, nil
}

// checkCold verifies one cold op's mines against the oracle: every result
// equals the direct library mine, and a budgeted mine really spilled (so
// budgeted ≡ unbudgeted is checked on the path it is meant to cover).
func (r *run) checkCold(ms []mined) {
	for i, m := range ms {
		r.checkMine(m, r.spec.budgets[i])
	}
}

// checkMine verifies one cold mine made under the given memory budget.
func (r *run) checkMine(m mined, budget int64) {
	var err error
	switch got := m.digest(); {
	case got != r.oracle.digest:
		err = fmt.Errorf("job %s: mined %v, library says %v", m.job.ID, got, r.oracle.digest)
	case m.job.Cached:
		err = fmt.Errorf("job %s was answered from the cache: not a cold mine", m.job.ID)
	case budget > 0 && m.job.Result.SpillBytes == 0:
		err = fmt.Errorf("job %s: memory_budget %d did not spill", m.job.ID, budget)
	}
	r.tally.check(err)
}

// prepare computes what the checks compare against — the direct library
// mine of the corpus and the brute-force cross-check of the miner — and
// verifies what the set-up mined.
func (r *run) prepare() error {
	db, err := lash.ReadBinaryDatabase(bytes.NewReader(r.corpus.ldb))
	if err != nil {
		return err
	}
	if r.oracle, err = mineOracle(db, libraryOptions(r.spec.options), r.corpus.db.Forest); err != nil {
		return err
	}
	if r.oracle.digest.count == 0 {
		return fmt.Errorf("workload %s mines no patterns", r.spec.name)
	}
	r.tally.check(checkBruteForce(r.corpus, r.spec, r.seed))
	r.checkCold(r.warm)
	return nil
}

// measureCold repeats cold ops on one connection until the window closes.
func (r *run) measureCold() error {
	cl := r.sut.newClient()
	defer cl.close()
	var lat []float64
	for end := time.Now().Add(r.window); time.Now().Before(end); {
		d, ms, err := r.coldOp(cl, fmt.Sprintf("cold%d", len(lat)))
		if !r.tally.check(err) {
			continue
		}
		r.checkCold(ms)
		lat = append(lat, d.Seconds())
		if len(lat) == rssOps {
			r.metrics.set("peak_rss_mb", peakRSSMB())
		}
	}
	return r.opMetrics(lat)
}

// opMetrics reports the latency and throughput of a single-connection
// workload. Throughput counts only time spent inside ops: what the harness
// does between them (decoding and checking 15 MB replies) is not the
// service's time.
func (r *run) opMetrics(lat []float64) error {
	if len(lat) == 0 {
		return fmt.Errorf("no op completed: %v", r.tally.notes)
	}
	ms := make([]float64, len(lat))
	busy := 0.0
	for i, s := range lat {
		ms[i] = s * 1000
		busy += s
	}
	r.metrics.median("op_p50_ms", ms)
	r.metrics.set("ops_per_s", float64(len(lat))/busy)
	if _, ok := r.metrics["peak_rss_mb"]; !ok {
		r.metrics.set("peak_rss_mb", peakRSSMB())
	}
	return nil
}

// Append shapes of live-append.
const (
	zipfSeqs    = 10
	topicalSeqs = 1000
)

// refresh is one live cycle: append sequences, re-mine (the service resumes
// from the previous version's state on its own) and fetch the top of the new
// version. It returns the cycle's latency — append sent to top-100 received
// — and its three exchanges.
func (r *run) refresh(cl *client, seqs []string) (refreshed, error) {
	version, d, err := cl.appendSeqs(liveDB, seqs)
	if err != nil {
		return refreshed{}, err
	}
	m, err := cl.mine(liveDB, r.spec.options)
	if err != nil {
		return refreshed{}, err
	}
	status, reply, dq, err := cl.get(topPath(liveDB))
	if err := expect(200, status, reply, err); err != nil {
		return refreshed{}, err
	}
	if m.job.Result.CorpusVersion != version {
		return refreshed{}, fmt.Errorf("mined corpus version %d after appending version %d", m.job.Result.CorpusVersion, version)
	}
	return refreshed{latency: d + m.elapsed + dq, appendTime: d, mine: m, top: slices.Clone(reply)}, nil
}

// refreshed is the outcome of one live cycle.
type refreshed struct {
	latency    time.Duration
	appendTime time.Duration
	mine       mined
	top        []byte
}

// reuse is the share of partitions the delta mine spliced from the previous
// version's state instead of mining again.
func (f refreshed) reuse() float64 {
	res := f.mine.job.Result
	return float64(res.DeltaPartitionsReused) / float64(max(1, res.DeltaPartitionsDirty+res.DeltaPartitionsReused))
}

// liveState tracks the corpus the harness believes the service holds, so the
// last version can be mined cold and compared.
type liveState struct {
	rng    *rand.Rand
	cycle  int
	mirror *lash.Database
	last   refreshed
}

func (r *run) newLiveState() (*liveState, error) {
	db, err := lash.ReadBinaryDatabase(bytes.NewReader(r.corpus.ldb))
	if err != nil {
		return nil, err
	}
	return &liveState{rng: rand.New(rand.NewSource(r.seed)), mirror: db}, nil
}

// step runs one refresh cycle of the given shape and mirrors the append.
func (r *run) step(cl *client, ls *liveState, topical bool) (refreshed, error) {
	var seqs []string
	if topical {
		seqs = topicalAppend(ls.cycle, topicalSeqs)
	} else {
		seqs = r.corpus.zipfAppend(ls.rng, zipfSeqs)
	}
	ls.cycle++
	f, err := r.refresh(cl, seqs)
	if err != nil {
		return refreshed{}, err
	}
	b := lash.NewDatabaseBuilder()
	for _, s := range seqs {
		b.AddSequence(strings.Fields(s)...)
	}
	frag, err := b.Build()
	if err != nil {
		return refreshed{}, err
	}
	if ls.mirror, err = ls.mirror.Append(frag); err != nil {
		return refreshed{}, err
	}
	ls.last = f
	return f, nil
}

// verifyLast mines the mirrored last version cold and checks that the
// service's delta-mined result and its top-100 equal it.
func (r *run) verifyLast(ls *liveState) {
	cold, err := mineOracle(ls.mirror, libraryOptions(r.spec.options), nil)
	if !r.tally.check(err) {
		return
	}
	if got := ls.last.mine.digest(); got != cold.digest {
		err = fmt.Errorf("version %d: delta mine gave %v, cold mine %v", ls.mirror.Version(), got, cold.digest)
	}
	r.tally.check(err)
	top := &queryCase{kind: kindTop, path: "top of the last version"}
	r.tally.check(cold.checkPage(top, ls.last.top))
}

// measureLive alternates the two append shapes; one op is a zipf cycle plus
// a topical cycle.
func (r *run) measureLive() error {
	cl := r.sut.newClient()
	defer cl.close()
	ls, err := r.newLiveState()
	if err != nil {
		return err
	}
	var lat []float64
	for end := time.Now().Add(r.window); time.Now().Before(end); {
		zipf, err := r.step(cl, ls, false)
		if !r.tally.check(err) {
			return fmt.Errorf("live cycle failed, the mirror is out of step: %w", err)
		}
		topical, err := r.step(cl, ls, true)
		if !r.tally.check(err) {
			return fmt.Errorf("live cycle failed, the mirror is out of step: %w", err)
		}
		// The topical shape is in the workload because it engages the delta
		// path; a run where it reuses nothing measures something else.
		if topical.reuse() == 0 {
			r.tally.check(fmt.Errorf("topical append reused no partitions"))
		}
		lat = append(lat, (zipf.latency + topical.latency).Seconds())
		if len(lat) == rssOps {
			r.metrics.set("peak_rss_mb", peakRSSMB())
		}
	}
	r.verifyLast(ls)
	return r.opMetrics(lat)
}

// measureServe is the steady phase of serve-query: a closed loop of the
// query mix from nproc connections for the whole window.
//
// The five kinds cost 35 µs to 900 µs each, and the plain median of the mix
// lands on the boundary between two of them, where it jumps from one kind's
// latency to the other's between runs. The reported latency is therefore
// the median within each kind, averaged over the kinds by their share of the
// requests: what a caller typically waits, kind by kind.
func (r *run) measureServe() error {
	pool := newQueryPool(patternsPath(serveDB, 0), r.oracle, r.spec.pageSupport(), r.seed)
	qs := closedLoop(r.sut, pool, runtime.NumCPU(), r.seed, r.window)
	qs.verify(&r.tally, r.oracle)
	total := qs.n
	if total == 0 {
		return fmt.Errorf("no query completed")
	}
	typical := 0.0
	for _, lat := range qs.latencies {
		typical += quantile(sorted(lat), 0.5) * 1000 * float64(len(lat)) / float64(total)
	}
	r.metrics["op_p50_ms"] = reading{value: typical, n: total}
	r.metrics.set("ops_per_s", float64(total)/qs.wall.Seconds())
	r.metrics.set("peak_rss_mb", peakRSSMB())
	return nil
}

// endToEndRun is the untraced pass: it reports the end-to-end metrics.
func (r *run) endToEndRun() error {
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if r.sut != nil {
			r.sut.stop()
			r.sut = nil
			runtime.GC()
		}
		start := time.Now()
		if err := r.setUp(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.metrics.median("setup_s", setups)
	if err := r.prepare(); err != nil {
		return err
	}
	switch r.spec.shape {
	case shapeCold:
		return r.measureCold()
	case shapeLive:
		return r.measureLive()
	}
	return r.measureServe()
}
