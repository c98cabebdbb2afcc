package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lash/internal/obs"
)

// Entry is one aggregated intermediate record: a byte key and the summed
// weight of every emit of that (group, key). Key aliases the substrate's
// internal arena and is only valid during the Reduce call it is handed to.
type Entry struct {
	Key    []byte
	Weight int64
}

// AggJob is a byte-key weighted-aggregation job — the shape of every heavy
// LASH shuffle: map emits (group, key, weight) triples, equal (group, key)
// pairs have their weights summed (map-side in flat per-task hash tables,
// then again in the per-partition merge), and Reduce receives each group
// with its aggregated entries sorted by key bytes.
//
// The group is the unit of reduction (the pivot item for the partition+mine
// job); the key is an opaque encoded record (a rewritten sequence). Keys
// are copied into an internal arena on first sight, so callers may reuse
// one scratch buffer across emits — the emit path performs no per-record
// heap allocation.
type AggJob[I any, R any] struct {
	Name string

	// Map processes one input record. Emit may be called any number of
	// times; key is copied before Map regains control.
	Map func(item I, emit func(group uint32, key []byte, weight int64))

	// Hash places a (group, key) pair on a reduce partition. Every emit of
	// the same (group, key) must hash identically; emits of the same group
	// that should reach the same Reduce call must too (hash the group only,
	// as the mining job does). Optional: the default hashes group and key
	// together, which spreads group-less jobs (distinct keys are their own
	// reduction unit) evenly.
	Hash func(group uint32, key []byte) uint32

	// Size returns the encoded size of one aggregated record for the
	// MAP_OUTPUT_BYTES counter. Optional: the default is
	// keyLen + uvarint(weight).
	Size func(group uint32, keyLen int, weight int64) int

	// Reduce processes one group with its aggregated entries, sorted by key
	// bytes. Entries (and their Key slices) are only valid during the call.
	// Reduce runs streamingly: a partition's groups are reduced as soon as
	// the partition's last map input has been merged, concurrently with
	// other partitions' merges. Returning an error fails the whole run.
	Reduce func(group uint32, entries []Entry, emit func(R)) error

	// ReduceRetryable declares Reduce safe to re-execute for a partition
	// whose earlier attempt failed transiently: no side effects beyond
	// emit (emitted output is attempt-scoped and discarded on failure) —
	// in particular no streaming delivery to a consumer and no shared
	// accumulators that a re-run would double-count. Config.Retry applies
	// to reduce tasks only when set; map tasks are always retryable (the
	// substrate owns their output end to end).
	ReduceRetryable bool
}

func (job AggJob[I, R]) hash(group uint32, key []byte) uint32 {
	if job.Hash != nil {
		return job.Hash(group, key)
	}
	return HashUint32(group) ^ HashBytes(key)
}

func (job AggJob[I, R]) size(group uint32, keyLen int, weight int64) int {
	if job.Size != nil {
		return job.Size(group, keyLen, weight)
	}
	return keyLen + uvarintLen(uint64(weight))
}

// tableShuffleSize measures one table's aggregated entries for the
// MAP_OUTPUT_BYTES counter (post-aggregation output — what actually
// ships).
func tableShuffleSize[I any, R any](job AggJob[I, R], t *byteTable) int64 {
	var size int64
	for i := range t.entries {
		if e := &t.entries[i]; e.hash != 0 {
			size += int64(job.size(e.group, int(e.klen), e.weight))
		}
	}
	return size
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// aggEntry is one slot of a byteTable. hash == 0 marks an empty slot (real
// hashes are forced non-zero).
type aggEntry struct {
	hash   uint64
	group  uint32
	klen   uint32
	off    uint64 // key bytes at arena[off : off+klen]
	weight int64
}

// byteTable is an open-addressing hash table from (group, key bytes) to an
// int64 weight. Key bytes live in a single append-only arena, so inserting
// n distinct keys costs O(log n) slice growths instead of n map/string
// allocations — this replaces the per-emit singleton map[string]int64 of
// the old partition+mine hot path.
type byteTable struct {
	entries []aggEntry // power-of-two length
	arena   []byte
	n       int
}

func hashGK(group uint32, key []byte) uint64 {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(group >> (8 * i)))
		h *= 1099511628211
	}
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	if h == 0 {
		h = 1 // 0 marks empty slots
	}
	return h
}

func (t *byteTable) key(e *aggEntry) []byte {
	return t.arena[e.off : e.off+uint64(e.klen)]
}

// add sums weight into the (group, key) entry, inserting it (copying key
// into the arena) on first sight.
func (t *byteTable) add(group uint32, key []byte, weight int64) {
	if t.n >= len(t.entries)-len(t.entries)/4 { // load factor 3/4
		t.grow()
	}
	h := hashGK(group, key)
	mask := uint64(len(t.entries) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := &t.entries[i]
		if e.hash == 0 {
			off := uint64(len(t.arena))
			t.arena = append(t.arena, key...)
			*e = aggEntry{hash: h, group: group, klen: uint32(len(key)), off: off, weight: weight}
			t.n++
			return
		}
		if e.hash == h && e.group == group && e.klen == uint32(len(key)) && bytes.Equal(t.key(e), key) {
			e.weight += weight
			return
		}
	}
}

// grow doubles the slot array, rehashing entries (the arena is untouched —
// offsets stay valid).
func (t *byteTable) grow() {
	newCap := 16
	if len(t.entries) > 0 {
		newCap = 2 * len(t.entries)
	}
	old := t.entries
	t.entries = make([]aggEntry, newCap)
	mask := uint64(newCap - 1)
	for i := range old {
		e := old[i]
		if e.hash == 0 {
			continue
		}
		for j := e.hash & mask; ; j = (j + 1) & mask {
			if t.entries[j].hash == 0 {
				t.entries[j] = e
				break
			}
		}
	}
}

// merge folds src into t.
func (t *byteTable) merge(src *byteTable) {
	for i := range src.entries {
		e := &src.entries[i]
		if e.hash != 0 {
			t.add(e.group, src.key(e), e.weight)
		}
	}
}

// reset clears the table for reuse, keeping capacity.
func (t *byteTable) reset() {
	for i := range t.entries {
		t.entries[i] = aggEntry{}
	}
	t.arena = t.arena[:0]
	t.n = 0
}

// aggPart is the reduce-side state of one partition.
type aggPart[R any] struct {
	mu      sync.Mutex
	merged  *byteTable
	contrib int // map tasks merged so far; == mapTasks ⇒ ready
	out     []R
}

// RunAgg executes a byte-key weighted-aggregation job over the input. The
// reduce outputs are ordered by reduce partition, then by ascending group,
// then by Reduce's emit order — deterministic for a fixed Config regardless
// of Workers. Panics in any task and errors returned by Reduce cancel the
// run and are returned annotated with the job name and task/partition.
// Cancelling ctx aborts the run cooperatively (between tasks, between
// reduce groups, and at every map emit) and returns ctx.Err() wrapped with
// the job name; a context that is already done returns before any task
// runs.
func RunAgg[I any, R any](ctx context.Context, cfg Config, input []I, job AggJob[I, R]) ([]R, *Stats, error) {
	cfg = cfg.withDefaults()
	stats := &Stats{}
	stats.MapInputRecords = int64(len(input))
	if ctx.Err() != nil {
		return nil, stats, wrapCtxErr(ctx, job.Name, "start")
	}
	errs := &errOnce{}
	stopWatch := watchContext(ctx, errs)
	defer stopWatch()

	mapTasks := cfg.MapTasks
	if mapTasks > len(input) {
		mapTasks = len(input)
	}
	if mapTasks < 1 {
		mapTasks = 1
	}
	reduceTasks := cfg.ReduceTasks

	// rc is the run's single source of truth for live counters: progress
	// snapshots, the final Stats, and (through obsHooks) the process-wide
	// pipeline metrics are all derived reads of it.
	rc := &obs.RunCounters{}

	// Budgeted runs route the shuffle through sorted on-disk runs (see
	// spill.go). The spill directory lives for exactly this call: the
	// deferred cleanup runs after the worker pool has drained, so
	// cancellation and errors leave no orphan temp files behind.
	var spill *spillState
	if cfg.MemoryBudget > 0 {
		var err error
		if spill, err = newSpillState(cfg.SpillDir, reduceTasks, rc); err != nil {
			return nil, stats, fmt.Errorf("mapreduce: job %q: %w", job.Name, err)
		}
		spill.faults = cfg.Faults
		defer spill.cleanup()
	}

	parts := make([]aggPart[R], reduceTasks)
	ready := make(chan int, reduceTasks)
	tablePool := sync.Pool{New: func() any { return &byteTable{} }}

	var redKeys, redRecords atomic.Int64
	mapTimes := make([]time.Duration, mapTasks)
	redTimes := make([]time.Duration, reduceTasks)

	// Per-task shuffle tallies for the spill path (nil on in-memory runs):
	// flushes accumulate here instead of charging the run counters directly,
	// so a failed attempt's partial accounting dies with it and a retried
	// task charges the counters exactly once — same totals as the in-memory
	// path's task-end accounting. Indexed by map task; one task's attempts
	// are sequential, so no locking. (The spill counters inside writeRun
	// stay cumulative across attempts on purpose: they report physical I/O,
	// and a rewritten run really was written twice.)
	var taskShufRecs, taskShufBytes []int64
	if spill != nil {
		taskShufRecs = make([]int64, mapTasks)
		taskShufBytes = make([]int64, mapTasks)
	}

	start := time.Now()
	oh := newObsHooks(cfg.Obs, start)
	defer func() { oh.finish(job.Name, stats.Wall) }()
	if spill != nil {
		spill.pmRuns, spill.pmBytes, spill.pmRecords = oh.spillRuns, oh.spillBytes, oh.spillRecords
		spill.pmFaults, spill.pmCleanupErrs = oh.faultsInjected, oh.spillCleanupErr
	}
	var mergesDone atomic.Int64
	var mapWall, shufWall time.Duration // written once by the last task of each kind

	report := func(phase string) {
		if cfg.Progress == nil {
			return
		}
		cfg.Progress(Progress{
			Job:             job.Name,
			Phase:           phase,
			MapTasksDone:    int(rc.MapTasksDone.Load()),
			MapTasks:        mapTasks,
			ReduceTasksDone: int(rc.ReduceTasksDone.Load()),
			ReduceTasks:     reduceTasks,
			ShuffleRecords:  rc.ShuffleRecords.Load(),
			ShuffleBytes:    rc.ShuffleBytes.Load(),
			SpillRuns:       rc.SpillRuns.Load(),
			SpillBytes:      rc.SpillBytes.Load(),
			TaskRetries:     rc.TaskRetries.Load(),
			FaultsInjected:  rc.FaultsInjected.Load(),
		})
	}
	defer report("done")

	// Reduce tasks re-execute on transient failures only when the job
	// declares Reduce re-runnable; otherwise the zero policy caps them at
	// one attempt. Each attempt rebuilds the partition's output and group
	// count from scratch, committing them only on success — a retried
	// partition is indistinguishable from a fault-free one.
	reducePol := cfg.Retry
	if !job.ReduceRetryable {
		reducePol = RetryPolicy{}
	}
	reduceOne := guard(ctx, errs, reducePol, rc, oh.taskRetries, job.Name, "reduce partition", func(p, attempt int) error {
		if err := cfg.Faults.Hit("mapreduce.reduce.task"); err != nil {
			rc.FaultsInjected.Add(1)
			oh.faultsInjected.Inc()
			return err
		}
		st := &parts[p]
		st.out = st.out[:0] // attempt-scoped: discard a failed attempt's output
		var keys int64
		aborted := false
		if spill != nil {
			// Budgeted path: k-way merge the partition's sorted runs off
			// disk. Groups arrive in ascending (group, key) order with
			// weights re-aggregated across runs — the same delivery the
			// in-memory sort below produces.
			sp := &spill.parts[p]
			if len(sp.runs) > 0 {
				begin := time.Now()
				defer func() {
					redTimes[p] = time.Since(begin)
					oh.mergeSeconds.Observe(redTimes[p].Seconds())
					oh.taskSpan("reduce-partition", job.Name, "reduce", p, begin)
				}()
				emit := func(r R) {
					checkAbort(errs)
					st.out = append(st.out, r)
				}
				err := spill.mergeRuns(p,
					func() bool { return errs.canceled.Load() },
					func(group uint32, entries []Entry) error {
						keys++
						return job.Reduce(group, entries, emit)
					})
				if err != nil {
					return err
				}
				// The partition's spill file is fully consumed; release its
				// file descriptor now instead of at run end.
				sp.mu.Lock()
				if sp.f != nil {
					sp.f.Close()
					sp.f = nil
				}
				sp.mu.Unlock()
			}
		} else if t := st.merged; t != nil && t.n > 0 {
			begin := time.Now()
			defer func() {
				redTimes[p] = time.Since(begin)
				oh.taskSpan("reduce-partition", job.Name, "reduce", p, begin)
			}()

			// Deterministic group order: entries sorted by (group, key bytes).
			idx := t.sortedIndex()

			emit := func(r R) {
				checkAbort(errs)
				st.out = append(st.out, r)
			}
			entries := make([]Entry, 0, len(idx))
			for lo := 0; lo < len(idx); {
				// Cancellation check between groups: one reduce partition can
				// hold many groups, each an independent Reduce call.
				if errs.canceled.Load() {
					aborted = true
					break
				}
				group := t.entries[idx[lo]].group
				hi := lo
				entries = entries[:0]
				for ; hi < len(idx) && t.entries[idx[hi]].group == group; hi++ {
					e := &t.entries[idx[hi]]
					entries = append(entries, Entry{Key: t.key(e), Weight: e.weight})
				}
				keys++
				if err := job.Reduce(group, entries, emit); err != nil {
					return err
				}
				lo = hi
			}
		}
		// Commit region: the attempt succeeded (or was aborted by
		// cancellation, whose partial counts die with the run).
		if !aborted {
			redKeys.Add(keys)
			redRecords.Add(int64(len(st.out)))
		}
		rc.ReduceTasksDone.Add(1)
		report("reduce")
		return nil
	})

	// accountTable charges one table to the shuffle counters.
	accountTable := func(t *byteTable) {
		size := tableShuffleSize(job, t)
		rc.ShuffleRecords.Add(int64(t.n))
		rc.ShuffleBytes.Add(size)
		oh.shufRecords.Add(int64(t.n))
		oh.shufBytes.Add(size)
	}

	// --- map + map-side aggregation + merge ------------------------------
	// The map body is organized so every failure-capable step (the fault
	// hook, user Map code, spill writes) precedes the commit region
	// (counters, contrib/ready handoff). A retried attempt therefore only
	// has to drop its own spill runs and rebuild its tables; nothing
	// partially-committed exists to undo.
	mapOne := guard(ctx, errs, cfg.Retry, rc, oh.taskRetries, job.Name, "map", func(task, attempt int) error {
		if err := cfg.Faults.Hit("mapreduce.map.task"); err != nil {
			rc.FaultsInjected.Add(1)
			oh.faultsInjected.Inc()
			return err
		}
		if spill != nil && attempt > 0 {
			// Drop the failed attempt's committed runs before rewriting
			// them — a partition must never merge two copies of one
			// task's output.
			spill.dropTask(task)
		}
		lo := len(input) * task / mapTasks
		hi := len(input) * (task + 1) / mapTasks
		begin := time.Now()
		tables := make([]*byteTable, reduceTasks)

		// Budgeted runs bound this task's tables by its share of the budget
		// and flush them all as sorted runs when it is exceeded. Spilled
		// tables are dropped, not pooled: a pooled table keeps its capacity,
		// which would charge the next task's budget before it aggregated a
		// single record.
		var taskMem, perTask int64
		if spill != nil {
			perTask = cfg.MemoryBudget / int64(cfg.Workers)
			if perTask < 1 {
				perTask = 1
			}
		}
		if spill != nil {
			taskShufRecs[task], taskShufBytes[task] = 0, 0 // attempt-scoped
		}
		spillTables := func() error {
			flushed := false
			for p, t := range tables {
				if t == nil {
					continue
				}
				if t.n > 0 {
					flushed = true
					taskShufRecs[task] += int64(t.n)
					taskShufBytes[task] += tableShuffleSize(job, t)
					if err := spill.writeRun(p, task, t); err != nil {
						return err
					}
				}
				tables[p] = nil
			}
			if flushed {
				rc.SpillFlushes.Add(1)
				oh.spillFlushes.Inc()
			}
			taskMem = 0
			return nil
		}
		emit := func(group uint32, key []byte, weight int64) {
			checkAbort(errs)
			p := int(job.hash(group, key) % uint32(reduceTasks))
			t := tables[p]
			if spill == nil {
				if t == nil {
					t = tablePool.Get().(*byteTable)
					tables[p] = t
				}
				t.add(group, key, weight)
				return
			}
			if t == nil {
				t = &byteTable{}
				tables[p] = t
			}
			before := t.mem()
			t.add(group, key, weight)
			if taskMem += t.mem() - before; taskMem > perTask {
				if err := spillTables(); err != nil {
					// Emit cannot return an error; unwind the attempt with
					// the failure so the retry loop can classify it.
					panic(attemptFail{err})
				}
			}
		}
		for _, rec := range input[lo:hi] {
			checkAbort(errs)
			job.Map(rec, emit)
		}

		if spill != nil {
			// Flush the tables that stayed under budget as final runs (the
			// reduce-side merge is uniform over runs either way) BEFORE the
			// commit region below: this final flush is the task's last
			// failure-capable step, and a failed one must leave the task
			// uncounted so its retry counts it exactly once.
			if err := spillTables(); err != nil {
				return err
			}
			rc.ShuffleRecords.Add(taskShufRecs[task])
			rc.ShuffleBytes.Add(taskShufBytes[task])
			oh.shufRecords.Add(taskShufRecs[task])
			oh.shufBytes.Add(taskShufBytes[task])
			mapTimes[task] = time.Since(begin)
			oh.taskSpan("map-task", job.Name, "map", task, begin)
			if rc.MapTasksDone.Add(1) == int64(mapTasks) {
				mapWall = time.Since(start)
			}
			for p := range parts {
				st := &parts[p]
				st.mu.Lock()
				st.contrib++
				isLast := st.contrib == mapTasks
				st.mu.Unlock()
				if isLast && !errs.canceled.Load() {
					ready <- p
				}
			}
			if mergesDone.Add(1) == int64(mapTasks) {
				shufWall = time.Since(start)
			}
			report("map")
			return nil
		}

		// In-memory commit region: nothing below can fail.
		mapTimes[task] = time.Since(begin)
		oh.taskSpan("map-task", job.Name, "map", task, begin)
		if rc.MapTasksDone.Add(1) == int64(mapTasks) {
			mapWall = time.Since(start)
		}

		// Account post-aggregation output, then merge into the partitions.
		// Merging happens as each map task retires — the shuffle overlaps
		// the map phase instead of waiting behind it.
		for _, t := range tables {
			if t != nil {
				accountTable(t)
			}
		}

		for p := range tables {
			t := tables[p]
			st := &parts[p]
			st.mu.Lock()
			if t != nil {
				if st.merged == nil {
					st.merged = t // first contributor's table is adopted wholesale
				} else {
					st.merged.merge(t)
					t.reset()
					tablePool.Put(t)
				}
			}
			st.contrib++
			isLast := st.contrib == mapTasks
			st.mu.Unlock()
			if isLast && !errs.canceled.Load() {
				ready <- p // hand the completed partition to a worker now
			}
		}
		if mergesDone.Add(1) == int64(mapTasks) {
			shufWall = time.Since(start)
		}
		report("map")
		return nil
	})

	// One pool of cfg.Workers goroutines serves both phases, so real
	// concurrency never exceeds the configured bound (experiments.Simulate
	// schedules the per-task durations onto a simulated cluster, so they
	// must not be inflated by oversubscription). Ready partitions are
	// drained in preference to starting new map tasks — the streaming
	// overlap — and workers block on `ready` once the map tasks are
	// exhausted. The worker that retires the last map task (whether it ran
	// or was skipped by cancellation) closes the channel.
	var nextMap, mapsRetired atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case p, ok := <-ready:
					if !ok {
						return
					}
					reduceOne(p)
					continue
				default:
				}
				if task := int(nextMap.Add(1)) - 1; task < mapTasks {
					mapOne(task)
					// Count retirements (run, skipped, or panicked alike):
					// the worker that retires the last map task closes the
					// channel — all merges, and therefore all sends, have
					// happened by then.
					if mapsRetired.Add(1) == int64(mapTasks) {
						close(ready)
					}
					continue
				}
				p, ok := <-ready
				if !ok {
					return
				}
				reduceOne(p)
			}
		}()
	}
	wg.Wait()

	stats.Wall.Map = mapWall
	if shufWall > mapWall {
		stats.Wall.Shuffle = shufWall - mapWall
	}
	stats.Wall.Reduce = time.Since(start) - stats.Wall.Map - stats.Wall.Shuffle
	stats.MapTaskTimes = mapTimes
	stats.ReduceTaskTimes = redTimes
	stats.MapOutputRecords = rc.ShuffleRecords.Load()
	stats.MapOutputBytes = rc.ShuffleBytes.Load()
	stats.ReduceInputKeys = redKeys.Load()
	stats.ReduceOutputRecords = redRecords.Load()
	stats.SpillRuns = rc.SpillRuns.Load()
	stats.SpillBytes = rc.SpillBytes.Load()
	stats.SpillRecords = rc.SpillRecords.Load()
	stats.TaskRetries = rc.TaskRetries.Load()
	stats.FaultsInjected = rc.FaultsInjected.Load()
	if err := runErr(ctx, errs, job.Name, "run"); err != nil {
		return nil, stats, err
	}

	var flat []R
	for p := range parts {
		flat = append(flat, parts[p].out...)
	}
	return flat, stats, nil
}
