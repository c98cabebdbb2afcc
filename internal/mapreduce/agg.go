package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"math"
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
	// Reduce is retryable by contract: a partition whose attempt failed
	// transiently is merged and reduced again under Config.Retry, so Reduce
	// must have no effect beyond emit (a failed attempt's records are
	// discarded).
	Reduce func(group uint32, entries []Entry, emit func(R)) error
}

func (job AggJob[I, R]) hash(group uint32, key []byte) uint32 {
	if job.Hash != nil {
		return job.Hash(group, key)
	}
	return HashUint32(group) ^ HashBytes(key)
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

// reset clears the table for reuse, keeping capacity.
func (t *byteTable) reset() {
	clear(t.entries)
	t.arena = t.arena[:0]
	t.n = 0
}

// aggEntrySize approximates the in-memory footprint of one byteTable slot
// for budget accounting (hash + group + klen + off + weight, padded).
const aggEntrySize = 32

// mem estimates the table's memory footprint: the slot array plus the key
// arena's capacity.
func (t *byteTable) mem() int64 {
	return int64(len(t.entries))*aggEntrySize + int64(cap(t.arena))
}

// aggPart is the reduce-side state of one partition; its runs live in the
// shuffle.
type aggPart[R any] struct {
	contrib atomic.Int64 // map tasks retired so far; == mapTasks ⇒ ready
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

	// rc is the run's single record of its counters: progress snapshots and
	// the final Stats read it, and on the way out — after the spill cleanup,
	// whose failures it counts, so this defer comes first — its totals are
	// added to the process-wide pipeline metrics, on every exit path.
	rc := &obs.RunCounters{}
	defer cfg.Obs.PipelineMetricsOf().AddRun(rc)

	// Config.MemoryBudget is consulted here and nowhere else. With a budget
	// the runs land in spill files instead of memory, a task also flushes
	// whenever its tables outgrow its share (without one, only when it
	// retires), and flushed tables are not recycled. The spill directory
	// lives for exactly this call: the deferred cleanup runs after the
	// worker pool has drained, so cancellation and errors leave no orphan
	// temp files behind.
	sh := newShuffle(reduceTasks, mapTasks, rc)
	share, recycle := int64(math.MaxInt64), true
	if cfg.MemoryBudget > 0 {
		if err := sh.openDisk(cfg.SpillDir, cfg.Faults); err != nil {
			return nil, stats, fmt.Errorf("mapreduce: job %q: %w", job.Name, err)
		}
		defer sh.cleanup()
		share, recycle = max(cfg.MemoryBudget/int64(cfg.Workers), 1), false
	}

	parts := make([]aggPart[R], reduceTasks)
	ready := make(chan int, reduceTasks)
	tablePool := sync.Pool{New: func() any { return &byteTable{} }}

	var redKeys, redRecords atomic.Int64
	mapWork := make([]int64, mapTasks)
	redWork := make([]int64, reduceTasks)

	start := time.Now()
	oh := newObsHooks(cfg.Obs, start)
	defer func() { oh.finish(job.Name, stats.Wall) }()
	var mapWall, shufWall time.Duration // watermarks, each written once: last map task done, last map task retired

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

	// Each reduce attempt merges the partition's runs again and rebuilds its
	// output and group count from scratch, committing them only on success
	// — a retried partition is indistinguishable from a fault-free one.
	reduceOne := guard(ctx, errs, cfg.Retry, rc, job.Name, "reduce partition", func(p, attempt int) error {
		if err := cfg.Faults.Hit("mapreduce.reduce.task"); err != nil {
			rc.FaultsInjected.Add(1)
			return err
		}
		st := &parts[p]
		st.out = st.out[:0] // attempt-scoped: discard a failed attempt's output
		var keys, merged int64
		if len(sh.parts[p].runs) > 0 {
			begin := time.Now()
			defer oh.taskSpan("reduce-partition", job.Name, "reduce", p, begin, sh.mergeSeconds(cfg.Obs))
			emit := func(r R) {
				checkAbort(errs)
				st.out = append(st.out, r)
			}
			err := sh.mergeRuns(p, errs.canceled.Load, func(group uint32, entries []Entry) error {
				keys++
				merged += int64(len(entries))
				return job.Reduce(group, entries, emit)
			})
			if err != nil {
				return err
			}
		}
		// Commit region: the attempt succeeded (or was cut short by
		// cancellation, whose partial counts die with the run).
		redKeys.Add(keys)
		redRecords.Add(int64(len(st.out)))
		redWork[p] = merged
		rc.ReduceTasksDone.Add(1)
		report("reduce")
		return nil
	})

	// --- map + map-side aggregation + flush ------------------------------
	// Every failure-capable step (the fault hook, user Map code, flushing
	// runs) precedes the commit region (counters, contrib/ready handoff). A
	// retried attempt therefore only has to drop its own runs and rebuild
	// its tables; nothing partially-committed exists to undo.
	mapOne := guard(ctx, errs, cfg.Retry, rc, job.Name, "map", func(task, attempt int) error {
		if err := cfg.Faults.Hit("mapreduce.map.task"); err != nil {
			rc.FaultsInjected.Add(1)
			return err
		}
		if attempt > 0 {
			// Drop the failed attempt's committed runs before rewriting
			// them — a partition must never merge two copies of one task's
			// output.
			sh.dropTask(task)
		}
		lo := len(input) * task / mapTasks
		hi := len(input) * (task + 1) / mapTasks
		begin := time.Now()
		tables := make([]*byteTable, reduceTasks)

		// Attempt-scoped: the shuffle tally is charged to the run counters
		// only in the commit region, so a failed attempt's accounting dies
		// with it and a retried task counts exactly once. (The spill
		// counters inside appendRun stay cumulative across attempts on
		// purpose: they report physical I/O, and a rewritten run really was
		// written twice.)
		var taskMem, shufRecs, shufBytes int64
		var enc []byte // flush scratch, reused across tables

		// flush writes every table out as one sorted run for its partition.
		// Under a budget the flushed tables are dropped, not recycled: a
		// pooled table keeps its capacity, so a task's flush points (and
		// with them the spill counters) would depend on which tables it
		// happened to be handed instead of on its input alone.
		flush := func() error {
			flushed := false
			for p, t := range tables {
				if t == nil {
					continue
				}
				flushed = true
				shufRecs += int64(t.n)
				var size int64
				size, enc = t.encodeRun(enc[:0], job.Size)
				shufBytes += size
				if err := sh.appendRun(p, task, enc, t.n); err != nil {
					return err
				}
				tables[p] = nil
				if recycle {
					t.reset()
					tablePool.Put(t)
				}
			}
			if flushed && sh.dir != "" {
				rc.SpillFlushes.Add(1)
			}
			taskMem = 0
			return nil
		}
		emit := func(group uint32, key []byte, weight int64) {
			checkAbort(errs)
			p := int(job.hash(group, key) % uint32(reduceTasks))
			t := tables[p]
			if t == nil {
				t = tablePool.Get().(*byteTable)
				tables[p] = t
			}
			before := t.mem()
			t.add(group, key, weight)
			if taskMem += t.mem() - before; taskMem > share {
				if err := flush(); err != nil {
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
		// The final flush is the task's last failure-capable step, and a
		// failed one must leave the task uncounted so its retry counts it
		// exactly once.
		if err := flush(); err != nil {
			return err
		}

		// Commit region: nothing below can fail. A partition is handed to a
		// worker the moment its last map task retires — the reduce phase
		// overlaps the map phase instead of waiting behind it.
		rc.ShuffleRecords.Add(shufRecs)
		rc.ShuffleBytes.Add(shufBytes)
		mapWork[task] = int64(hi - lo)
		oh.taskSpan("map-task", job.Name, "map", task, begin, nil)
		if rc.MapTasksDone.Add(1) == int64(mapTasks) {
			mapWall = time.Since(start)
		}
		for p := range parts {
			if parts[p].contrib.Add(1) == int64(mapTasks) && !errs.canceled.Load() {
				ready <- p
			}
		}
		report("map")
		return nil
	})

	// One pool of cfg.Workers goroutines serves both phases, so real
	// concurrency never exceeds the configured bound: the wall times are
	// measured on exactly Stats.Workers slots, against which
	// experiments.Simulate calibrates its schedule of the counted tasks.
	// Ready partitions are drained in preference to starting new map tasks
	// — the streaming overlap — and workers block on `ready` once the map
	// tasks are exhausted. The worker that retires the last map task
	// (whether it ran or was skipped by cancellation) closes the channel.
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
					// channel — every run has been handed over, and
					// therefore every send has happened, by then.
					if mapsRetired.Add(1) == int64(mapTasks) {
						shufWall = time.Since(start)
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
	stats.Workers = cfg.Workers
	stats.MapTaskRecords = mapWork
	stats.ReduceTaskEntries = redWork
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
