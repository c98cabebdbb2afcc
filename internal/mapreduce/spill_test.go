package mapreduce_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"lash/internal/mapreduce"
)

// spillJob is a synthetic weighted-aggregation job with heavy key reuse so
// both map-side aggregation and the cross-run re-aggregation of the spill
// merge are exercised. Every reduce delivery is rendered into one string per
// entry, so the output captures group order, entry order, keys, and summed
// weights — everything both backings must deliver byte-identically.
func spillJob() mapreduce.AggJob[int, string] {
	return mapreduce.AggJob[int, string]{
		Name: "spill-diff",
		Map: func(item int, emit func(uint32, []byte, int64)) {
			rng := rand.New(rand.NewSource(int64(item)))
			var key [8]byte
			for i := 0; i < 40; i++ {
				group := uint32(rng.Intn(13))
				klen := 1 + rng.Intn(len(key))
				for j := 0; j < klen; j++ {
					key[j] = byte(rng.Intn(7)) // tiny alphabet → many duplicate keys
				}
				emit(group, key[:klen], int64(1+rng.Intn(3)))
			}
		},
		Hash: func(group uint32, _ []byte) uint32 { return mapreduce.HashUint32(group) },
		Reduce: func(group uint32, entries []mapreduce.Entry, emit func(string)) error {
			for _, e := range entries {
				emit(fmt.Sprintf("%d|%x|%d", group, e.Key, e.Weight))
			}
			return nil
		},
	}
}

func spillInput(n int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = i
	}
	return in
}

// refSpillOutput is what RunAgg must deliver for spillJob, computed from the
// definition: Map run sequentially into a plain map, weights summed per
// (group, key), rendered in reduce-partition, group, key order.
func refSpillOutput(input []int, reduceTasks int) []string {
	agg := map[uint32]map[string]int64{}
	for _, item := range input {
		spillJob().Map(item, func(group uint32, key []byte, weight int64) {
			if agg[group] == nil {
				agg[group] = map[string]int64{}
			}
			agg[group][string(key)] += weight
		})
	}
	groups := make([]uint32, 0, len(agg))
	for g := range agg {
		groups = append(groups, g)
	}
	part := func(g uint32) uint32 { return mapreduce.HashUint32(g) % uint32(reduceTasks) }
	sort.Slice(groups, func(i, j int) bool {
		if pi, pj := part(groups[i]), part(groups[j]); pi != pj {
			return pi < pj
		}
		return groups[i] < groups[j]
	})
	var out []string
	for _, g := range groups {
		keys := make([]string, 0, len(agg[g]))
		for k := range agg[g] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out = append(out, fmt.Sprintf("%d|%x|%d", g, k, agg[g][k]))
		}
	}
	return out
}

// TestSpillDifferential proves both backings of the shuffle byte-identical
// to the definition-direct reference: same outputs in the same order,
// unbudgeted and for budgets from "everything spills" to "nothing spills
// before retirement", across worker counts and down to a single task. An
// unbudgeted run must not touch disk; a budgeted one must, and clean up.
func TestSpillDifferential(t *testing.T) {
	input := spillInput(300)
	base := mapreduce.Config{MapTasks: 8, ReduceTasks: 5}
	single := mapreduce.Config{MapTasks: 1, ReduceTasks: 1}
	const huge = int64(1) << 40 // budgeted, on the unbudgeted flush schedule

	shuffled := map[string][2]int64{} // row → MapOutputRecords, MapOutputBytes
	run := func(name string, cfg mapreduce.Config) {
		t.Run(name, func(t *testing.T) {
			cfg.SpillDir = t.TempDir()
			// Probed from inside the run: its private directory exists iff
			// the run is budgeted.
			wantEntries := min(int(cfg.MemoryBudget), 1)
			job := spillJob()
			inner := job.Reduce
			job.Reduce = func(group uint32, entries []mapreduce.Entry, emit func(string)) error {
				if left, err := os.ReadDir(cfg.SpillDir); err != nil || len(left) != wantEntries {
					return fmt.Errorf("spill dir holds %d entries mid-run (err %v), want %d", len(left), err, wantEntries)
				}
				return inner(group, entries, emit)
			}
			got, stats, err := mapreduce.RunAgg(context.Background(), cfg, input, job)
			if err != nil {
				t.Fatal(err)
			}
			assertSameOutput(t, got, refSpillOutput(input, cfg.ReduceTasks))
			for _, n := range []int64{stats.SpillRuns, stats.SpillBytes, stats.SpillRecords} {
				if (n > 0) != (cfg.MemoryBudget > 0) {
					t.Fatalf("budget %d with spill counters %+v", cfg.MemoryBudget, stats.Counters)
				}
			}
			// The run removes its private directory on the way out.
			assertEmptyDir(t, cfg.SpillDir)
			shuffled[name] = [2]int64{stats.MapOutputRecords, stats.MapOutputBytes}
		})
	}
	for _, budget := range []int64{0, 1, 512, 16 << 10, 1 << 20, huge} {
		for _, workers := range []int{1, 4} {
			cfg := base
			cfg.Workers, cfg.MemoryBudget = workers, budget
			run(fmt.Sprintf("budget=%d/workers=%d", budget, workers), cfg)
		}
	}
	for _, budget := range []int64{0, 512} {
		cfg := single
		cfg.Workers, cfg.MemoryBudget = 1, budget
		run(fmt.Sprintf("budget=%d/single-task", budget), cfg)
	}

	// A task that only flushes at retirement ships the same records whatever
	// the backing and however many workers share the tasks.
	want := shuffled["budget=0/workers=1"]
	for _, name := range []string{"budget=0/workers=4", fmt.Sprintf("budget=%d/workers=1", huge), fmt.Sprintf("budget=%d/workers=4", huge)} {
		if shuffled[name] != want {
			t.Errorf("%s shuffled %v records/bytes, budget=0/workers=1 %v", name, shuffled[name], want)
		}
	}
}

// TestSpillReduceDelivery checks the merge hands Reduce grouped, strictly
// key-sorted entries, via a reducer that asserts the ordering invariants
// directly.
func TestSpillReduceDelivery(t *testing.T) {
	cfg := mapreduce.Config{Workers: 3, MapTasks: 5, ReduceTasks: 3, MemoryBudget: 256, SpillDir: t.TempDir()}
	job := spillJob()
	job.Reduce = func(group uint32, entries []mapreduce.Entry, emit func(string)) error {
		if len(entries) == 0 {
			return errors.New("empty entry batch")
		}
		for i := 1; i < len(entries); i++ {
			if string(entries[i-1].Key) >= string(entries[i].Key) {
				return fmt.Errorf("group %d: entries not strictly key-sorted: %x !< %x",
					group, entries[i-1].Key, entries[i].Key)
			}
		}
		emit(fmt.Sprintf("group %d: %d entries", group, len(entries)))
		return nil
	}
	if _, _, err := mapreduce.RunAgg(context.Background(), cfg, spillInput(100), job); err != nil {
		t.Fatal(err)
	}
}

// cancelInMerge runs one partition of many groups, cancels from inside the
// first Reduce call, and asserts the merge stops at a group boundary: the
// run returns context.Canceled having reduced only some of the groups.
// Reduce never emits, so the between-groups check is the only one in play.
func cancelInMerge(t *testing.T, cfg mapreduce.Config) {
	t.Helper()
	const groups = 5000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reduced atomic.Int64
	cfg.Workers, cfg.MapTasks, cfg.ReduceTasks = 1, 2, 1
	_, _, err := mapreduce.RunAgg(ctx, cfg, []int{0, 1}, mapreduce.AggJob[int, string]{
		Name: "cancel-in-merge",
		Map: func(item int, emit func(uint32, []byte, int64)) {
			for g := uint32(0); g < groups; g++ {
				emit(g, []byte{byte(item)}, 1)
			}
		},
		Reduce: func(uint32, []mapreduce.Entry, func(string)) error {
			if reduced.Add(1) == 1 {
				cancel()
			}
			time.Sleep(50 * time.Microsecond) // the run's context watcher is asynchronous
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := reduced.Load(); n >= groups {
		t.Fatalf("merge reduced all %d groups after cancellation", n)
	}
}

// TestSpillCleanupOnCancel forces spilling, cancels mid-map and again
// mid-merge, and asserts the run returns the context error with no temp
// files left behind.
func TestSpillCleanupOnCancel(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var mapped atomic.Int64
	job := spillJob()
	inner := job.Map
	job.Map = func(item int, emit func(uint32, []byte, int64)) {
		// Let a few tasks spill, then cancel while map work is in flight.
		if mapped.Add(1) == 20 {
			cancel()
		}
		inner(item, emit)
	}
	cfg := mapreduce.Config{Workers: 4, MapTasks: 16, ReduceTasks: 4, MemoryBudget: 1, SpillDir: dir}
	_, _, err := mapreduce.RunAgg(ctx, cfg, spillInput(400), job)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	assertEmptyDir(t, dir)

	cancelInMerge(t, mapreduce.Config{MemoryBudget: 1 << 10, SpillDir: dir})
	assertEmptyDir(t, dir)
}

// TestSpillCleanupOnReduceError asserts a failing reducer still tears the
// spill directory down.
func TestSpillCleanupOnReduceError(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("synthetic reduce failure")
	job := spillJob()
	job.Reduce = func(uint32, []mapreduce.Entry, func(string)) error { return boom }
	cfg := mapreduce.Config{Workers: 2, MapTasks: 4, ReduceTasks: 3, MemoryBudget: 64, SpillDir: dir}
	_, _, err := mapreduce.RunAgg(context.Background(), cfg, spillInput(50), job)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	assertEmptyDir(t, dir)
}

// TestSpillEmptyInput: a budgeted run over nothing must not fail or leave
// droppings.
func TestSpillEmptyInput(t *testing.T) {
	dir := t.TempDir()
	cfg := mapreduce.Config{Workers: 2, MemoryBudget: 1024, SpillDir: dir}
	out, stats, err := mapreduce.RunAgg(context.Background(), cfg, nil, spillJob())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || stats.SpillRuns != 0 {
		t.Fatalf("out=%v spills=%d", out, stats.SpillRuns)
	}
	assertEmptyDir(t, dir)
}

func assertEmptyDir(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("orphan temp entry %s", filepath.Join(dir, e.Name()))
	}
}
