package experiments_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"lash/internal/core"
	"lash/internal/datagen"
	"lash/internal/experiments"
	"lash/internal/gsm"
	"lash/internal/mapreduce"
)

// fixedStats is a job run with hand-written task counts, measured on one
// worker at one millisecond per unit, so the simulator's arithmetic can be
// checked exactly.
func fixedStats(mapWork, reduceWork []int64, shuffled int64) *mapreduce.Stats {
	st := &mapreduce.Stats{Workers: 1, MapTaskRecords: mapWork, ReduceTaskEntries: reduceWork}
	st.Wall = mapreduce.PhaseTimes{Map: sum(mapWork) * time.Millisecond, Reduce: sum(reduceWork) * time.Millisecond}
	st.MapOutputBytes = shuffled
	return st
}

func sum(units []int64) time.Duration {
	var n int64
	for _, u := range units {
		n += u
	}
	return time.Duration(n)
}

func units(n ...int64) []int64 { return n }

func TestSimulatedCluster(t *testing.T) {
	st := fixedStats(units(5, 4, 3, 3, 3), units(2, 2), 4e6)
	spec := experiments.ClusterSpec{Machines: 4, SlotsPerMachine: 2, NetBytesPerSec: 1e6}
	got := experiments.Simulate(st, spec)
	// 8 slots hold every task at once; 4 MB over 4 machines × 1 MB/s.
	want := mapreduce.PhaseTimes{Map: 5 * time.Millisecond, Shuffle: time.Second, Reduce: 2 * time.Millisecond}
	if got != want {
		t.Fatalf("Simulate = %+v, want %+v", got, want)
	}
	// The shuffle follows the bandwidth model: twice the machines, half
	// the time.
	spec.Machines = 8
	if got := experiments.Simulate(st, spec).Shuffle; got != time.Second/2 {
		t.Errorf("shuffle on 8 machines = %v, want 500ms", got)
	}
	// The zero spec is the paper's cluster.
	paper := experiments.ClusterSpec{Machines: 10, SlotsPerMachine: 8, NetBytesPerSec: 1.25e9}
	if got, want := experiments.Simulate(st, experiments.ClusterSpec{}), experiments.Simulate(st, paper); got != want {
		t.Errorf("default spec simulates %+v, the paper's cluster %+v", got, want)
	}
}

func TestLPTViaPhases(t *testing.T) {
	st := fixedStats(units(3, 5, 3, 4, 3), nil, 0)
	for _, tc := range []struct {
		slots int
		want  time.Duration
	}{
		{1, 18 * time.Millisecond}, // one slot: the sum
		{5, 5 * time.Millisecond},  // a slot per task: the longest task
		// Longest-first onto the least-loaded slot: {5,3,3 | 4,3} would be
		// optimal at 9ms, LPT builds {5,3 | 4,3,3}.
		{2, 10 * time.Millisecond},
	} {
		got := experiments.Simulate(st, experiments.ClusterSpec{Machines: 1, SlotsPerMachine: tc.slots})
		if got.Map != tc.want {
			t.Errorf("%d slots: map makespan %v, want %v", tc.slots, got.Map, tc.want)
		}
		if got.Reduce != 0 {
			t.Errorf("%d slots: reduce makespan %v with no reduce tasks", tc.slots, got.Reduce)
		}
	}
}

// One run scheduled onto growing clusters must never get slower in any
// phase — the property Fig. 6b's strong-scaling table rests on, which
// re-mining per machine count could not guarantee.
func TestSimulateMonotoneInMachines(t *testing.T) {
	// 192 skewed pseudo-random task sizes, as scalingMR would produce.
	mapWork := make([]int64, 192)
	reduceWork := make([]int64, 192)
	x := uint64(42)
	next := func() int64 {
		x = x*6364136223846793005 + 1442695040888963407
		d := int64(x>>33) % 4_000_000
		return d * d / 1_000_000 // skew: a few large tasks
	}
	for i := range mapWork {
		mapWork[i], reduceWork[i] = next(), next()
	}
	st := fixedStats(mapWork, reduceWork, 1<<30)
	st.Workers = 2
	prev := experiments.Simulate(st, experiments.ClusterSpec{Machines: 1})
	if prev.Map <= 0 || prev.Shuffle <= 0 || prev.Reduce <= 0 {
		t.Fatalf("1 machine: phases not computed: %+v", prev)
	}
	for _, m := range []int{2, 4, 8, 16, 32} {
		cur := experiments.Simulate(st, experiments.ClusterSpec{Machines: m})
		if cur.Map > prev.Map || cur.Shuffle > prev.Shuffle || cur.Reduce > prev.Reduce {
			t.Errorf("%d machines slower than %d: %+v after %+v", m, m/2, cur, prev)
		}
		prev = cur
	}
}

// TestSimulateCountsWork holds the simulator's inputs to counted work: the
// fig6b run's per-task counts are the same whatever the worker count and
// whether its shuffle spills, so its schedule on any cluster is too; and
// the host's own cluster — one machine with Workers slots — simulates to
// the wall times it measured, exactly.
func TestSimulateCountsWork(t *testing.T) {
	c := experiments.NewContext(testScale())
	db, err := c.TextDB(datagen.HierarchyCLP)
	if err != nil {
		t.Fatal(err)
	}
	var ref *core.Result
	for _, mr := range []mapreduce.Config{
		{Workers: 1},
		{Workers: 4},
		{Workers: 4, MemoryBudget: 4 << 10},
	} {
		mr.MapTasks, mr.ReduceTasks = 192, 192 // Context.scalingMR
		res, err := core.Mine(context.Background(), db, core.Options{Params: gsm.Params{Sigma: c.Scale.SigmaLo, Gamma: 0, Lambda: 5}, MR: mr})
		if err != nil {
			t.Fatal(err)
		}
		if mr.MemoryBudget > 0 && res.Jobs.Mine.SpillRuns == 0 {
			t.Fatal("the budgeted run did not spill")
		}
		for _, st := range []*mapreduce.Stats{res.Jobs.FList, res.Jobs.Mine} {
			if st.Workers != mr.Workers {
				t.Errorf("Stats.Workers %d, want %d", st.Workers, mr.Workers)
			}
			host := experiments.Simulate(st, experiments.ClusterSpec{Machines: 1, SlotsPerMachine: st.Workers})
			if host.Map != st.Wall.Map || host.Reduce != st.Wall.Reduce {
				t.Errorf("%+v: the host's cluster simulates to %v map, %v reduce; measured %v, %v",
					mr, host.Map, host.Reduce, st.Wall.Map, st.Wall.Reduce)
			}
		}
		if ref == nil {
			ref = res
			continue
		}
		for _, job := range []struct {
			name      string
			got, want *mapreduce.Stats
		}{{"flist", res.Jobs.FList, ref.Jobs.FList}, {"mine", res.Jobs.Mine, ref.Jobs.Mine}} {
			if !reflect.DeepEqual(job.got.MapTaskRecords, job.want.MapTaskRecords) ||
				!reflect.DeepEqual(job.got.ReduceTaskEntries, job.want.ReduceTaskEntries) {
				t.Errorf("%s job under %+v: per-task counts differ from one worker's", job.name, mr)
			}
		}
	}
	var entries int64
	for _, n := range ref.Jobs.Mine.ReduceTaskEntries {
		entries += n
	}
	if entries != ref.PartitionSeqs || entries == 0 {
		t.Errorf("the mine job's reduce tasks merged %d entries, its partitions hold %d sequences", entries, ref.PartitionSeqs)
	}
}
