package experiments_test

import (
	"testing"
	"time"

	"lash/internal/experiments"
	"lash/internal/mapreduce"
)

// fixedStats is a job run with hand-written task durations, so the
// simulator's arithmetic can be checked exactly.
func fixedStats(mapTimes, reduceTimes []time.Duration, shuffled int64) *mapreduce.Stats {
	st := &mapreduce.Stats{MapTaskTimes: mapTimes, ReduceTaskTimes: reduceTimes}
	st.MapOutputBytes = shuffled
	return st
}

func ms(ns ...int) []time.Duration {
	out := make([]time.Duration, len(ns))
	for i, n := range ns {
		out[i] = time.Duration(n) * time.Millisecond
	}
	return out
}

func TestSimulatedCluster(t *testing.T) {
	st := fixedStats(ms(5, 4, 3, 3, 3), ms(2, 2), 4e6)
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
	st := fixedStats(ms(3, 5, 3, 4, 3), nil, 0)
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
	// 192 skewed pseudo-random task durations, as scalingMR would produce.
	mapTimes := make([]time.Duration, 192)
	reduceTimes := make([]time.Duration, 192)
	x := uint64(42)
	next := func() time.Duration {
		x = x*6364136223846793005 + 1442695040888963407
		d := time.Duration(x>>33) % (4 * time.Millisecond)
		return d * d / time.Millisecond // skew: a few long tasks
	}
	for i := range mapTimes {
		mapTimes[i], reduceTimes[i] = next(), next()
	}
	st := fixedStats(mapTimes, reduceTimes, 1<<30)
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
