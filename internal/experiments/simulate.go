package experiments

import (
	"slices"
	"sort"
	"time"

	"lash/internal/mapreduce"
)

// ClusterSpec describes the simulated cluster. The defaults mirror the
// paper's setup: 10 worker machines with 8 concurrent tasks each, 10 GbE.
type ClusterSpec struct {
	Machines        int     // simulated worker machines (default 10)
	SlotsPerMachine int     // concurrent map or reduce tasks per machine (default 8)
	NetBytesPerSec  float64 // per-machine shuffle bandwidth (default 1.25e9 ≈ 10 GbE)
}

func (c ClusterSpec) withDefaults() ClusterSpec {
	if c.Machines <= 0 {
		c.Machines = 10
	}
	if c.SlotsPerMachine <= 0 {
		c.SlotsPerMachine = 8
	}
	if c.NetBytesPerSec <= 0 {
		c.NetBytesPerSec = 1.25e9
	}
	return c
}

// Simulate derives the phase times one job run would take on the cluster:
// the tasks' counted work (Stats.MapTaskRecords, ReduceTaskEntries) is
// scheduled onto Machines × SlotsPerMachine slots (LPT) and timed by the
// phase's wall on the host's own Stats.Workers slots, so the host simulates
// to its measured wall; the shuffle ships MAP_OUTPUT_BYTES over the
// machines' aggregate bandwidth. This stands in for the paper's Hadoop
// cluster (§6.1) and reproduces its scaling shapes (Fig. 6).
func Simulate(st *mapreduce.Stats, spec ClusterSpec) mapreduce.PhaseTimes {
	spec = spec.withDefaults()
	slots := spec.Machines * spec.SlotsPerMachine
	phase := func(wall time.Duration, tasks []int64) time.Duration {
		span, host := lptMakespan(tasks, slots), lptMakespan(tasks, max(st.Workers, 1))
		if span == host {
			return wall
		}
		return time.Duration(float64(wall) * float64(span) / float64(host))
	}
	return mapreduce.PhaseTimes{
		Map: phase(st.Wall.Map, st.MapTaskRecords),
		Shuffle: time.Duration(float64(st.MapOutputBytes) /
			(float64(spec.Machines) * spec.NetBytesPerSec) * float64(time.Second)),
		Reduce: phase(st.Wall.Reduce, st.ReduceTaskEntries),
	}
}

// sim is Simulate on the paper's cluster (the ClusterSpec defaults), the
// target of every experiment that does not vary the machine count.
func sim(st *mapreduce.Stats) mapreduce.PhaseTimes { return Simulate(st, ClusterSpec{}) }

// lptMakespan schedules task sizes onto `slots` parallel slots using
// longest-processing-time-first and returns the makespan.
func lptMakespan(tasks []int64, slots int) int64 {
	sorted := append([]int64(nil), tasks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	loads := make([]int64, slots)
	for _, t := range sorted {
		// Place on least-loaded slot (slots is small; linear scan).
		best := 0
		for s := 1; s < slots; s++ {
			if loads[s] < loads[best] {
				best = s
			}
		}
		loads[best] += t
	}
	return slices.Max(loads)
}
