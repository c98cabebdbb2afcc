package experiments

import (
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

// Simulate derives the phase times one measured job run would take on the
// cluster: the map and reduce tasks' measured durations are scheduled onto
// Machines × SlotsPerMachine slots (LPT), and the shuffle ships the measured
// MAP_OUTPUT_BYTES over the machines' aggregate bandwidth. This stands in
// for the paper's Hadoop cluster (§6.1) and reproduces its scaling shapes
// (Fig. 6). It is a pure function of the Stats, so one run can be
// scheduled onto any number of clusters.
func Simulate(st *mapreduce.Stats, spec ClusterSpec) mapreduce.PhaseTimes {
	spec = spec.withDefaults()
	slots := spec.Machines * spec.SlotsPerMachine
	return mapreduce.PhaseTimes{
		Map: lptMakespan(st.MapTaskTimes, slots),
		Shuffle: time.Duration(float64(st.MapOutputBytes) /
			(float64(spec.Machines) * spec.NetBytesPerSec) * float64(time.Second)),
		Reduce: lptMakespan(st.ReduceTaskTimes, slots),
	}
}

// sim is Simulate on the paper's cluster (the ClusterSpec defaults), the
// target of every experiment that does not vary the machine count.
func sim(st *mapreduce.Stats) mapreduce.PhaseTimes { return Simulate(st, ClusterSpec{}) }

// lptMakespan schedules task durations onto `slots` parallel slots using
// longest-processing-time-first and returns the makespan.
func lptMakespan(tasks []time.Duration, slots int) time.Duration {
	sorted := append([]time.Duration(nil), tasks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	loads := make([]time.Duration, slots)
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
	var makespan time.Duration
	for _, l := range loads {
		makespan = max(makespan, l)
	}
	return makespan
}
