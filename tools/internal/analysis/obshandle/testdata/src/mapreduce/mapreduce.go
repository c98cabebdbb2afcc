// Package mapreduce has a run-record import-path base: it counts into the
// run's own record, so no field or variable may hold a metric handle beside
// it. Handles passed in as parameters are not held.
package mapreduce

import "obs"

type shuffle struct {
	runs    int64
	flushes *obs.Counter  // want `obs.Counter handle flushes held in mapreduce`
	merge   obs.Histogram // want `obs.Histogram handle merge held in mapreduce`
}

var retries *obs.Counter // want `obs.Counter handle retries held in mapreduce`

// hooks may carry the run, whose counters are its own record, but no bundle
// of process-wide handles beside it.
type hooks struct {
	run    *obs.Run
	rc     *obs.RunCounters
	pm     *obs.PipelineMetrics // want `obs.PipelineMetrics handle pm held in mapreduce`
	phases obs.JobPhases        // want `obs.JobPhases handle phases held in mapreduce`
}

// finish reads a histogram through the run without holding its bundle.
func (h *hooks) finish(job string) *obs.Histogram {
	pm := h.run.PipelineMetricsOf() // want `obs.PipelineMetrics handle pm held in mapreduce`
	ph := pm.Phases(job)            // want `obs.JobPhases handle ph held in mapreduce`
	_ = ph
	return h.run.PipelineMetricsOf().Phases(job).Map
}

// observe records through a handle its caller passed in: allowed.
func observe(h *obs.Histogram, v float64) *obs.Histogram {
	h.Observe(v)
	return h
}

func count(s *shuffle, g *obs.Gauge) {
	s.runs++
	local := g // want `obs.Gauge handle local held in mapreduce`
	local.Set(1)
	phases := struct {
		m *obs.Histogram // want `obs.Histogram handle m held in mapreduce`
	}{}
	observe(phases.m, 1)
}
