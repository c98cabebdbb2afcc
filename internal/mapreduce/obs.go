package mapreduce

import (
	"time"

	"lash/internal/obs"
)

// obsHooks resolves a Config's observability carrier (Config.Obs) into the
// job's span id and the one call every timed interval of the job goes
// through (obs.Run.Record). The zero hooks (nil Obs) record nothing. The
// job's counters are not here: they live in its RunCounters, which RunAgg
// adds to the process-wide families once, on its way out.
type obsHooks struct {
	run   *obs.Run
	jobID obs.SpanID
	start time.Time
}

// newObsHooks pre-allocates the job's span id (published through
// Run.SetJobSpan so deeper layers can parent to it). start anchors the job
// and phase spans.
func newObsHooks(o *obs.Run, start time.Time) obsHooks {
	h := obsHooks{run: o, start: start}
	if tr := o.TracerOf(); tr != nil {
		h.jobID = tr.NextID()
		o.SetJobSpan(h.jobID)
	}
	return h
}

// taskSpan records one finished task (or partition) interval under the job
// span, observing it into hist as well (nil: no histogram).
func (h *obsHooks) taskSpan(name, jobName, phase string, idx int, begin time.Time, hist *obs.Histogram) {
	h.run.Record(obs.SpanRecord{
		Parent: h.jobID, Name: name, Job: jobName, Phase: phase,
		Partition: idx, Start: begin, Duration: time.Since(begin),
	}, hist)
}

// finish records the job's span tree — the job span plus one child span per
// phase, laid out back-to-back from the watermark wall times so they sum to
// the job's wall time — and the phase duration histograms, once the run's
// PhaseTimes are final. Safe on the zero hooks.
func (h *obsHooks) finish(jobName string, w PhaseTimes) {
	mapEnd := h.start.Add(w.Map)
	shufEnd := mapEnd.Add(w.Shuffle)
	h.run.Record(obs.SpanRecord{Parent: h.jobID, Name: "phase", Job: jobName, Phase: "map", Partition: -1, Start: h.start, Duration: w.Map},
		h.run.PipelineMetricsOf().Phases(jobName).Map)
	h.run.Record(obs.SpanRecord{Parent: h.jobID, Name: "phase", Job: jobName, Phase: "shuffle", Partition: -1, Start: mapEnd, Duration: w.Shuffle},
		h.run.PipelineMetricsOf().Phases(jobName).Shuffle)
	h.run.Record(obs.SpanRecord{Parent: h.jobID, Name: "phase", Job: jobName, Phase: "reduce", Partition: -1, Start: shufEnd, Duration: w.Reduce},
		h.run.PipelineMetricsOf().Phases(jobName).Reduce)
	h.run.Record(obs.SpanRecord{ID: h.jobID, Name: "job", Job: jobName, Partition: -1, Start: h.start, Duration: w.Total()}, nil)
	h.run.SetJobSpan(0)
}
