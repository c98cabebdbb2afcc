package mapreduce

import (
	"time"

	"lash/internal/obs"
)

// obsHooks resolves a Config's observability carrier (Config.Obs) into the
// per-call handles the run paths record through. The zero hooks (nil Obs)
// record nothing: every handle method is nil-receiver safe, so the task
// bodies carry no "is observability on?" branches beyond one per retirement.
type obsHooks struct {
	run   *obs.Run
	tr    *obs.Tracer
	jobID obs.SpanID
	root  obs.SpanID
	start time.Time

	// Process-wide pipeline counters (nil when no metrics are attached).
	// The lash_spill_* handles are the disk-backed shuffle's (openDisk).
	pm             *obs.PipelineMetrics
	shufRecords    *obs.Counter
	shufBytes      *obs.Counter
	taskRetries    *obs.Counter
	faultsInjected *obs.Counter
}

// newObsHooks pre-allocates the job's span id (published through
// Run.SetJobSpan so deeper layers can parent to it) and extracts the
// pipeline metric handles. start anchors the job and phase spans.
func newObsHooks(o *obs.Run, start time.Time) obsHooks {
	h := obsHooks{run: o, tr: o.TracerOf(), pm: o.PipelineMetricsOf(), start: start}
	if o != nil {
		h.root = o.Root
	}
	if h.pm != nil {
		h.shufRecords = h.pm.ShuffleRecords
		h.shufBytes = h.pm.ShuffleBytes
		h.taskRetries = h.pm.TaskRetries
		h.faultsInjected = h.pm.FaultsInjected
	}
	if h.tr != nil {
		h.jobID = h.tr.NextID()
		o.SetJobSpan(h.jobID)
	}
	return h
}

// taskSpan records one finished task (or partition) span under the job span.
func (h *obsHooks) taskSpan(name, jobName, phase string, idx int, begin time.Time) {
	if h.tr == nil {
		return
	}
	h.tr.Record(obs.SpanRecord{
		Parent: h.jobID, Name: name, Job: jobName, Phase: phase,
		Partition: idx, Start: begin, Duration: time.Since(begin),
	})
}

// finish records the job's phase duration histograms and its span tree (the
// job span plus one child span per phase, laid out back-to-back from the
// watermark wall times so they sum to the job's wall time) once the run's
// PhaseTimes are final. Safe on the zero hooks.
func (h *obsHooks) finish(jobName string, w PhaseTimes) {
	if h.pm != nil {
		h.pm.Phases(jobName).Observe(w.Map.Seconds(), w.Shuffle.Seconds(), w.Reduce.Seconds())
	}
	if h.tr != nil && h.jobID != 0 {
		mapEnd := h.start.Add(w.Map)
		shufEnd := mapEnd.Add(w.Shuffle)
		h.tr.Record(obs.SpanRecord{Parent: h.jobID, Name: "phase", Job: jobName, Phase: "map", Partition: -1, Start: h.start, Duration: w.Map})
		h.tr.Record(obs.SpanRecord{Parent: h.jobID, Name: "phase", Job: jobName, Phase: "shuffle", Partition: -1, Start: mapEnd, Duration: w.Shuffle})
		h.tr.Record(obs.SpanRecord{Parent: h.jobID, Name: "phase", Job: jobName, Phase: "reduce", Partition: -1, Start: shufEnd, Duration: w.Reduce})
		h.tr.Record(obs.SpanRecord{ID: h.jobID, Parent: h.root, Name: "job", Job: jobName, Partition: -1, Start: h.start, Duration: w.Total()})
	}
	h.run.SetJobSpan(0)
}
