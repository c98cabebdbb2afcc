package obs

import (
	"sync/atomic"
)

// RunCounters are the per-run live counters of one mining run — the single
// record behind progress snapshots (lash.ProgressEvent), the run's final
// shuffle/spill statistics and, added once when the run ends
// (PipelineMetrics.AddRun), the process-wide lash_* counters. The MapReduce
// substrate increments them as tasks retire and spill runs are written;
// everything user-visible is a read of these atomics.
type RunCounters struct {
	MapTasksDone    atomic.Int64
	ReduceTasksDone atomic.Int64
	ShuffleRecords  atomic.Int64
	ShuffleBytes    atomic.Int64
	SpillFlushes    atomic.Int64
	SpillRuns       atomic.Int64
	SpillBytes      atomic.Int64
	SpillRecords    atomic.Int64

	// Fault tolerance: task re-executions after transient failures,
	// synthetic faults injected (chaos runs), and spill cleanup failures
	// (leaked temp dirs/files — see the shuffle's cleanup).
	TaskRetries        atomic.Int64
	FaultsInjected     atomic.Int64
	SpillCleanupErrors atomic.Int64
}

// JobPhases bundles one job family's per-phase duration histograms. The
// zero value's nil handles observe nothing.
type JobPhases struct {
	Map     *Histogram
	Shuffle *Histogram
	Reduce  *Histogram
}

// PipelineMetrics are the process-wide, pre-registered handles the mining
// pipeline records into (the hot-path handle contract: registration at
// construction, atomics at record time). One PipelineMetrics serves every
// run in the process. The shuffle, spill and fault-tolerance counters are
// added per MapReduce job when the job ends, from its RunCounters (AddRun);
// the local-mining counters and the histograms are recorded as each
// partition or interval finishes.
type PipelineMetrics struct {
	// Per-phase wall-time histograms, one fixed label set per job family.
	FList     JobPhases
	Mine      JobPhases
	Naive     JobPhases
	SemiNaive JobPhases
	Other     JobPhases

	// Shuffle volume (post-aggregation, what actually ships).
	ShuffleRecords *Counter
	ShuffleBytes   *Counter

	// Spill activity of budgeted shuffles: table flushes, sorted runs
	// written, physical bytes and records spilled, and the duration of each
	// spilled partition's k-way merge + reduce.
	SpillFlushes *Counter
	SpillRuns    *Counter
	SpillBytes   *Counter
	SpillRecords *Counter
	MergeSeconds *Histogram

	// Fault tolerance: retried tasks, injected faults, and spill cleanup
	// failures (each leaked temp dir/file is one increment).
	TaskRetries        *Counter
	FaultsInjected     *Counter
	SpillCleanupErrors *Counter

	// Local mining: partitions mined, per-partition mining duration, and
	// the miners' work counters (candidates whose support was computed,
	// patterns emitted), added once per completed local mine.
	PartitionsMined      *Counter
	PartitionMineSeconds *Histogram
	MinerExplored        *Counter
	MinerOutput          *Counter

	// Preprocessing: corpus load/decode and f-list rank-space build times.
	CorpusLoadSeconds *Histogram
	FListBuildSeconds *Histogram
}

// NewPipelineMetrics registers the pipeline's metric families on r and
// returns their handles.
func NewPipelineMetrics(r *Registry) *PipelineMetrics {
	phases := func(job string) JobPhases {
		h := func(phase string) *Histogram {
			return r.Histogram("lash_phase_duration_seconds",
				"Wall time of one MapReduce phase, per job family. Map, shuffle and reduce overlap; times are cumulative watermarks that sum to job wall time.",
				DurationBuckets, "job", job, "phase", phase)
		}
		return JobPhases{Map: h("map"), Shuffle: h("shuffle"), Reduce: h("reduce")}
	}
	return &PipelineMetrics{
		FList:     phases("flist"),
		Mine:      phases("partition_mine"),
		Naive:     phases("naive"),
		SemiNaive: phases("semi_naive"),
		Other:     phases("other"),

		ShuffleRecords: r.Counter("lash_shuffle_records_total", "Aggregated records shuffled between map and reduce (after combining)."),
		ShuffleBytes:   r.Counter("lash_shuffle_bytes_total", "Encoded bytes shuffled between map and reduce (MAP_OUTPUT_BYTES)."),

		SpillFlushes: r.Counter("lash_spill_flushes_total", "Times a map task's aggregation tables were flushed to disk because the memory budget was exceeded (final end-of-task flushes included)."),
		SpillRuns:    r.Counter("lash_spill_runs_total", "Sorted runs written to spill files by budgeted shuffles."),
		SpillBytes:   r.Counter("lash_spill_bytes_total", "Physical bytes written to spill files by budgeted shuffles."),
		SpillRecords: r.Counter("lash_spill_records_total", "Aggregated entries written to spill runs (an entry spilled in several runs counts once per run)."),
		MergeSeconds: r.Histogram("lash_spill_merge_seconds", "Duration of one spilled partition's k-way merge and reduce.", DurationBuckets),

		TaskRetries:        r.Counter("lash_task_retries_total", "Map/reduce task re-executions after transient failures (Config.Retry)."),
		FaultsInjected:     r.Counter("lash_faults_injected_total", "Synthetic faults injected through the fault-injection registry (chaos runs)."),
		SpillCleanupErrors: r.Counter("lash_spill_cleanup_errors_total", "Spill cleanup failures; each increment is a potentially leaked temp file or directory."),

		PartitionsMined:      r.Counter("lash_partitions_mined_total", "Partitions handed to a local miner."),
		PartitionMineSeconds: r.Histogram("lash_partition_mine_seconds", "Duration of one partition's decode and local mining.", DurationBuckets),
		MinerExplored:        r.Counter("lash_miner_explored_total", "Candidate sequences whose support the local miners computed."),
		MinerOutput:          r.Counter("lash_miner_output_total", "Frequent patterns emitted by the local miners."),

		CorpusLoadSeconds: r.Histogram("lash_corpus_load_seconds", "Duration of one corpus load/decode into an immutable database.", DurationBuckets),
		FListBuildSeconds: r.Histogram("lash_flist_build_seconds", "Duration of one f-list rank-space build from item frequencies.", DurationBuckets),
	}
}

// Phases selects the job family's phase histograms by MapReduce job name.
// Unknown names land in the "other" family.
func (m *PipelineMetrics) Phases(job string) JobPhases {
	switch job {
	case "flist":
		return m.FList
	case "partition+mine":
		return m.Mine
	case "naive":
		return m.Naive
	case "semi-naive":
		return m.SemiNaive
	}
	return m.Other
}

// AddRun adds one finished MapReduce job's counters to the process-wide
// families — the only place they are counted, once per job, whether the
// job succeeded, failed or was cancelled.
func (m *PipelineMetrics) AddRun(rc *RunCounters) {
	m.ShuffleRecords.Add(rc.ShuffleRecords.Load())
	m.ShuffleBytes.Add(rc.ShuffleBytes.Load())
	m.SpillFlushes.Add(rc.SpillFlushes.Load())
	m.SpillRuns.Add(rc.SpillRuns.Load())
	m.SpillBytes.Add(rc.SpillBytes.Load())
	m.SpillRecords.Add(rc.SpillRecords.Load())
	m.TaskRetries.Add(rc.TaskRetries.Load())
	m.FaultsInjected.Add(rc.FaultsInjected.Load())
	m.SpillCleanupErrors.Add(rc.SpillCleanupErrors.Load())
}

// Run is the observability carrier threaded through one mining run:
// an optional tracer (with the run's root span id) and optional
// process-wide metrics. A nil *Run disables both; a non-nil Run with nil
// fields enables either independently. A timed interval is recorded once,
// through Record, which feeds both.
type Run struct {
	Tracer  *Tracer
	Metrics *PipelineMetrics
	// Root is the parent for the run's job spans (0 = top level).
	Root SpanID

	jobSpan atomic.Uint64
}

// SetJobSpan publishes the span id of the currently executing MapReduce
// job, so deeper layers (per-partition mining) can parent their spans to
// it. Jobs within one run execute sequentially.
func (r *Run) SetJobSpan(id SpanID) {
	if r != nil {
		r.jobSpan.Store(uint64(id))
	}
}

// JobSpan returns the current job's span id (0 when none).
func (r *Run) JobSpan() SpanID {
	if r == nil {
		return 0
	}
	return SpanID(r.jobSpan.Load())
}

// noMetrics is the bundle of a run without metrics: every handle is nil and
// records nothing.
var noMetrics PipelineMetrics

// PipelineMetricsOf returns the run's metrics handle bundle, or one whose
// nil handles record nothing when no metrics are attached — never nil.
func (r *Run) PipelineMetricsOf() *PipelineMetrics {
	if r == nil || r.Metrics == nil {
		return &noMetrics
	}
	return r.Metrics
}

// Record is the one record of a timed interval, read off the clock once by
// the caller (sp.Start, sp.Duration): the interval becomes a span when r has
// a tracer — under r.Root when sp.Parent is 0 — and an observation of h, in
// seconds, when h is non-nil. Safe on a nil Run.
func (r *Run) Record(sp SpanRecord, h *Histogram) {
	h.Observe(sp.Duration.Seconds())
	if tr := r.TracerOf(); tr != nil {
		if sp.Parent == 0 {
			sp.Parent = r.Root
		}
		tr.Record(sp)
	}
}

// TracerOf returns the run's tracer (nil-safe).
func (r *Run) TracerOf() *Tracer {
	if r == nil {
		return nil
	}
	return r.Tracer
}
