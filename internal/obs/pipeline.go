package obs

import (
	"sync/atomic"
)

// RunCounters are the per-run live counters of one mining run — the single
// source of truth behind progress snapshots (lash.ProgressEvent) and the
// run's final shuffle/spill statistics. The MapReduce substrate increments
// them as tasks retire and spill runs are written; everything user-visible
// is a read of these atomics.
type RunCounters struct {
	MapTasksDone    atomic.Int64
	ReduceTasksDone atomic.Int64
	ShuffleRecords  atomic.Int64
	ShuffleBytes    atomic.Int64
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
// nil receiver observes nothing, so callers need no nil checks.
type JobPhases struct {
	Map     *Histogram
	Shuffle *Histogram
	Reduce  *Histogram
}

// Observe records one job's phase wall times, in seconds.
func (p *JobPhases) Observe(mapS, shuffleS, reduceS float64) {
	if p == nil {
		return
	}
	p.Map.Observe(mapS)
	p.Shuffle.Observe(shuffleS)
	p.Reduce.Observe(reduceS)
}

// MinerCounters are the local miners' work counters, flushed once per
// partition mined (never per expansion — the mining hot loop stays
// alloc- and atomic-free). The nil receiver records nothing.
type MinerCounters struct {
	Explored *Counter
	Output   *Counter
}

// Record adds one partition's exploration counters.
func (c *MinerCounters) Record(explored, output int64) {
	if c == nil {
		return
	}
	c.Explored.Add(explored)
	c.Output.Add(output)
}

// PipelineMetrics are the process-wide, pre-registered handles the mining
// pipeline records into (the hot-path handle contract: registration at
// construction, atomics at record time). One PipelineMetrics serves every
// run in the process; per-run numbers live in RunCounters.
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
	// the miners' work counters.
	PartitionsMined      *Counter
	PartitionMineSeconds *Histogram
	Miner                MinerCounters

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
				"Wall time of one MapReduce phase, per job family. On the streaming aggregated path phases overlap; times are cumulative watermarks that sum to job wall time.",
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
		Miner: MinerCounters{
			Explored: r.Counter("lash_miner_explored_total", "Candidate sequences whose support the local miners computed."),
			Output:   r.Counter("lash_miner_output_total", "Frequent patterns emitted by the local miners."),
		},

		CorpusLoadSeconds: r.Histogram("lash_corpus_load_seconds", "Duration of one corpus load/decode into an immutable database.", DurationBuckets),
		FListBuildSeconds: r.Histogram("lash_flist_build_seconds", "Duration of one f-list rank-space build from item frequencies.", DurationBuckets),
	}
}

// Phases selects the job family's phase histograms by MapReduce job name.
// Unknown names land in the "other" family; the nil receiver returns nil
// (which observes nothing).
func (m *PipelineMetrics) Phases(job string) *JobPhases {
	if m == nil {
		return nil
	}
	switch job {
	case "flist":
		return &m.FList
	case "partition+mine":
		return &m.Mine
	case "naive":
		return &m.Naive
	case "semi-naive":
		return &m.SemiNaive
	}
	return &m.Other
}

// Run is the observability carrier threaded through one mining run:
// an optional tracer (with the run's root span id) and optional
// process-wide metrics. A nil *Run disables both; a non-nil Run with nil
// fields enables either independently.
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

// PipelineMetricsOf returns the run's metrics handle bundle (nil-safe).
func (r *Run) PipelineMetricsOf() *PipelineMetrics {
	if r == nil {
		return nil
	}
	return r.Metrics
}

// TracerOf returns the run's tracer (nil-safe).
func (r *Run) TracerOf() *Tracer {
	if r == nil {
		return nil
	}
	return r.Tracer
}
