package server

import (
	"fmt"
	"runtime"
	"time"

	"lash"
)

// OptionsSpec is the wire form of lash.Options: enums travel as the names
// the CLI accepts (see lash.ParseAlgorithm and friends).
type OptionsSpec struct {
	MinSupport  int64  `json:"min_support"`
	MaxGap      int    `json:"max_gap"`
	MaxLength   int    `json:"max_length"`
	Algorithm   string `json:"algorithm,omitempty"`
	LocalMiner  string `json:"local_miner,omitempty"`
	Restriction string `json:"restriction,omitempty"`
	// Workers above the server's GOMAXPROCS are clamped to it.
	Workers         int   `json:"workers,omitempty"`
	MaxIntermediate int64 `json:"max_intermediate,omitempty"`
	// MemoryBudget bounds the job's shuffle memory in bytes by keeping the
	// shuffle's sorted runs in temp files instead of memory (see
	// lash.Options.MemoryBudget). 0 = in memory. Does not affect the mined
	// result, so cache hits and singleflight coalescing work across
	// different budgets.
	MemoryBudget int64 `json:"memory_budget,omitempty"`
	// DeadlineMS, when positive, bounds the run's mining wall time in
	// milliseconds: a run still in flight past it fails with a timeout
	// error. The server's -max-job-time cap still applies — the tighter
	// bound wins. Like memory_budget, deadlines decide whether a run
	// finishes, never what it outputs, so caching and coalescing work
	// across different values.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// MaxAttempts, when > 1, re-executes transiently-failed MapReduce
	// tasks (spill I/O errors and the like) up to this many total attempts
	// each (see lash.Options.MaxAttempts). Retried runs are differentially
	// tested byte-identical to fault-free runs, so this too is invisible to
	// the cache key.
	MaxAttempts int `json:"max_attempts,omitempty"`
}

// toOptions parses and validates the spec.
func (o OptionsSpec) toOptions() (lash.Options, error) {
	alg, err := lash.ParseAlgorithm(o.Algorithm)
	if err != nil {
		return lash.Options{}, err
	}
	mnr, err := lash.ParseLocalMiner(o.LocalMiner)
	if err != nil {
		return lash.Options{}, err
	}
	restr, err := lash.ParseRestriction(o.Restriction)
	if err != nil {
		return lash.Options{}, err
	}
	deadline := time.Duration(o.DeadlineMS) * time.Millisecond
	if deadline/time.Millisecond != time.Duration(o.DeadlineMS) {
		// The product wrapped: unchecked, an absurdly long deadline would run
		// as a microsecond one, or be refused as a negative nobody sent.
		return lash.Options{}, fmt.Errorf("deadline_ms: %d ms does not fit a time.Duration", o.DeadlineMS)
	}
	opt := lash.Options{
		MinSupport:  o.MinSupport,
		MaxGap:      o.MaxGap,
		MaxLength:   o.MaxLength,
		Algorithm:   alg,
		LocalMiner:  mnr,
		Restriction: restr,
		// More mining goroutines than cores buy nothing, and each one sizes
		// map tasks, reduce partitions and table arrays: an unclamped request
		// could ask the process out of memory.
		Workers:         min(o.Workers, runtime.GOMAXPROCS(0)),
		MaxIntermediate: o.MaxIntermediate,
		MemoryBudget:    o.MemoryBudget,
		Deadline:        deadline,
		MaxAttempts:     o.MaxAttempts,
	}
	if err := opt.Validate(); err != nil {
		return lash.Options{}, err
	}
	return opt, nil
}

// MineRequest is the body of POST /v1/mine.
type MineRequest struct {
	// Database names a registered database.
	Database string `json:"database"`
	// Version selects the corpus version to mine (0 = latest). Older
	// versions stay mineable after appends.
	Version int `json:"version,omitempty"`
	// Options configures the run.
	Options OptionsSpec `json:"options"`
	// Wait blocks the request until the job finishes and returns the full
	// JobView instead of an immediate 202.
	Wait bool `json:"wait,omitempty"`
}

// PatternView is one mined pattern on the wire.
type PatternView struct {
	Items   []string `json:"items"`
	Support int64    `json:"support"`
}

// ResultView is a mining result on the wire.
type ResultView struct {
	Patterns      []PatternView `json:"patterns"`
	FrequentItems []PatternView `json:"frequent_items,omitempty"`
	// CorpusVersion is the corpus version the result was mined from.
	CorpusVersion    int   `json:"corpus_version"`
	NumPartitions    int   `json:"num_partitions"`
	Explored         int64 `json:"explored"`
	MapOutputBytes   int64 `json:"map_output_bytes"`
	MapOutputRecords int64 `json:"map_output_records"`
	// SpillRuns/SpillBytes report shuffle spilling forced by the job's
	// memory_budget (0 when the run stayed in memory).
	SpillRuns  int64 `json:"spill_runs,omitempty"`
	SpillBytes int64 `json:"spill_bytes,omitempty"`
	// TaskRetries/FaultsInjected report the run's fault-tolerance work:
	// task re-executions after transient failures (max_attempts) and
	// synthetic faults injected into the run. Both 0 on healthy runs.
	TaskRetries    int64 `json:"task_retries,omitempty"`
	FaultsInjected int64 `json:"faults_injected,omitempty"`
	// DeltaPartitionsDirty/DeltaPartitionsReused report, for delta re-mines
	// of an appended corpus, how many partitions were mined vs. spliced
	// from the previous run's state; DeltaPartitionsGrown, how many of the
	// dirty ones were grown (mined only for what the appended sequences
	// reach). All 0 for from-scratch runs.
	DeltaPartitionsDirty  int64 `json:"delta_partitions_dirty,omitempty"`
	DeltaPartitionsReused int64 `json:"delta_partitions_reused,omitempty"`
	DeltaPartitionsGrown  int64 `json:"delta_partitions_grown,omitempty"`
}

func viewPatterns(ps []lash.Pattern) []PatternView {
	out := make([]PatternView, len(ps))
	for i, p := range ps {
		out[i] = PatternView{Items: p.Items, Support: p.Support}
	}
	return out
}

// JobView is a job on the wire. RuntimeMS is the job's mining wall-clock
// duration: final once the job is terminal, live (time mined so far) while
// it is running.
type JobView struct {
	ID       string `json:"job_id"`
	Database string `json:"database"`
	// CorpusVersion is the corpus version the job mines (jobs pin the
	// version current at submission; appends never retarget them).
	CorpusVersion int       `json:"corpus_version,omitempty"`
	Status        JobStatus `json:"status"`
	Cached        bool      `json:"cached"`
	Coalesced     int       `json:"coalesced"`
	Error         string    `json:"error,omitempty"`
	Created       time.Time `json:"created"`
	// QueueMS is how long the job waited for a worker slot: final once it
	// started (or terminally never started), live while still queued.
	QueueMS   int64       `json:"queue_ms,omitempty"`
	RuntimeMS int64       `json:"runtime_ms,omitempty"`
	Result    *ResultView `json:"result,omitempty"`
}

// view snapshots a job, without its Result: the (possibly large) pattern
// list never passes through a view — writeJobResult renders it straight
// from the cached lash.Result.
func (m *manager) view(j *job) JobView {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := JobView{
		ID:            j.id,
		Database:      j.dbName,
		CorpusVersion: j.version,
		Status:        j.status,
		Cached:        j.cached,
		Coalesced:     j.coalesced,
		Created:       j.created,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	switch {
	case !j.finished.IsZero() && !j.started.IsZero():
		v.RuntimeMS = j.finished.Sub(j.started).Milliseconds()
	case !j.started.IsZero():
		v.RuntimeMS = time.Since(j.started).Milliseconds()
	}
	switch {
	case !j.started.IsZero():
		v.QueueMS = j.started.Sub(j.created).Milliseconds()
	case !j.finished.IsZero(): // cancelled while still queued
		v.QueueMS = j.finished.Sub(j.created).Milliseconds()
	default: // still waiting for a slot
		v.QueueMS = time.Since(j.created).Milliseconds()
	}
	return v
}

// StatsView is the body of GET /v1/stats.
type StatsView struct {
	UptimeSeconds int64      `json:"uptime_seconds"`
	Databases     int        `json:"databases"`
	Jobs          JobStats   `json:"jobs"`
	Cache         CacheStats `json:"cache"`
}

// StreamTrailer is the final NDJSON record of POST /v1/mine/stream. It is
// distinguishable from pattern records by its "done" field, names the job
// that answered the request, and reports either the run's summary or why
// the job has no result to send. RuntimeMS is the request's wall time.
type StreamTrailer struct {
	Done             bool          `json:"done"` // always true
	JobID            string        `json:"job_id"`
	Error            string        `json:"error,omitempty"`
	Patterns         int           `json:"patterns"` // pattern records streamed before this trailer
	FrequentItems    []PatternView `json:"frequent_items,omitempty"`
	NumPartitions    int           `json:"num_partitions,omitempty"`
	Explored         int64         `json:"explored,omitempty"`
	MapOutputBytes   int64         `json:"map_output_bytes,omitempty"`
	MapOutputRecords int64         `json:"map_output_records,omitempty"`
	SpillRuns        int64         `json:"spill_runs,omitempty"`
	SpillBytes       int64         `json:"spill_bytes,omitempty"`
	TaskRetries      int64         `json:"task_retries,omitempty"`
	FaultsInjected   int64         `json:"faults_injected,omitempty"`
	RuntimeMS        int64         `json:"runtime_ms"`
}
