// Package lash is a library for large-scale generalized sequence mining
// with hierarchies, reproducing the LASH algorithm of Beedkar & Gemulla
// (SIGMOD 2015).
//
// LASH mines frequent generalized sequences from a collection of input
// sequences whose items are arranged in a hierarchy (a forest): pattern
// items may sit at any hierarchy level, so a pattern like "PERSON lives in
// CITY" is found even when it never occurs literally. Mining is performed on
// an in-process MapReduce substrate using hierarchy-aware item-based
// partitioning and the pivot sequence miner (PSM).
//
// Quick start:
//
//	b := lash.NewDatabaseBuilder()
//	b.AddParent("b1", "B")      // item b1 generalizes to B
//	b.AddSequence("a", "b1", "a", "b1")
//	b.AddSequence("a", "b3", "c", "c", "b2")
//	db, err := b.Build()
//	// handle err
//	res, err := lash.Mine(db, lash.Options{MinSupport: 2, MaxGap: 1, MaxLength: 3})
//	// handle err
//	for _, p := range res.Patterns {
//		fmt.Println(strings.Join(p.Items, " "), p.Support)
//	}
//
// # Cancellation and progress
//
// Long runs are controlled through contexts: MineContext is Mine with a
// context.Context — cancel it and the run aborts cooperatively, returning
// an error that matches ctx.Err() under errors.Is. Options.Progress
// receives live phase/partition/shuffle updates while a run is in flight.
// Mine is MineContext under context.Background().
//
// # Parameter sweeps
//
// A Database snapshot keeps its item frequencies once a run has counted
// them (§3.4 of the paper), so mining one snapshot again under a different
// σ, γ or λ skips the preprocessing job: reuse is per snapshot and
// automatic. Two runs on one *Database are therefore not independent —
// build a fresh snapshot to force the job.
package lash

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"lash/internal/baseline"
	"lash/internal/core"
	"lash/internal/faults"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
	"lash/internal/mapreduce"
	"lash/internal/miner"
	"lash/internal/obs"
	"lash/internal/pindex"
	"lash/internal/stats"
)

// Algorithm selects the distributed mining algorithm.
type Algorithm int

const (
	// AlgorithmLASH is hierarchy-aware item-based partitioning with local
	// mining (the paper's contribution; default).
	AlgorithmLASH Algorithm = iota
	// AlgorithmNaive counts every generalized subsequence directly (§3.2).
	AlgorithmNaive
	// AlgorithmSemiNaive prunes infrequent items via the generalized f-list
	// before counting (§3.3).
	AlgorithmSemiNaive
	// AlgorithmMGFSM ignores the hierarchy and runs item-based partitioning
	// with a BFS local miner — the MG-FSM baseline of §6.3.
	AlgorithmMGFSM
	// AlgorithmLASHFlat ignores the hierarchy but keeps PSM as the local
	// miner ("LASH without hierarchies", footnote 3 of the paper).
	AlgorithmLASHFlat
)

// String returns the algorithm's name.
func (a Algorithm) String() string {
	switch a {
	case AlgorithmLASH:
		return "LASH"
	case AlgorithmNaive:
		return "Naive"
	case AlgorithmSemiNaive:
		return "SemiNaive"
	case AlgorithmMGFSM:
		return "MG-FSM"
	case AlgorithmLASHFlat:
		return "LASH(flat)"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// LocalMiner selects the per-partition sequential miner used by
// AlgorithmLASH and AlgorithmLASHFlat.
type LocalMiner int

const (
	// MinerPSM is the pivot sequence miner with the right-expansion index
	// (default).
	MinerPSM LocalMiner = iota
	// MinerPSMNoIndex disables the right-expansion index.
	MinerPSMNoIndex
	// MinerBFS is the hierarchy-aware SPADE adaptation.
	MinerBFS
	// MinerDFS is the hierarchy-aware PrefixSpan adaptation.
	MinerDFS
)

func (m LocalMiner) kind() miner.Kind {
	switch m {
	case MinerPSMNoIndex:
		return miner.KindPSMNoIndex
	case MinerBFS:
		return miner.KindBFS
	case MinerDFS:
		return miner.KindDFS
	default:
		return miner.KindPSM
	}
}

// String returns the miner's user-facing name, as accepted by
// ParseLocalMiner — every valid value round-trips through it. (The paper's
// figure labels, "PSM+Index" etc., live on internal/miner.Kind.)
func (m LocalMiner) String() string {
	switch m {
	case MinerPSM:
		return "psm"
	case MinerPSMNoIndex:
		return "psm-noindex"
	case MinerBFS:
		return "bfs"
	case MinerDFS:
		return "dfs"
	}
	return fmt.Sprintf("LocalMiner(%d)", int(m))
}

// Options configures Mine.
type Options struct {
	// MinSupport is the minimum number of input sequences a pattern must
	// (generalizedly) occur in. Must be ≥ 1.
	MinSupport int64
	// MaxGap is the maximum number of items allowed between consecutive
	// pattern items (γ ≥ 0; 0 = contiguous, i.e. n-gram mining).
	MaxGap int
	// MaxLength bounds the pattern length (λ ≥ 2).
	MaxLength int
	// Algorithm selects the distributed algorithm (default AlgorithmLASH).
	Algorithm Algorithm
	// LocalMiner selects the per-partition miner (default MinerPSM).
	LocalMiner LocalMiner
	// Workers bounds real parallelism (default: all CPUs).
	Workers int
	// MaxIntermediate caps the records the naïve/semi-naïve baselines may
	// emit before the run fails (0 = unlimited). The count is
	// cumulative across attempts: under MaxAttempts a retried map task's
	// re-emissions count against the cap twice.
	MaxIntermediate int64
	// MemoryBudget, when positive, bounds the bytes the mining shuffle may
	// hold: the sorted runs it merges into partitions then live in temp
	// files instead of memory, so corpora whose shuffle exceeds RAM still
	// mine. It is the same shuffle either way — the budget only decides
	// where a run's bytes are kept — with byte-identical results (0 = keep
	// them in memory, never touch disk). Spill volume is reported in
	// Result.Stats. The budget caps shuffle memory, not total process
	// memory: each partition being mined must still fit (the paper's
	// partition-at-a-time contract), and a worker writing one aggregation
	// table out as a run holds, for that moment and outside the budget, a
	// sort scratch of at most 24 bytes per entry of that table beside the
	// run's encoded bytes.
	MemoryBudget int64
	// Restriction optionally thins the output to closed or maximal patterns
	// (computed relative to the mined output, i.e. supersequences up to
	// MaxLength). See §6.7 of the paper.
	Restriction Restriction
	// Progress, when non-nil, receives live progress events while the run
	// is in flight: one event per retired map task, per mined partition,
	// and a "done" event per MapReduce job (see ProgressEvent). Calls are
	// serialized; the hook must return quickly, as it runs on the mining
	// workers' time. Progress does not affect the mined output and is
	// ignored by CacheKey.
	Progress func(ProgressEvent)
	// Trace, when non-nil, collects the run's span tree — jobs, phases,
	// tasks, and per-partition mining intervals — into the given Trace for
	// later rendering with Trace.WriteJSON (the `lash -trace-out` flag).
	// Tracing does not affect the mined output and is ignored by CacheKey.
	Trace *Trace
	// Metrics, when non-nil, records the run's pipeline metrics (phase
	// duration histograms, shuffle/spill counters, miner work counters)
	// into the given process-wide handle bundle. Durations are observed as
	// each interval ends; the shuffle, spill and fault-tolerance counters
	// are added per MapReduce job, once, at the job's end, so they do not
	// move while a job runs. The field's type lives in
	// an internal package: it is settable only from inside this module
	// (lashd's /metrics endpoint uses it); external callers leave it nil.
	// Metrics do not affect the mined output and are ignored by CacheKey.
	Metrics *obs.PipelineMetrics
	// Deadline, when positive, bounds the run's wall time: a run still in
	// flight after the deadline is cancelled cooperatively and fails with
	// an error matching ErrDeadlineExceeded (and context.DeadlineExceeded)
	// under errors.Is. Zero means no deadline. Deadlines bound resources,
	// not output: they do not affect the mined output of runs that finish
	// in time, and are ignored by CacheKey.
	Deadline time.Duration
	// MaxAttempts, when > 1, re-executes MapReduce tasks that fail
	// transiently (I/O errors on the spill path, injected faults) up to
	// this many total attempts each, with capped exponential backoff.
	// Retried runs produce byte-identical output to fault-free runs.
	// 0 (or 1) disables retries. Ignored by CacheKey.
	MaxAttempts int
	// Faults, when non-nil, arms the pipeline's fault-injection points for
	// chaos testing (see internal/faults). The field's type lives in an
	// internal package: it is settable only from inside this module;
	// external callers leave it nil. Ignored by CacheKey.
	Faults *faults.Registry
	// Resume, when non-nil, seeds a delta re-mine from an earlier run's
	// Result.State: the run recomputes item frequencies incrementally from
	// the sequences appended since that run and decides, before anything is
	// shuffled, each partition's outcome. The run keeps the state's item
	// order, so an old item's partition keeps its old input: it is spliced
	// from the state if no appended sequence reaches it, else grown — mined
	// only for the patterns those sequences reach, the rest taken from the
	// state; a newly frequent item's partition is mined. A grown partition
	// whose input the state kept (states taken by Resume runs keep the input
	// of every partition they mined) reads its old sequences from there, and
	// only the appended sequences are partitioned for it. A state whose
	// lineage has drifted too far from frequency order (its resumes cost
	// over 1.1 times the partition sequences frequency order would have) is
	// not resumed: the run mines from scratch (RunStats.Rebased). The
	// patterns and frequent items are byte-identical to a from-scratch mine
	// (Result.Stats reports the dirty/reused/grown split). The state must come from a run
	// on an earlier version of the same database lineage with equal
	// canonical options (see MineState.ValidFor); baselines ignore Resume and
	// mine from scratch. Ignored by CacheKey.
	Resume *MineState
}

// MineState is the opaque, reusable residue of a mining run (Result.State):
// the corpus version it covered, plus the internal f-list counts, each
// partition's statistics and pattern set, which a Resume run splices from,
// and the run's whole result before any restriction, in canonical order,
// into which a Resume run merges what it mined. All of it is in item-id
// space: the state holds no names, and a Resume run names every pattern of
// its result afresh, so no two results of a lineage share a pattern's Items.
// A state taken by a Resume run also keeps the aggregated input of every
// partition that run mined, from which the next Resume run grows the
// partition without repartitioning its old sequences; a from-scratch run's
// state keeps no inputs. States are immutable and safe to share across
// goroutines; they are only meaningful for databases descended (by Append)
// from the snapshot they were taken on.
type MineState struct {
	ident   *corpusID
	version int
	numSeqs int
	key     string
	delta   *core.DeltaState
	size    int64 // SizeBytes, computed once when the run assembles the state
}

// CorpusVersion returns the Database.Version the state was taken at.
func (s *MineState) CorpusVersion() int {
	if s == nil {
		return 0
	}
	return s.version
}

// SizeBytes returns the deterministic byte accounting of what the state
// retains: the f-list counts and rank order, one record per partition,
// every partition pattern and every pattern of its near-frequent border
// (which a Resume run reads to leave old sequences unread) with its items at
// their element widths, the encoded input of each partition a Resume run
// kept (none in a from-scratch run's state), and one pattern header per
// pattern of the canonical list, whose items are the partitions'. The named
// list, Result.Patterns, is not the state's and is not charged here. Two
// runs over equal inputs report equal sizes, so a holder can charge the
// state against a memory budget.
func (s *MineState) SizeBytes() int64 {
	if s == nil {
		return 0
	}
	return s.size
}

// patternBytes is the size of a pattern's header, gsm.Pattern and Pattern
// alike: one slice header plus the support.
const patternBytes = 32

// deltaStateBytes is SizeBytes' accounting of d. A kept input shared with
// the state a record was reused from is charged again: each state is
// charged as if it were the only one held. The canonical list charges its
// headers only: its items are the partitions'.
func deltaStateBytes(d *core.DeltaState) int64 {
	const partBytes = 128 // core.DeltaPart: pivot (padded to a word), three counters, four slice headers
	size := int64(len(d.Freqs))*8 + int64(len(d.Order))*4 + int64(len(d.Parts))*partBytes + int64(len(d.Patterns))*patternBytes
	for i := range d.Parts {
		part := &d.Parts[i]
		size += int64(len(part.Input))
		for _, ps := range [][]gsm.Pattern{part.Patterns, part.Border, part.Crossed} {
			for _, p := range ps {
				size += patternBytes + int64(len(p.Items))*4
			}
		}
	}
	return size
}

// ValidFor reports whether the state can seed a delta re-mine of db under
// opt: db must descend from the snapshot the state was taken on (so the
// state's corpus is a prefix of db's sequences — checked by identity token,
// which holds across append forks for states taken at or before the fork
// point), with equal canonical options.
func (s *MineState) ValidFor(db *Database, opt Options) bool {
	return s != nil && s.delta != nil && s.ident != nil &&
		db.identAt(s.version) == s.ident &&
		s.numSeqs <= db.NumSequences() &&
		s.key == opt.CacheKey()
}

// ProgressEvent is one live progress update of a mining run.
//
// A run executes one or two MapReduce jobs (a preprocessing "flist" job for
// LASH variants and semi-naïve, then the main mining job); Job names which
// one the event describes. On the mining job of the LASH variants the
// phases overlap: partitions are mined (Phase "reduce") while map tasks are
// still retiring.
type ProgressEvent struct {
	// Job is the MapReduce job name: "flist", "partition+mine", "naive",
	// or "semi-naive".
	Job string
	// Phase is "map", "reduce", or "done" (the job finished, successfully
	// or not).
	Phase string
	// MapTasksDone / MapTasks count retired input splits.
	MapTasksDone int
	MapTasks     int
	// PartitionsMined / Partitions count completed reduce partitions. For
	// the LASH variants a partition completes when its local mining ends.
	PartitionsMined int
	Partitions      int
	// ShuffleRecords / ShuffleBytes are the aggregated records and encoded
	// bytes shuffled so far (Hadoop's MAP_OUTPUT_BYTES).
	ShuffleRecords int64
	ShuffleBytes   int64
	// SpillRuns / SpillBytes are the sorted runs and physical bytes the
	// shuffle has spilled to temp files so far. Zero unless
	// Options.MemoryBudget forced the run to disk.
	SpillRuns  int64
	SpillBytes int64
	// TaskRetries counts task re-executions after transient failures
	// (Options.MaxAttempts); FaultsInjected counts synthetic faults
	// injected so far. Both zero on healthy, un-instrumented runs.
	TaskRetries    int64
	FaultsInjected int64
}

// Restriction selects an output restriction.
type Restriction int

const (
	// RestrictNone returns all frequent generalized sequences (default).
	RestrictNone Restriction = iota
	// RestrictClosed keeps only patterns whose every supersequence —
	// extension or same-length specialization — has a lower support.
	RestrictClosed
	// RestrictMaximal keeps only patterns with no frequent supersequence.
	RestrictMaximal
)

// ErrDeadlineExceeded reports that a run outlived Options.Deadline and was
// cancelled. Errors returned by deadline-exceeded runs match it (and
// context.DeadlineExceeded) under errors.Is.
var ErrDeadlineExceeded = errors.New("lash: run deadline exceeded")

// Pattern is one mined generalized sequence.
type Pattern struct {
	// Items are the pattern's item names, possibly from different hierarchy
	// levels.
	Items []string
	// Support is the number of input sequences the pattern occurs in,
	// directly or in specialized form.
	Support int64
}

// Result is the output of Mine.
type Result struct {
	// Patterns holds the frequent generalized sequences (2 ≤ length ≤
	// MaxLength) in canonical order: by length, then lexicographically by
	// vocabulary item id, which is the order items were interned in, not
	// their names' or frequencies' order. The list and its patterns' Items
	// belong to this Result alone: its State holds the patterns in item-id
	// space, and a run that resumes from it (Options.Resume) names its own.
	// Index reads the list once, on its first call, and keeps no reference
	// to it, so a holder that has built the index may drop the list.
	Patterns []Pattern
	// FrequentItems are the frequent single items with their hierarchy-aware
	// document frequencies (the generalized f-list).
	FrequentItems []Pattern
	// NumPartitions is the number of partitions mined (LASH variants only).
	NumPartitions int
	// Explored counts candidate sequences whose support was computed by the
	// local miners (LASH variants only). A delta run (Options.Resume) mines
	// in its state's item order, which partitions differently from a
	// from-scratch mine's, and counts a grown partition's candidates only as
	// far as its appended sequences reach, so its Explored is not a cold
	// mine's.
	Explored int64
	// Stats reports MapReduce phase measurements of the main mining job.
	Stats RunStats
	// State is the run's reusable residue: every run of a LASH variant
	// (AlgorithmLASH, AlgorithmLASHFlat, AlgorithmMGFSM) returns one; the
	// baselines have no partitions to keep and leave it nil. Pass
	// it as Options.Resume to delta-mine a later version of the same
	// database lineage. It does not depend on Options.Restriction.
	State *MineState

	// forest is the hierarchy the patterns were named under, stashed by
	// MineContext so Index() can attach level and roll-up tables. nil for
	// hand-assembled Results — Index() then builds a flat index.
	forest *hierarchy.Forest
	// index memoizes Index(): the serving index is immutable and every
	// caller can share one copy.
	indexOnce sync.Once
	index     *pindex.Index
}

// Index returns the serving index over the result's patterns: an immutable
// pattern index supporting top-k, min-support, contains-item, prefix,
// hierarchy-level and roll-up queries without scanning (see
// lash/internal/pindex for the layout contract). The index is built on
// first call and memoized — concurrent callers share one copy — so results
// can be served at query rates far above mining rates. The receiver must
// not be copied by value once Index has been called.
//
// The returned type lives in an internal package: external callers can use
// every method on it but cannot construct one except through this accessor.
func (r *Result) Index() *pindex.Index {
	r.indexOnce.Do(func() {
		pats := make([]pindex.Pattern, len(r.Patterns))
		for i, p := range r.Patterns {
			pats[i] = pindex.Pattern{Items: p.Items, Support: p.Support}
		}
		r.index = pindex.Build(pats, r.forest)
	})
	return r.index
}

// RunStats summarizes the MapReduce work of a run.
type RunStats struct {
	// MapOutputBytes is the encoded volume shuffled between the map and
	// reduce phases (Hadoop's MAP_OUTPUT_BYTES).
	MapOutputBytes int64
	// MapOutputRecords counts shuffled records (after combining).
	MapOutputRecords int64
	// SpillRuns and SpillBytes report the sorted runs and physical bytes
	// the shuffle spilled to temp files. Zero unless Options.MemoryBudget
	// forced the run to disk.
	SpillRuns  int64
	SpillBytes int64
	// TaskRetries counts task re-executions after transient failures
	// (Options.MaxAttempts); FaultsInjected counts synthetic faults the
	// run injected (Options.Faults). Unlike the fields above, both sum
	// over all of the run's jobs, preprocessing included. Zero on healthy,
	// un-instrumented runs.
	TaskRetries    int64
	FaultsInjected int64
	// DeltaPartitionsDirty and DeltaPartitionsReused report, for delta runs
	// (Options.Resume), how many partitions were mined vs. spliced from the
	// resumed state (together, NumPartitions). DeltaPartitionsGrown counts
	// the dirty partitions that were mined incrementally: only for the
	// patterns their appended sequences reach, the rest taken from the
	// state. DeltaPartitionsLean counts the grown partitions whose mine read
	// none of their old sequences: the resumed state's patterns and border
	// gave every support it needed. All zero for from-scratch runs.
	DeltaPartitionsDirty  int64
	DeltaPartitionsReused int64
	DeltaPartitionsGrown  int64
	DeltaPartitionsLean   int64
	// Rebased reports a Resume run whose state had drifted too far from
	// frequency order (see Options.Resume): it mined every partition from
	// scratch, in frequency order, and its state starts the lineage's
	// order afresh.
	Rebased bool
}

// Mine runs the selected algorithm over the database. It is
// MineContext(context.Background(), db, opt).
func Mine(db *Database, opt Options) (*Result, error) {
	return MineContext(context.Background(), db, opt)
}

// MineContext runs the selected algorithm over the database under a
// context. Cancelling ctx aborts the run cooperatively — between MapReduce
// tasks and at emit points inside them — and returns promptly with an error
// matching ctx.Err() (and the cancellation cause, if one was set) under
// errors.Is. A context that is already done returns before any job runs.
func MineContext(ctx context.Context, db *Database, opt Options) (*Result, error) {
	if db == nil || db.db == nil {
		return nil, fmt.Errorf("lash: nil database (use NewDatabaseBuilder().Build())")
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	params := gsm.Params{Sigma: opt.MinSupport, Gamma: opt.MaxGap, Lambda: opt.MaxLength}
	mr := mapreduce.Config{
		Workers:      opt.Workers,
		MemoryBudget: opt.MemoryBudget,
		Retry:        mapreduce.RetryPolicy{MaxAttempts: opt.MaxAttempts},
		Faults:       opt.Faults,
	}
	if opt.Deadline > 0 {
		// The deadline rides the run's context so every cooperative
		// cancellation point honors it; the cause marks the failure as a
		// deadline (not a caller cancellation) for errors.Is.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, opt.Deadline,
			fmt.Errorf("%w after %v", ErrDeadlineExceeded, opt.Deadline))
		defer cancel()
	}
	if opt.Progress != nil {
		mr.Progress = progressAdapter(opt.Progress)
	}
	if opt.Trace != nil || opt.Metrics != nil {
		runObs := &obs.Run{Tracer: opt.Trace.handle(), Metrics: opt.Metrics}
		if tr := runObs.Tracer; tr != nil {
			// One root span for the whole run; every job parents to it, so
			// the emitted tree has a single top-level mining node whose
			// children's phase durations sum to the jobs' wall times. A
			// trace from NewTraceUnder names a root its owner records.
			if runObs.Root = opt.Trace.root; runObs.Root == 0 {
				runObs.Root = tr.NextID()
				begin := time.Now()
				defer func() {
					tr.Record(obs.SpanRecord{ID: runObs.Root, Name: "mine", Partition: -1,
						Start: begin, Duration: time.Since(begin)})
				}()
			}
		}
		mr.Obs = runObs
	}

	f := db.db.Forest
	var (
		res *core.Result
		err error
		// flist is the preprocessing job this run paid for, if any: its
		// retries and faults count toward the run's.
		flist *mapreduce.Stats
	)
	switch opt.Algorithm {
	case AlgorithmLASH, AlgorithmLASHFlat, AlgorithmMGFSM:
		co := core.Options{Params: params, Miner: opt.LocalMiner.kind(), MR: mr}
		co.Flat = opt.Algorithm != AlgorithmLASH
		if opt.Algorithm == AlgorithmMGFSM {
			co.Miner = miner.KindBFS
		}
		// Resume only applies to the partitioned LASH variants; the
		// baselines have no per-partition structure to reuse and silently
		// mine from scratch. An invalid state is an error rather than a
		// silent cold mine, so a differential harness cannot accidentally
		// "pass" without exercising the delta path.
		if opt.Resume != nil {
			if !opt.Resume.ValidFor(db, opt) {
				return nil, fmt.Errorf("lash: Resume state is not valid for this database and options (want the State of a run on a snapshot this database descends from, with equal canonical options)")
			}
			co.Prev = opt.Resume.delta
		} else {
			// A delta run extends its state's item counts; every other run
			// takes the snapshot's, counting them if it is the first.
			co.Freqs, flist, err = db.frequencies(ctx, co.Flat, mr)
			if err != nil {
				return nil, err
			}
		}
		res, err = core.Mine(ctx, db.db, co)
	case AlgorithmNaive:
		res, err = baseline.MineNaive(ctx, db.db, baseline.Options{Params: params, MR: mr, MaxEmit: opt.MaxIntermediate})
	case AlgorithmSemiNaive:
		res, err = baseline.MineSemiNaive(ctx, db.db, baseline.Options{Params: params, MR: mr, MaxEmit: opt.MaxIntermediate})
	default:
		return nil, fmt.Errorf("lash: unknown algorithm %d", int(opt.Algorithm))
	}
	if err != nil {
		return nil, err
	}

	all := translate(f, res)
	out := &Result{Patterns: all, NumPartitions: res.NumPartitions, Explored: res.Miner.Explored, forest: f}
	switch opt.Restriction {
	case RestrictNone:
	case RestrictClosed:
		out.Patterns = restrict(all, res.Patterns, stats.FilterClosed(restrictionForest(db, res), res.Patterns))
	case RestrictMaximal:
		out.Patterns = restrict(all, res.Patterns, stats.FilterMaximal(restrictionForest(db, res), res.Patterns))
	default:
		return nil, fmt.Errorf("lash: unknown restriction %d", int(opt.Restriction))
	}
	if res.Delta != nil {
		out.State = &MineState{
			ident:   db.identAt(db.Version()),
			version: db.Version(),
			numSeqs: db.NumSequences(),
			key:     opt.CacheKey(),
			delta:   res.Delta,
			size:    deltaStateBytes(res.Delta),
		}
	}
	out.Stats.DeltaPartitionsDirty = int64(res.DeltaDirty)
	out.Stats.DeltaPartitionsReused = int64(res.DeltaReused)
	out.Stats.DeltaPartitionsGrown = int64(res.DeltaGrown)
	out.Stats.DeltaPartitionsLean = int64(res.DeltaLean)
	out.Stats.Rebased = res.Rebased
	for _, p := range res.FrequentItems {
		out.FrequentItems = append(out.FrequentItems, Pattern{
			Items:   []string{f.Name(p.Items[0])},
			Support: p.Support,
		})
	}
	if res.Jobs.Mine != nil {
		out.Stats.MapOutputBytes = res.Jobs.Mine.MapOutputBytes
		out.Stats.MapOutputRecords = res.Jobs.Mine.MapOutputRecords
		out.Stats.SpillRuns = res.Jobs.Mine.SpillRuns
		out.Stats.SpillBytes = res.Jobs.Mine.SpillBytes
		out.Stats.TaskRetries = res.Jobs.Mine.TaskRetries
		out.Stats.FaultsInjected = res.Jobs.Mine.FaultsInjected
	}
	// Preprocessing-job retries/faults count toward the run too (the mining
	// job's other counters keep their main-job-only meaning). The semi-naïve
	// baseline runs its own f-list job; the LASH variants' was counted above.
	if flist == nil {
		flist = res.Jobs.FList
	}
	if flist != nil {
		out.Stats.TaskRetries += flist.TaskRetries
		out.Stats.FaultsInjected += flist.FaultsInjected
	}
	// One span for the work after the jobs: the canonical merge, the naming
	// and the restriction.
	mr.Obs.Record(obs.SpanRecord{Name: "assemble", Partition: -1, Start: res.JobsDone, Duration: time.Since(res.JobsDone)}, nil)
	return out, nil
}

// translate names the patterns of res through f. The names of one call
// share one array.
func translate(f *hierarchy.Forest, res *core.Result) []Pattern {
	if len(res.Patterns) == 0 {
		return nil
	}
	n := 0
	for _, p := range res.Patterns {
		n += len(p.Items)
	}
	names := make([]string, 0, n)
	out := make([]Pattern, len(res.Patterns))
	for i, p := range res.Patterns {
		start := len(names)
		for _, w := range p.Items {
			names = append(names, f.Name(w))
		}
		out[i] = Pattern{Items: names[start:len(names):len(names)], Support: p.Support}
	}
	return out
}

// restrict returns the translated patterns of all, the translation of
// mined, that kept (a subsequence of mined) holds.
func restrict(all []Pattern, mined, kept []gsm.Pattern) []Pattern {
	if len(kept) == 0 {
		return nil
	}
	out := make([]Pattern, 0, len(kept))
	i := 0
	for _, p := range kept {
		for !slices.Equal(mined[i].Items, p.Items) {
			i++
		}
		out = append(out, all[i])
		i++
	}
	return out
}

// progressAdapter bridges the substrate's concurrent progress snapshots to
// the user's hook, serializing calls so the hook need not be thread-safe.
func progressAdapter(fn func(ProgressEvent)) func(mapreduce.Progress) {
	var mu sync.Mutex
	return func(p mapreduce.Progress) {
		mu.Lock()
		defer mu.Unlock()
		fn(ProgressEvent{
			Job:             p.Job,
			Phase:           p.Phase,
			MapTasksDone:    p.MapTasksDone,
			MapTasks:        p.MapTasks,
			PartitionsMined: p.ReduceTasksDone,
			Partitions:      p.ReduceTasks,
			ShuffleRecords:  p.ShuffleRecords,
			ShuffleBytes:    p.ShuffleBytes,
			SpillRuns:       p.SpillRuns,
			SpillBytes:      p.SpillBytes,
			TaskRetries:     p.TaskRetries,
			FaultsInjected:  p.FaultsInjected,
		})
	}
}

// restrictionForest picks the hierarchy the restriction must be computed
// under: the one the algorithm actually mined with (flat algorithms use the
// flattened vocabulary).
func restrictionForest(db *Database, res *core.Result) *hierarchy.Forest {
	if res.FList != nil {
		return res.FList.Forest()
	}
	return db.db.Forest
}
