// Package core wires LASH together (§3.4, Alg. 1 of the paper): a
// preprocessing MapReduce job computes the generalized f-list and the total
// item order; a second job partitions the database with the hierarchy-aware
// rewrites of internal/rewrite (map side) and mines every partition locally
// with a pluggable sequential miner (reduce side).
//
// The same engine also provides the paper's comparison points:
//
//   - MG-FSM (§6.3): sequence mining without hierarchies — the identical
//     pipeline run on a flattened vocabulary with the BFS local miner.
//   - "flat LASH": MG-FSM's pipeline with PSM as the local miner
//     (footnote 3 of the paper).
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lash/internal/flist"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
	"lash/internal/mapreduce"
	"lash/internal/miner"
	"lash/internal/obs"
	"lash/internal/rewrite"
	"lash/internal/seqenc"
)

// Options configures a LASH run.
type Options struct {
	Params gsm.Params

	// Miner selects the local mining algorithm (default: PSM with the
	// right-expansion index).
	Miner miner.Kind

	// Flat disables the hierarchy: items are mined as-is (MG-FSM mode when
	// combined with Miner = KindBFS).
	Flat bool

	// Rewrites selects the partition-construction strength (default: the
	// full pipeline). The weaker modes are correct but wasteful; they exist
	// for the ablation study of the §4 discussion.
	Rewrites rewrite.Mode

	// Freqs, when non-nil, supplies precomputed hierarchy-aware item
	// frequencies (indexed by vocabulary item) and skips the f-list job —
	// the reuse the paper describes in §3.4 ("item frequencies and total
	// order can be reused when LASH is run with different parameters; only
	// the generalized f-list needs to be adapted"). Must match the database
	// and hierarchy mode (flat or not) of this run.
	Freqs []int64

	// MR configures the MapReduce substrate.
	MR mapreduce.Config

	// Prev, when non-nil, switches the run to delta mode over an
	// append-only extension of the corpus the state (an earlier run's
	// Result.Delta) covers: frequencies are recomputed incrementally from
	// the appended suffix, and each partition is reused (spliced from the
	// state, neither shuffled nor mined), grown (mined only for the patterns
	// its appended sequences reach, the rest taken from the state) or
	// re-mined (see delta.go). A grown partition whose record in Prev kept
	// its input reads its old sequences from there, so only the appended
	// sequences are shuffled for it; the run's own state keeps the input of
	// every partition it mined (DeltaPart.Input). The run keeps Prev's rank
	// order: Patterns and FrequentItems are byte-identical to a from-scratch
	// run, and every other statistic to a from-scratch run under that order,
	// but for Miner.Explored, which a grown partition leaves at most the cold
	// count. A Prev that drifted (DeltaState.Drift) is not resumed: the run
	// mines from scratch instead (Result.Rebased). The caller must guarantee
	// Prev comes from a run over a prefix of db.Seqs under the same Params,
	// Miner, Flat, and Rewrites.
	Prev *DeltaState
}

// JobStats carries the per-job MapReduce statistics.
type JobStats struct {
	FList *mapreduce.Stats
	Mine  *mapreduce.Stats
}

// Result is the output of a LASH run.
type Result struct {
	// Patterns are the frequent generalized sequences, 2 ≤ |S| ≤ λ, in
	// canonical order (gsm.SortPatterns), in the vocabulary item space: item
	// ids are shared between the flat and hierarchical forests. The list is
	// the run's state's (Delta.Patterns): it is read-only.
	Patterns []gsm.Pattern
	// FrequentItems are the length-1 frequent items with their generalized
	// f-list frequencies (determined during preprocessing; the problem
	// statement excludes them from Patterns), in frequency order whatever
	// their ranks (flist.FList.ByFrequency).
	FrequentItems []gsm.Pattern
	// NumPartitions is the number of non-empty partitions mined.
	NumPartitions int
	// PartitionSeqs is the total number of (aggregated) sequences across all
	// partitions; MaxPartitionSeqs is the largest single partition. Their
	// ratio exposes the skew the rewrites are designed to fight (§4).
	PartitionSeqs    int64
	MaxPartitionSeqs int64
	// Miner aggregates the local miners' work counters.
	Miner miner.Stats
	// Jobs carries MapReduce phase times and counters.
	Jobs JobStats
	// JobsDone is when the run's last MapReduce job returned: what follows
	// assembles the result (the canonical merge, and the caller's naming).
	JobsDone time.Time
	// FList exposes the rank space for downstream analysis.
	FList *flist.FList
	// Delta is the run's reusable residue, for seeding a delta re-mine of
	// an appended corpus via Options.Prev. Every run returns one.
	Delta *DeltaState
	// DeltaDirty and DeltaReused count, for delta runs (Options.Prev), the
	// partitions that were mined vs. spliced from the previous state;
	// DeltaGrown counts the dirty ones that were grown rather than re-mined,
	// and DeltaLean the grown ones whose mine read no old sequence (a lean
	// root, miner.Prepass).
	DeltaDirty  int
	DeltaReused int
	DeltaGrown  int
	DeltaLean   int
	// Rebased reports a run given an Options.Prev that had drifted: it mined
	// every partition from scratch (DeltaDirty), re-ranking by frequency, and
	// merged its patterns into Prev's.
	Rebased bool
}

// Mine runs LASH (or one of its flat variants) over the database.
// Cancelling ctx aborts the run cooperatively and returns the wrapped
// ctx.Err() (see internal/mapreduce).
func Mine(ctx context.Context, db *gsm.Database, opt Options) (*Result, error) {
	return MineUnder(ctx, db, opt, nil)
}

// MineUnder is Mine, but a run with no opt.Prev ranks its frequent items in
// order (flist.Build) if that is non-nil: the order a delta run keeps, under
// which its statistics equal a from-scratch run's. Tests mine that
// reference with it; production runs call Mine.
func MineUnder(ctx context.Context, db *gsm.Database, opt Options, order []hierarchy.Item) (*Result, error) {
	if err := opt.Params.Validate(); err != nil {
		return nil, err
	}
	if err := db.Validate(); err != nil {
		return nil, err
	}
	work := db
	if opt.Flat {
		work = &gsm.Database{Seqs: db.Seqs, Forest: flatForest(db.Forest)}
	}

	var (
		fl      *flist.FList
		flStats *mapreduce.Stats
		plan    *deltaPlan
		freq    []int64
		err     error
	)
	switch {
	case opt.Prev != nil:
		// Delta mode: frequencies are recomputed incrementally from the
		// appended suffix (no f-list job), and the plan decides which
		// partitions are spliced from the previous state or grown. A drifted
		// lineage goes cold, re-ranked by frequency.
		if freq, err = deltaFrequencies(work, opt.Prev); err != nil {
			return nil, err
		}
		if drifted(opt.Prev.Load, opt.Prev.FreqLoad) {
			fl, err = buildFList(opt.MR.Obs, work.Forest, freq, opt.Params.Sigma)
			break
		}
		if fl, err = flist.Build(work.Forest, freq, opt.Params.Sigma, opt.Prev.Order...); err == nil {
			plan = planDelta(work, fl, opt)
			plan.freqLoad, err = plan.countByFrequency(work, fl, freq, opt)
		}
	case opt.Freqs == nil:
		if freq, flStats, err = flistFrequencies(ctx, work, opt.MR); err == nil {
			fl, err = buildFList(opt.MR.Obs, work.Forest, freq, opt.Params.Sigma, order...)
		}
	default:
		fl, err = buildFList(opt.MR.Obs, work.Forest, opt.Freqs, opt.Params.Sigma, order...)
	}
	if err != nil {
		return nil, err
	}
	res, err := mineJob(ctx, work, fl, opt, plan)
	if err != nil {
		return nil, err
	}
	res.Rebased = opt.Prev != nil && plan == nil
	res.Jobs.FList = flStats
	res.FList = fl
	for _, w := range fl.ByFrequency() {
		res.FrequentItems = append(res.FrequentItems, gsm.Pattern{Items: gsm.Sequence{w}, Support: fl.Freq(w)})
	}
	return res, nil
}

// flatForest rebuilds the vocabulary with no hierarchy edges, preserving
// item ids.
func flatForest(f *hierarchy.Forest) *hierarchy.Forest {
	names := make([]string, f.Size())
	for w := 0; w < f.Size(); w++ {
		names[w] = f.Name(hierarchy.Item(w))
	}
	return hierarchy.Flat(names)
}

// Frequencies runs only the frequency-counting part of the preprocessing
// job and returns the per-item hierarchy-aware document frequencies, for
// reuse across Mine calls via Options.Freqs. It reads the counts straight
// off the f-list job output without deriving a rank space (no σ is involved
// in the counts themselves).
func Frequencies(ctx context.Context, db *gsm.Database, flat bool, cfg mapreduce.Config) ([]int64, error) {
	freq, _, err := CountFrequencies(ctx, db, flat, cfg)
	return freq, err
}

// CountFrequencies is Frequencies, also returning the counting job's Stats.
func CountFrequencies(ctx context.Context, db *gsm.Database, flat bool, cfg mapreduce.Config) ([]int64, *mapreduce.Stats, error) {
	work := db
	if flat {
		work = &gsm.Database{Seqs: db.Seqs, Forest: flatForest(db.Forest)}
	}
	if err := work.Validate(); err != nil {
		return nil, nil, err
	}
	return flistFrequencies(ctx, work, cfg)
}

// flistFrequencies is the MapReduce core of the preprocessing job (§3.3):
// map emits each item of G1(T) once per sequence; the shuffle sums. It
// returns the per-item hierarchy-aware document frequencies.
func flistFrequencies(ctx context.Context, db *gsm.Database, cfg mapreduce.Config) ([]int64, *mapreduce.Stats, error) {
	type itemFreq struct {
		w hierarchy.Item
		n int64
	}
	// The job's tables hold one entry per (map task, item): a budget would
	// only turn them into MapTasks × ReduceTasks tiny spill runs.
	cfg.MemoryBudget = 0
	scratch := sync.Pool{New: func() any { return new([]hierarchy.Item) }}
	out, stats, err := mapreduce.RunAgg(ctx, cfg, db.Seqs, mapreduce.AggJob[gsm.Sequence, itemFreq]{
		Name: "flist",
		Map: func(t gsm.Sequence, emit func(uint32, []byte, int64)) {
			g1 := scratch.Get().(*[]hierarchy.Item)
			defer scratch.Put(g1)
			*g1 = gsm.AppendItemGeneralizations((*g1)[:0], db.Forest, t)
			for _, g := range *g1 {
				emit(uint32(g), nil, 1)
			}
		},
		Hash: func(w uint32, _ []byte) uint32 { return mapreduce.HashUint32(w) },
		Size: func(uint32, int, int64) int { return 8 },
		Reduce: func(w uint32, entries []mapreduce.Entry, emit func(itemFreq)) error {
			emit(itemFreq{hierarchy.Item(w), entries[0].Weight})
			return nil
		},
	})
	if err != nil {
		return nil, nil, err
	}
	freq := make([]int64, db.Forest.Size())
	for _, f := range out {
		freq[f.w] = f.n
	}
	return freq, stats, nil
}

// FListJob computes the generalized f-list with a MapReduce job and derives
// the rank space for the given σ, in frequency order.
func FListJob(ctx context.Context, db *gsm.Database, sigma int64, cfg mapreduce.Config) (*flist.FList, *mapreduce.Stats, error) {
	freq, stats, err := flistFrequencies(ctx, db, cfg)
	if err != nil {
		return nil, nil, err
	}
	fl, err := buildFList(cfg.Obs, db.Forest, freq, sigma)
	if err != nil {
		return nil, nil, err
	}
	return fl, stats, nil
}

// buildFList derives the rank space for σ from counted frequencies, in order
// if one is given (flist.Build) — the only preprocessing left when the counts
// are reused (Options.Freqs) — and records the build's interval.
func buildFList(o *obs.Run, forest *hierarchy.Forest, freq []int64, sigma int64, order ...hierarchy.Item) (*flist.FList, error) {
	begin := time.Now()
	fl, err := flist.Build(forest, freq, sigma, order...)
	if err != nil {
		return nil, err
	}
	o.Record(obs.SpanRecord{Name: "flist-build", Job: "flist", Partition: -1, Start: begin, Duration: time.Since(begin)},
		o.PipelineMetricsOf().FListBuildSeconds)
	return fl, nil
}

// mineAbort is the panic sentinel the miner-emit callback uses to unwind an
// in-flight local miner once the run's context is done; Reduce recovers it.
type mineAbort struct{}

// mineScratch is the pooled per-map-call working set of the partition+mine
// job: the rewriter, which is loaded once per input sequence and holds that
// sequence's pivots, plus reusable rank and encode buffers, so the map hot
// path performs no per-emit heap allocation.
type mineScratch struct {
	rw  *rewrite.Rewriter
	buf []flist.Rank
	enc []byte
}

// reduceScratch is the pooled per-Reduce working set of the partition+mine
// job: a miner instance, its Scratch (candidate tables, posting arenas, and
// — via the Scratch's exported decode buffers — the rank arena every
// partition sequence is decoded into), and the partition's mined patterns and
// border (onBorder collects it), translated to vocabulary items back to back
// in the items and bitems arenas. A delta run also builds each partition's
// kept input in in, and a grown partition's fold index over its fresh
// sequences in keys and folded (see growKept; foldKept also encodes them in
// enc and encOffs), its fresh entries' appended multiplicities in appended,
// and the previous record in known, through the rank buffer ranks
// (fillKnown). One reduceScratch serves one Reduce call at a time; the pool
// hands them to the reduce workers.
type reduceScratch struct {
	m        miner.Miner
	sc       *miner.Scratch
	part     miner.Partition
	items    []hierarchy.Item
	pats     []gsm.Pattern
	bitems   []hierarchy.Item
	border   []gsm.Pattern
	crossed  []gsm.Pattern
	onBorder func(pattern []flist.Rank, bound int64, crossed bool)
	in       []byte
	keys     []freshKey
	folded   []bool
	enc      []byte
	encOffs  []int32
	appended []int64
	known    miner.Known
	ranks    []flist.Rank
}

// sealPatterns copies pattern lists, one after the other, into one
// exact-size item arena and one slice, every pattern a capped slice of the
// arena: a record's patterns outlive the scratch they were collected in.
func sealPatterns(lists ...[]gsm.Pattern) []gsm.Pattern {
	n, items := 0, 0
	for _, l := range lists {
		n += len(l)
		for _, p := range l {
			items += len(p.Items)
		}
	}
	arena := make(gsm.Sequence, 0, items)
	out := make([]gsm.Pattern, 0, n)
	for _, l := range lists {
		for _, p := range l {
			start := len(arena)
			arena = append(arena, p.Items...)
			out = append(out, gsm.Pattern{Items: arena[start:len(arena):len(arena)], Support: p.Support})
		}
	}
	return out
}

// tail returns ps[i:], or nil if that is empty.
func tail(ps []gsm.Pattern, i int) []gsm.Pattern {
	if i == len(ps) {
		return nil
	}
	return ps[i:]
}

// mineJob runs the partitioning and mining phases (Alg. 1) as one streaming
// aggregated-shuffle job: map loads each input sequence into the rewriter
// once — one walk yields its pivots and what their rewrites share — and
// emits, per pivot, the encoded partition sequence with weight 1; the
// substrate aggregates duplicates (§4.4) map-side and during the partition
// merge; and each partition is mined the moment its last input arrives,
// overlapping shuffle, merge, and local mining.
//
// Reduce is the paper's one reduce step — decode the pivot's partition, mine
// it, output its pivot sequences — for every run mode, and its record is the
// DeltaPart the run's state keeps; a grown partition of a delta run mines
// only what its appended sequences reach and takes the rest from the
// previous state, its old sequences too when that state kept its input
// (delta.go). The miner-emit closure is the one place a
// mined pattern leaves rank space. Reduce has no side effect beyond its
// record and reads only the immutable plan and states, so it retries under
// opt.MR.Retry in every mode. assemble turns the records into the Result.
func mineJob(ctx context.Context, db *gsm.Database, fl *flist.FList, opt Options, plan *deltaPlan) (*Result, error) {
	// over flips once ctx is done, so local miners still running abort at
	// their next pattern instead of exploring to exhaustion. RunAgg then
	// returns an error and discards every record, which is why a Reduce that
	// observes it returns nil without emitting one.
	var over atomic.Bool
	defer context.AfterFunc(ctx, func() { over.Store(true) })()

	scratch := sync.Pool{New: func() any {
		rw := rewrite.NewRewriter(fl, opt.Params.Gamma, opt.Params.Lambda)
		rw.Mode = opt.Rewrites
		return &mineScratch{rw: rw}
	}}
	reducers := sync.Pool{New: func() any {
		rs := &reduceScratch{m: miner.New(opt.Miner), sc: miner.NewScratch()}
		rs.onBorder = func(pat []flist.Rank, bound int64, crossed bool) {
			start := len(rs.bitems)
			for _, r := range pat {
				rs.bitems = append(rs.bitems, fl.VocabOf(r))
			}
			p := gsm.Pattern{Items: rs.bitems[start:], Support: bound}
			if crossed {
				rs.crossed = append(rs.crossed, p)
			} else {
				rs.border = append(rs.border, p)
			}
		}
		return rs
	}}
	localCfg := miner.Config{
		Sigma:     opt.Params.Sigma,
		Gamma:     opt.Params.Gamma,
		Lambda:    opt.Params.Lambda,
		PivotOnly: true,
	}
	parent := fl.ParentTable()

	// Observability: per-partition mining metrics and spans. All handles are
	// nil when opt.MR.Obs (or its fields) are unset; the records below are
	// nil-safe no-ops then.
	o := opt.MR.Obs
	pm := o.PipelineMetricsOf()

	// The map reads each sequence by its index, which tells a delta run's
	// old sequences from its appended ones.
	input := make([]int32, len(db.Seqs))
	for i := range input {
		input[i] = int32(i)
	}
	job := mapreduce.AggJob[int32, minedPart]{
		Name: "partition+mine",
		Map: func(i int32, emit func(uint32, []byte, int64)) {
			if plan.skipsSeq(int(i), db.Seqs[i]) {
				return // Delta: no pivot of this old sequence takes it.
			}
			s := scratch.Get().(*mineScratch)
			defer scratch.Put(s)
			s.rw.Load(db.Seqs[i])
			for pivot, ok := s.rw.Next(); ok; pivot, ok = s.rw.Next() {
				if plan.skips(pivot, int(i)) {
					// Delta: what this sequence would add to the partition
					// is already in the state — the partition is spliced,
					// or grown from the input its record kept.
					continue
				}
				s.buf = s.rw.Rewritten(s.buf[:0])
				if len(s.buf) == 0 {
					continue
				}
				s.enc = seqenc.AppendSeq(s.enc[:0], s.buf)
				emit(uint32(pivot), s.enc, 1)
			}
		},
		// Partition by pivot only: a pivot's whole partition must reach one
		// Reduce call.
		Hash: func(pivot uint32, _ []byte) uint32 { return mapreduce.HashUint32(pivot) },
		Size: func(pivot uint32, keyLen int, weight int64) int {
			return seqenc.UvarintLen(uint64(pivot)) + keyLen + seqenc.UvarintLen(uint64(weight))
		},
		Reduce: func(group uint32, entries []mapreduce.Entry, emit func(minedPart)) (err error) {
			pivot := flist.Rank(group)
			rec := minedPart{DeltaPart: DeltaPart{Pivot: fl.VocabOf(pivot)}}
			begin := time.Now()
			defer func() {
				// An aborted local mine ends the Reduce here (Scratch
				// tolerates abandoned mid-mine state, see miner.Scratch), and
				// so does one whose previous patterns could not give a
				// support, which fails the run.
				if r := recover(); r != nil {
					if e, ok := r.(error); ok && errors.Is(e, miner.ErrKnown) {
						err = fmt.Errorf("core: partition %d: %w", pivot, e)
					} else if _, abort := r.(mineAbort); !abort {
						panic(r)
					}
				}
				pm.PartitionsMined.Inc()
				o.Record(obs.SpanRecord{
					Parent: o.JobSpan(), Name: "mine", Job: "partition+mine",
					Phase: "reduce", Partition: int(pivot),
					Start: begin, Duration: time.Since(begin),
				}, pm.PartitionMineSeconds)
			}()
			rs := reducers.Get().(*reduceScratch)
			defer reducers.Put(rs)
			sc := rs.sc
			// Decode the whole partition into one grown-once rank arena:
			// size it exactly, then append every sequence back to back.
			total := 0
			for _, e := range entries {
				n, err := seqenc.DecodedLen(e.Key)
				if err != nil {
					// A decode failure means partition data was corrupted in
					// flight; dropping the sequence would silently undercount
					// supports, so fail the run instead.
					return fmt.Errorf("core: partition %d: corrupt partition sequence: %w", pivot, err)
				}
				total += n
			}
			// A grown partition whose previous record kept its input: the
			// entries are its appended rewrites, the rest is read from there.
			var kept []byte
			keptLen := 0
			if in := plan.keptInput(pivot, rec.Pivot); in != nil {
				var ok bool
				if kept, keptLen, ok = keptBody(in); !ok {
					return fmt.Errorf("core: partition %d: corrupt kept input header", pivot)
				}
				total += keptLen
			}
			if cap(sc.RankArena) < total {
				sc.RankArena = make([]flist.Rank, 0, total)
			} else {
				sc.RankArena = sc.RankArena[:0]
			}
			sc.Seqs = sc.Seqs[:0]
			for _, e := range entries {
				start := len(sc.RankArena)
				var err error
				sc.RankArena, err = seqenc.DecodeSeq(sc.RankArena, e.Key)
				if err != nil {
					return fmt.Errorf("core: partition %d: corrupt partition sequence: %w", pivot, err)
				}
				sc.Seqs = append(sc.Seqs, miner.WSeq{
					Items:  sc.RankArena[start:len(sc.RankArena):len(sc.RankArena)],
					Weight: e.Weight,
				})
			}
			nFresh := 0
			rs.appended = rs.appended[:0]
			if fresh, appended := plan.freshOf(pivot); fresh != nil {
				// A grown partition: the entries holding one of its appended
				// rewrites go first, as its Fresh sequences, each with how
				// many appended sequences it stands for — its weight also
				// counts the old copies of a partition grown from the
				// shuffle, and growKept folds more in. Entries and rewrites
				// are both sorted by key bytes: one merge walk. (With a kept
				// input every entry is fresh, but a partition grown from the
				// shuffle has its old sequences among them.)
				j := 0
				for i, e := range entries {
					for j < len(fresh) && bytes.Compare(fresh[j], e.Key) < 0 {
						j++
					}
					if j < len(fresh) && bytes.Equal(fresh[j], e.Key) {
						sc.Seqs[nFresh], sc.Seqs[i] = sc.Seqs[i], sc.Seqs[nFresh]
						rs.appended = append(rs.appended, appended[j])
						nFresh++
					}
				}
			}
			rs.part = miner.Partition{Pivot: pivot, Parent: parent, Seqs: sc.Seqs, Fresh: nFresh}
			rs.part.Border = rs.onBorder // the state keeps it
			// The previous record, for PSM to take supports from instead of
			// the old sequences (miner.Partition.Known).
			prevRec := plan.grownPart(rec.Pivot, nFresh)
			if prevRec != nil && plan.known {
				if err := fillKnown(&rs.known, &rs.ranks, fl, pivot, prevRec); err != nil {
					return err
				}
				rs.part.Known, rs.part.Appended = &rs.known, rs.appended
			}
			// A lean root reads no old sequence, so the pre-pass runs before
			// the kept input is read: then that is folded into, not decoded.
			lean := rs.part.Known != nil && miner.Prepass(&rs.part, localCfg, sc)
			rec.lean = lean
			seqs, positions := len(sc.Seqs), len(sc.RankArena)
			if plan.keepsInputs() {
				// The record keeps the partition's input for the next delta
				// run to grow it from (DeltaPart.Input).
				body := rs.in[:0]
				var err error
				switch {
				case lean && kept != nil:
					body, seqs, positions, err = foldKept(body, rs, fl, pivot, kept, keptLen)
				case kept != nil:
					body, err = growKept(body, rs, fl, pivot, kept, nFresh)
					rs.part.Seqs, seqs, positions = sc.Seqs, len(sc.Seqs), len(sc.RankArena)
				default:
					for _, s := range sc.Seqs {
						body = appendKept(body, fl, s.Items, s.Weight)
					}
				}
				if err != nil {
					return err
				}
				rs.in = body
				rec.Input = sealInput(positions, body)
			}
			rec.Seqs = int64(seqs)

			// Mined patterns and the border outlive the miner's buffers, so
			// translate them into the scratch arenas as they come. An append
			// that grows an arena moves it but leaves the old array, and the
			// patterns already slicing it, intact.
			rs.items, rs.pats = rs.items[:0], rs.pats[:0]
			rs.bitems, rs.border, rs.crossed = rs.bitems[:0], rs.border[:0], rs.crossed[:0]
			st := rs.m.Mine(&rs.part, localCfg, sc, func(pat []flist.Rank, sup int64) {
				if over.Load() {
					panic(mineAbort{})
				}
				start := len(rs.items)
				for _, r := range pat {
					rs.items = append(rs.items, fl.VocabOf(r))
				}
				rs.pats = append(rs.pats, gsm.Pattern{Items: rs.items[start:], Support: sup})
			})
			// A local mine is counted once it completes: an aborted one
			// never gets here.
			pm.MinerExplored.Add(st.Explored)
			pm.MinerOutput.Add(st.Output)
			rec.Explored, rec.Output = st.Explored, st.Output
			rec.mined = int32(len(rs.pats))

			// The record outlives the scratch: one exact-size arena per
			// partition, every pattern and border entry a capped slice of it.
			if rs.part.Fresh == 0 {
				all := sealPatterns(rs.pats, rs.border)
				rec.Patterns, rec.Border = all[:len(rs.pats):len(rs.pats)], tail(all, len(rs.pats))
			} else {
				// Grown: MergeGrown builds the arena, adding the previous
				// state's patterns that no appended sequence reaches. The
				// crossed patterns of earlier grown runs stay crossed.
				var old, crossed []gsm.Pattern
				if prevRec != nil {
					old, crossed = prevRec.Patterns, prevRec.Crossed
				}
				rec.Patterns = gsm.MergeGrown(rs.pats, old)
				rec.Output = int64(len(rec.Patterns))
				rec.Border, rec.Crossed = tail(sealPatterns(rs.border), 0), crossed
				if len(rs.crossed) > 0 {
					rec.Crossed = sealPatterns(crossed, rs.crossed)
				}
			}
			emit(rec)
			return nil
		},
	}
	out, stats, err := mapreduce.RunAgg(ctx, opt.MR, input, job)
	if err != nil {
		return nil, err
	}
	res := &Result{JobsDone: time.Now()}
	res.Jobs.Mine = stats
	if err := assemble(res, db, fl, plan, opt.Prev, out); err != nil {
		return nil, err
	}
	return res, nil
}
