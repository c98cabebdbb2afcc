// Package baseline implements the two distributed comparison algorithms of
// §3 of the LASH paper:
//
//   - Naïve (§3.2): "word counting" over G_λ(T) — every generalized
//     subsequence of every input sequence is emitted and counted. Its
//     intermediate data is exponential in λ and the hierarchy depth.
//   - Semi-naïve (§3.3): a generalized f-list is computed first; every item
//     is replaced by its closest frequent ancestor (or a blank), and only
//     blank-free subsequences are enumerated.
//
// Both run on the aggregated-shuffle path of internal/mapreduce: the
// encoded subsequence is the byte key, counts are the weights, and the
// reducer keeps keys whose aggregated weight reaches σ.
//
// Both support an emission cap standing in for the paper's 12-hour abort on
// NYT-CLP ("> 12 hrs" in Fig. 4a): runs exceeding MaxEmit return
// ErrEmitCapExceeded and are reported as DNF by the harness.
package baseline

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"lash/internal/core"
	"lash/internal/flist"
	"lash/internal/gsm"
	"lash/internal/mapreduce"
	"lash/internal/seqenc"
)

// ErrEmitCapExceeded reports that a run produced more intermediate records
// than Options.MaxEmit and was aborted.
var ErrEmitCapExceeded = errors.New("baseline: intermediate output exceeded MaxEmit; run aborted (DNF)")

// Options configures a baseline run.
type Options struct {
	Params gsm.Params
	MR     mapreduce.Config
	// MaxEmit caps the total number of emitted generalized subsequences
	// across all mappers (0 = unlimited).
	MaxEmit int64
	// Stream, when non-nil, receives every frequent pattern (vocabulary
	// item space) as its reduce partition is aggregated, instead of the
	// pattern being collected into Result.Patterns. Calls are serialized;
	// order is partition-completion order. A non-nil error fails the run.
	Stream func(items gsm.Sequence, support int64) error
}

// MineNaive runs the naïve algorithm. Cancelling ctx aborts the run
// cooperatively and returns the wrapped ctx.Err().
func MineNaive(ctx context.Context, db *gsm.Database, opt Options) (*core.Result, error) {
	if err := opt.Params.Validate(); err != nil {
		return nil, err
	}
	if err := db.Validate(); err != nil {
		return nil, err
	}
	var emitted atomic.Int64
	capped := opt.MaxEmit > 0
	encPool := sync.Pool{New: func() any { return new([]byte) }}
	var streamMu sync.Mutex

	type pat struct {
		items   gsm.Sequence
		support int64
	}
	out, stats, err := mapreduce.RunAgg(ctx, opt.MR, db.Seqs, mapreduce.AggJob[gsm.Sequence, pat]{
		Name: "naive",
		Map: func(t gsm.Sequence, emit func(uint32, []byte, int64)) {
			encp := encPool.Get().(*[]byte)
			defer encPool.Put(encp)
			gsm.EnumerateGenSubseqs(db.Forest, t, opt.Params.Gamma, 2, opt.Params.Lambda, nil,
				func(s gsm.Sequence) bool {
					if capped && emitted.Add(1) > opt.MaxEmit {
						return false
					}
					*encp = seqenc.AppendVocabSeq((*encp)[:0], s)
					// Each distinct subsequence is its own reduction unit;
					// group by the key's hash so partitions stay balanced.
					emit(mapreduce.HashBytes(*encp), *encp, 1)
					return true
				})
		},
		// Size: the default (keyLen + uvarint(weight)) is exactly this job's
		// wire format.
		Reduce: func(_ uint32, entries []mapreduce.Entry, emit func(pat)) error {
			for _, e := range entries {
				if e.Weight < opt.Params.Sigma {
					continue
				}
				items, err := seqenc.DecodeVocabSeq(nil, e.Key)
				if err != nil {
					return err
				}
				if opt.Stream != nil {
					// A tripped emission cap means the map side stopped
					// enumerating and aggregated supports may be silently
					// undercounted. Batch mode discards such output after
					// the run; streaming must not hand it to the consumer,
					// so fail before delivering anything further.
					if capped && emitted.Load() > opt.MaxEmit {
						return ErrEmitCapExceeded
					}
					streamMu.Lock()
					err = opt.Stream(items, e.Weight)
					streamMu.Unlock()
					if err != nil {
						return err
					}
					continue
				}
				emit(pat{items, e.Weight})
			}
			return nil
		},
		// Batch-mode Reduce only filters and decodes — safe to re-run for a
		// partition whose earlier attempt failed transiently. Streaming
		// delivery is not replayable, so it stays single-attempt.
		ReduceRetryable: opt.Stream == nil,
	})
	if err != nil {
		return nil, err
	}
	if capped && emitted.Load() > opt.MaxEmit {
		return nil, ErrEmitCapExceeded
	}
	res := &core.Result{Jobs: core.JobStats{Mine: stats}}
	for _, p := range out {
		res.Patterns = append(res.Patterns, gsm.Pattern{Items: p.items, Support: p.support})
	}
	gsm.SortPatterns(res.Patterns)
	return res, nil
}

// snScratch is the pooled per-map-call working set of the semi-naïve job.
type snScratch struct {
	ranks []flist.Rank
	gen   gsm.Sequence
	buf   []flist.Rank
	enc   []byte
}

// MineSemiNaive runs the semi-naïve algorithm: an f-list job, then the
// counting job over generalized sequences with frequent items only.
// Cancelling ctx aborts the run cooperatively and returns the wrapped
// ctx.Err().
func MineSemiNaive(ctx context.Context, db *gsm.Database, opt Options) (*core.Result, error) {
	if err := opt.Params.Validate(); err != nil {
		return nil, err
	}
	if err := db.Validate(); err != nil {
		return nil, err
	}
	fl, flStats, err := core.FListJob(ctx, db, opt.Params.Sigma, opt.MR)
	if err != nil {
		return nil, err
	}
	var emitted atomic.Int64
	capped := opt.MaxEmit > 0
	scratch := sync.Pool{New: func() any { return new(snScratch) }}
	var streamMu sync.Mutex

	type pat struct {
		ranks   []flist.Rank // rank space — frequent items have small ids
		support int64
	}
	out, stats, err := mapreduce.RunAgg(ctx, opt.MR, db.Seqs, mapreduce.AggJob[gsm.Sequence, pat]{
		Name: "semi-naive",
		Map: func(t gsm.Sequence, emit func(uint32, []byte, int64)) {
			sc := scratch.Get().(*snScratch)
			defer scratch.Put(sc)
			// Generalize each item to its closest frequent ancestor; items
			// without one become blanks (skipped positions that still
			// consume gap budget).
			sc.ranks = sc.ranks[:0]
			sc.gen = sc.gen[:0]
			for _, w := range t {
				r := fl.FrequentRank(w)
				sc.ranks = append(sc.ranks, r)
				if r != flist.NoRank {
					sc.gen = append(sc.gen, fl.VocabOf(r))
				} else {
					sc.gen = append(sc.gen, 0)
				}
			}
			accept := func(i int) bool { return sc.ranks[i] != flist.NoRank }
			gsm.EnumerateGenSubseqs(db.Forest, sc.gen, opt.Params.Gamma, 2, opt.Params.Lambda, accept,
				func(s gsm.Sequence) bool {
					if capped && emitted.Add(1) > opt.MaxEmit {
						return false
					}
					sc.buf = sc.buf[:0]
					for _, w := range s {
						sc.buf = append(sc.buf, fl.RankOf(w))
					}
					sc.enc = seqenc.AppendSeq(sc.enc[:0], sc.buf)
					emit(mapreduce.HashBytes(sc.enc), sc.enc, 1)
					return true
				})
		},
		// Size: the default (keyLen + uvarint(weight)) is exactly this job's
		// wire format.
		Reduce: func(_ uint32, entries []mapreduce.Entry, emit func(pat)) error {
			for _, e := range entries {
				if e.Weight < opt.Params.Sigma {
					continue
				}
				ranks, err := seqenc.DecodeSeq(nil, e.Key)
				if err != nil {
					return err
				}
				if opt.Stream != nil {
					// See MineNaive: a tripped cap means possibly
					// undercounted supports — never stream those.
					if capped && emitted.Load() > opt.MaxEmit {
						return ErrEmitCapExceeded
					}
					items, err := fl.TranslateFromRanks(nil, ranks)
					if err != nil {
						return err
					}
					streamMu.Lock()
					err = opt.Stream(items, e.Weight)
					streamMu.Unlock()
					if err != nil {
						return err
					}
					continue
				}
				emit(pat{ranks, e.Weight})
			}
			return nil
		},
		// Batch-mode Reduce only filters and decodes — safe to re-run for a
		// partition whose earlier attempt failed transiently. Streaming
		// delivery is not replayable, so it stays single-attempt.
		ReduceRetryable: opt.Stream == nil,
	})
	if err != nil {
		return nil, err
	}
	if capped && emitted.Load() > opt.MaxEmit {
		return nil, ErrEmitCapExceeded
	}
	res := &core.Result{Jobs: core.JobStats{FList: flStats, Mine: stats}, FList: fl}
	for _, p := range out {
		items, err := fl.TranslateFromRanks(nil, p.ranks)
		if err != nil {
			return nil, err
		}
		res.Patterns = append(res.Patterns, gsm.Pattern{Items: items, Support: p.support})
	}
	gsm.SortPatterns(res.Patterns)
	for r := 0; r < fl.NumFrequent(); r++ {
		res.FrequentItems = append(res.FrequentItems, gsm.Pattern{
			Items:   gsm.Sequence{fl.VocabOf(flist.Rank(r))},
			Support: fl.FreqOfRank(flist.Rank(r)),
		})
	}
	return res, nil
}

// CountG1 returns |G1(T)| summed over the database — the replication factor
// of the naïve partitioning discussion (§4). Exposed for experiments.
func CountG1(db *gsm.Database) int64 {
	var n int64
	var g1 gsm.Sequence
	for _, t := range db.Seqs {
		g1 = gsm.AppendItemGeneralizations(g1[:0], db.Forest, t)
		n += int64(len(g1))
	}
	return n
}
