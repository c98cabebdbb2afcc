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
// Both are one counting job (count) on the aggregated-shuffle path of
// internal/mapreduce — the encoded subsequence is the byte key, counts are
// the weights, and the reducer keeps keys whose aggregated weight reaches σ —
// and differ in the space the keys live in (counting).
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
	"time"

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
}

// MineNaive runs the naïve algorithm: the counting job over every
// generalized subsequence, keyed in vocabulary space. Cancelling ctx aborts
// the run cooperatively and returns the wrapped ctx.Err().
func MineNaive(ctx context.Context, db *gsm.Database, opt Options) (*core.Result, error) {
	if err := opt.Params.Validate(); err != nil {
		return nil, err
	}
	if err := db.Validate(); err != nil {
		return nil, err
	}
	return count(ctx, db, opt, counting{
		name:    "naive",
		prepare: func(_ *scratch, t gsm.Sequence) (gsm.Sequence, func(int) bool) { return t, nil },
		encode: func(sc *scratch, s gsm.Sequence) []byte {
			sc.enc = seqenc.AppendVocabSeq(sc.enc[:0], s)
			return sc.enc
		},
		decode: func(key []byte) (gsm.Sequence, error) { return seqenc.DecodeVocabSeq(nil, key) },
	})
}

// MineSemiNaive runs the semi-naïve algorithm: an f-list job, then the
// counting job over generalized sequences with frequent items only, keyed in
// the f-list's rank space (frequent items have small ids). Cancelling ctx
// aborts the run cooperatively and returns the wrapped ctx.Err().
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
	res, err := count(ctx, db, opt, counting{
		name: "semi-naive",
		// Generalize each item to its closest frequent ancestor; items
		// without one become blanks (skipped positions that still consume
		// gap budget).
		prepare: func(sc *scratch, t gsm.Sequence) (gsm.Sequence, func(int) bool) {
			sc.ranks, sc.gen = sc.ranks[:0], sc.gen[:0]
			for _, w := range t {
				r := fl.FrequentRank(w)
				sc.ranks = append(sc.ranks, r)
				if r != flist.NoRank {
					sc.gen = append(sc.gen, fl.VocabOf(r))
				} else {
					sc.gen = append(sc.gen, 0)
				}
			}
			return sc.gen, func(i int) bool { return sc.ranks[i] != flist.NoRank }
		},
		encode: func(sc *scratch, s gsm.Sequence) []byte {
			sc.buf = sc.buf[:0]
			for _, w := range s {
				sc.buf = append(sc.buf, fl.RankOf(w))
			}
			sc.enc = seqenc.AppendSeq(sc.enc[:0], sc.buf)
			return sc.enc
		},
		decode: func(key []byte) (gsm.Sequence, error) {
			ranks, err := seqenc.DecodeSeq(nil, key)
			if err != nil {
				return nil, err
			}
			return fl.TranslateFromRanks(nil, ranks)
		},
	})
	if err != nil {
		return nil, err
	}
	res.Jobs.FList, res.FList = flStats, fl
	for r := 0; r < fl.NumFrequent(); r++ {
		res.FrequentItems = append(res.FrequentItems, gsm.Pattern{
			Items:   gsm.Sequence{fl.VocabOf(flist.Rank(r))},
			Support: fl.FreqOfRank(flist.Rank(r)),
		})
	}
	return res, nil
}

// counting is what tells the two algorithms apart — the space their keys are
// counted in: prepare readies one input sequence for enumeration (what to
// enumerate over and, unless every position may be used, which may), encode
// turns an enumerated subsequence into its byte key, and decode turns a
// frequent key back into vocabulary items.
type counting struct {
	name    string
	prepare func(sc *scratch, t gsm.Sequence) (gsm.Sequence, func(int) bool)
	encode  func(sc *scratch, s gsm.Sequence) []byte
	decode  func(key []byte) (gsm.Sequence, error)
}

// scratch is the pooled per-map-call working set of the counting job.
type scratch struct {
	ranks []flist.Rank
	gen   gsm.Sequence
	buf   []flist.Rank
	enc   []byte
}

// count runs the counting job (§3.2's "word counting"): map enumerates the
// generalized subsequences of each prepared input sequence and emits every
// one as a key of weight 1, the shuffle sums, and reduce keeps the keys whose
// aggregated weight reaches σ.
func count(ctx context.Context, db *gsm.Database, opt Options, c counting) (*core.Result, error) {
	var emitted atomic.Int64
	capped := opt.MaxEmit > 0
	pool := sync.Pool{New: func() any { return new(scratch) }}

	job := mapreduce.AggJob[gsm.Sequence, gsm.Pattern]{
		Name: c.name,
		Map: func(t gsm.Sequence, emit func(uint32, []byte, int64)) {
			sc := pool.Get().(*scratch)
			defer pool.Put(sc)
			seq, accept := c.prepare(sc, t)
			gsm.EnumerateGenSubseqs(db.Forest, seq, opt.Params.Gamma, 2, opt.Params.Lambda, accept,
				func(s gsm.Sequence) bool {
					if capped && emitted.Add(1) > opt.MaxEmit {
						return false
					}
					key := c.encode(sc, s)
					// Each distinct subsequence is its own reduction unit;
					// group by the key's hash so partitions stay balanced.
					emit(mapreduce.HashBytes(key), key, 1)
					return true
				})
		},
		// Size: the default (keyLen + uvarint(weight)) is exactly this job's
		// wire format.
		Reduce: func(_ uint32, entries []mapreduce.Entry, emit func(gsm.Pattern)) error {
			// A tripped emission cap means the map side stopped enumerating
			// and aggregated supports may be silently undercounted: fail
			// before anything is output. Every map task has retired before a
			// partition reduces, so the count is final.
			if capped && emitted.Load() > opt.MaxEmit {
				return ErrEmitCapExceeded
			}
			for _, e := range entries {
				if e.Weight < opt.Params.Sigma {
					continue
				}
				items, err := c.decode(e.Key)
				if err != nil {
					return err
				}
				emit(gsm.Pattern{Items: items, Support: e.Weight})
			}
			return nil
		},
	}
	out, stats, err := mapreduce.RunAgg(ctx, opt.MR, db.Seqs, job)
	done := time.Now()
	if errors.Is(err, ErrEmitCapExceeded) {
		return nil, ErrEmitCapExceeded // the sentinel itself, not the job's annotation of it
	}
	if err != nil {
		return nil, err
	}
	gsm.SortPatterns(out)
	return &core.Result{Patterns: out, Jobs: core.JobStats{Mine: stats}, JobsDone: done}, nil
}
