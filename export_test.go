package lash

import (
	"bytes"
	"context"

	"lash/internal/baseline"
	"lash/internal/core"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
	"lash/internal/mapreduce"
	"lash/internal/miner"
	"lash/internal/obs"
	"lash/internal/stats"
)

// ErrAborted is the error of a baseline run that exceeded
// Options.MaxIntermediate.
var ErrAborted = baseline.ErrEmitCapExceeded

// ItemLevel returns the hierarchy level of the named item (0 = root), or
// -1 when the item is not in the vocabulary.
func (d *Database) ItemLevel(name string) int {
	w, ok := d.db.Forest.Lookup(name)
	if !ok {
		return -1
	}
	return d.db.Forest.Level(w)
}

// ItemParent returns the name of the item's direct generalization. The
// second result is false when the item is unknown or a hierarchy root.
func (d *Database) ItemParent(name string) (string, bool) {
	w, ok := d.db.Forest.Lookup(name)
	if !ok || d.db.Forest.IsRoot(w) {
		return "", false
	}
	return d.db.Forest.Name(d.db.Forest.Parent(w)), true
}

// NumUsers returns the number of distinct users seen so far.
func (s *SessionBuilder) NumUsers() int { return len(s.order) }

// Drift returns how many partition sequences the state's lineage has cost
// since its last from-scratch mine, as a multiple of what frequency order
// would have cost (core.DeltaState.Drift). It is 1 for a from-scratch
// run's state.
func (s *MineState) Drift() float64 {
	if s == nil {
		return 0
	}
	return s.delta.Drift()
}

// Spans returns the trace's retained spans ordered by start time.
func (t *Trace) Spans() []obs.SpanRecord { return t.handle().Spans() }

// mineUnder is a from-scratch mine of db ranked in order (core.MineUnder),
// under opt's partitioned algorithm: the reference a resume's statistics are
// held to, under the order it kept.
func mineUnder(db *Database, opt Options, order []hierarchy.Item) (*core.Result, error) {
	co := core.Options{
		Params: gsm.Params{Sigma: opt.MinSupport, Gamma: opt.MaxGap, Lambda: opt.MaxLength},
		Miner:  opt.LocalMiner.kind(),
		Flat:   opt.Algorithm != AlgorithmLASH,
		MR:     mapreduce.Config{Workers: opt.Workers},
	}
	if opt.Algorithm == AlgorithmMGFSM {
		co.Miner = miner.KindBFS
	}
	return core.MineUnder(context.Background(), db.db, co, order)
}

// MineUnder is mineUnder for the package's external tests.
var MineUnder = mineUnder

// KeptOrder returns the rank order a state's partitions were mined under
// (core.DeltaState.Order), which a resume from it keeps.
func KeptOrder(s *MineState) []hierarchy.Item { return s.delta.Order }

// KeptInputs returns a copy of the partition inputs a state keeps, one per
// partition record (nil where the record keeps none), so a test can check
// that resuming from a state leaves it as it was.
func KeptInputs(s *MineState) [][]byte {
	ins := make([][]byte, len(s.delta.Parts))
	for i := range s.delta.Parts {
		ins[i] = bytes.Clone(s.delta.Parts[i].Input)
	}
	return ins
}

// Oracle mines db by the definition under opt's σ, γ, λ and restriction:
// gsm.MineBruteForce's patterns, named, and every item occurring, itself or
// specialized, in at least σ sequences, with that count. The flat algorithms
// see the vocabulary without its hierarchy.
func Oracle(db *Database, opt Options) ([]Pattern, map[string]int64) {
	g := db.db
	if opt.Algorithm == AlgorithmLASHFlat || opt.Algorithm == AlgorithmMGFSM {
		names := make([]string, g.Forest.Size())
		for w := range names {
			names[w] = g.Forest.Name(hierarchy.Item(w))
		}
		g = &gsm.Database{Seqs: g.Seqs, Forest: hierarchy.Flat(names)}
	}
	pats := gsm.MineBruteForce(g, gsm.Params{Sigma: opt.MinSupport, Gamma: opt.MaxGap, Lambda: opt.MaxLength})
	switch opt.Restriction {
	case RestrictClosed:
		pats = stats.FilterClosed(g.Forest, pats)
	case RestrictMaximal:
		pats = stats.FilterMaximal(g.Forest, pats)
	}
	var out []Pattern
	for _, p := range pats {
		names := make([]string, len(p.Items))
		for i, w := range p.Items {
			names[i] = g.Forest.Name(w)
		}
		out = append(out, Pattern{Items: names, Support: p.Support})
	}
	items := map[string]int64{}
	for w := range g.Forest.Size() {
		if f := gsm.Frequency(g, gsm.Sequence{hierarchy.Item(w)}, 0); f >= opt.MinSupport {
			items[g.Forest.Name(hierarchy.Item(w))] = f
		}
	}
	return out, items
}

// PinsReplaced reports whether next, a state resumed from prev, holds the
// items of a pattern — in its canonical list or in a partition record — in
// the arena of a record of prev that next replaced: a chain of resumes would
// then pin every earlier version's.
func PinsReplaced(prev, next *MineState) bool {
	shared := map[*gsm.Pattern]bool{}
	for _, part := range next.delta.Parts {
		if len(part.Patterns) > 0 {
			shared[&part.Patterns[0]] = true
		}
	}
	replaced := map[*hierarchy.Item]bool{}
	for _, part := range prev.delta.Parts {
		if len(part.Patterns) > 0 && !shared[&part.Patterns[0]] {
			for _, p := range part.Patterns {
				replaced[&p.Items[0]] = true
			}
		}
	}
	for _, p := range next.delta.Patterns {
		if replaced[&p.Items[0]] {
			return true
		}
	}
	for _, part := range next.delta.Parts {
		for _, p := range part.Patterns {
			if replaced[&p.Items[0]] {
				return true
			}
		}
	}
	return false
}
