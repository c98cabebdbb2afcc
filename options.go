package lash

import (
	"fmt"
	"strings"
)

// Validate checks that o is a well-formed mining configuration and returns a
// descriptive error for the first violated constraint. Mine and MineContext
// call it before doing any work; servers can call it earlier to reject bad
// requests at the API boundary.
func (o Options) Validate() error {
	if o.MinSupport < 1 {
		return fmt.Errorf("lash: MinSupport must be ≥ 1, got %d", o.MinSupport)
	}
	if o.MaxGap < 0 {
		return fmt.Errorf("lash: MaxGap must be ≥ 0, got %d", o.MaxGap)
	}
	if o.MaxLength < 2 {
		return fmt.Errorf("lash: MaxLength must be ≥ 2, got %d", o.MaxLength)
	}
	if o.Workers < 0 {
		return fmt.Errorf("lash: Workers must be ≥ 0, got %d", o.Workers)
	}
	if o.MaxIntermediate < 0 {
		return fmt.Errorf("lash: MaxIntermediate must be ≥ 0, got %d", o.MaxIntermediate)
	}
	if o.MemoryBudget < 0 {
		return fmt.Errorf("lash: MemoryBudget must be ≥ 0, got %d", o.MemoryBudget)
	}
	if o.Deadline < 0 {
		return fmt.Errorf("lash: Deadline must be ≥ 0, got %v", o.Deadline)
	}
	if o.MaxAttempts < 0 {
		return fmt.Errorf("lash: MaxAttempts must be ≥ 0, got %d", o.MaxAttempts)
	}
	switch o.Algorithm {
	case AlgorithmLASH, AlgorithmNaive, AlgorithmSemiNaive, AlgorithmMGFSM, AlgorithmLASHFlat:
	default:
		return fmt.Errorf("lash: unknown algorithm %d", int(o.Algorithm))
	}
	switch o.LocalMiner {
	case MinerPSM, MinerPSMNoIndex, MinerBFS, MinerDFS:
	default:
		return fmt.Errorf("lash: unknown local miner %d", int(o.LocalMiner))
	}
	// AlgorithmMGFSM is defined as item-based partitioning with the BFS
	// local miner (§6.3): it never consults Options.LocalMiner. Accept only
	// the zero value (MinerPSM doubles as "unset") and the miner it actually
	// runs, and reject contradictory combinations instead of silently
	// overriding them. This keeps Validate, Canonical, and Mine in
	// agreement: every accepted combination canonicalizes to the same key
	// and mines with BFS.
	if o.Algorithm == AlgorithmMGFSM {
		switch o.LocalMiner {
		case MinerPSM, MinerBFS:
		default:
			return fmt.Errorf("lash: AlgorithmMGFSM always mines with MinerBFS; contradictory LocalMiner %s (leave it unset)", o.LocalMiner)
		}
	}
	switch o.Restriction {
	case RestrictNone, RestrictClosed, RestrictMaximal:
	default:
		return fmt.Errorf("lash: unknown restriction %d", int(o.Restriction))
	}
	return nil
}

// Canonical returns o with every field that cannot affect Mine's output
// normalized to its zero value: Workers (a pure parallelism knob), the
// observability hooks (Progress, Trace, Metrics), MemoryBudget (it only
// decides whether the shuffle's runs live in memory or in spill files —
// both backings are differential-tested byte-identical), and the
// robustness knobs (Deadline, MaxAttempts, Faults — retried runs are
// differential-tested byte-identical to fault-free runs, and deadlines only
// decide whether a run finishes, not what it outputs) are always zeroed,
// LocalMiner is zeroed for algorithms that do not run a local miner, and
// MaxIntermediate is zeroed for algorithms that never emit intermediate
// records. Two valid Options values with equal canonical forms produce
// identical results on the same database.
func (o Options) Canonical() Options {
	o.Workers = 0
	o.Progress = nil
	o.Trace = nil
	o.Metrics = nil
	o.MemoryBudget = 0
	o.Deadline = 0
	o.MaxAttempts = 0
	o.Faults = nil
	// Resume is differential-tested byte-identical to a from-scratch mine.
	o.Resume = nil
	switch o.Algorithm {
	case AlgorithmLASH, AlgorithmLASHFlat:
		o.MaxIntermediate = 0
	case AlgorithmMGFSM:
		o.MaxIntermediate = 0
		o.LocalMiner = 0
	default: // baselines: no local miner
		o.LocalMiner = 0
	}
	return o
}

// CacheKey returns a stable, order-independent string identifying Mine's
// output for these options. It is the canonical form rendered field by
// field, so it is safe to persist and to use as a result-cache key across
// processes (cmd/lashd does).
func (o Options) CacheKey() string {
	c := o.Canonical()
	return fmt.Sprintf("s%d,g%d,l%d,alg%d,m%d,i%d,r%d",
		c.MinSupport, c.MaxGap, c.MaxLength,
		int(c.Algorithm), int(c.LocalMiner), c.MaxIntermediate, int(c.Restriction))
}

// ParseAlgorithm maps a user-facing algorithm name (as accepted by the CLI
// and the lashd API) to an Algorithm. The empty string selects the default,
// AlgorithmLASH. Matching is case-insensitive.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(s) {
	case "", "lash":
		return AlgorithmLASH, nil
	case "naive":
		return AlgorithmNaive, nil
	case "seminaive", "semi-naive":
		return AlgorithmSemiNaive, nil
	case "mgfsm", "mg-fsm":
		return AlgorithmMGFSM, nil
	case "lashflat", "lash-flat", "lash(flat)":
		return AlgorithmLASHFlat, nil
	}
	return 0, fmt.Errorf("lash: unknown algorithm %q (want lash, naive, seminaive, mgfsm or lashflat)", s)
}

// ParseLocalMiner maps a user-facing miner name to a LocalMiner. The empty
// string selects the default, MinerPSM. Matching is case-insensitive, and
// every valid LocalMiner's String() form is accepted (as are the paper's
// figure labels "psm+index" for the indexed default).
func ParseLocalMiner(s string) (LocalMiner, error) {
	switch strings.ToLower(s) {
	case "", "psm", "psm+index":
		return MinerPSM, nil
	case "psm-noindex", "psmnoindex":
		return MinerPSMNoIndex, nil
	case "bfs":
		return MinerBFS, nil
	case "dfs":
		return MinerDFS, nil
	}
	return 0, fmt.Errorf("lash: unknown miner %q (want psm, psm-noindex, bfs or dfs)", s)
}

// ParseRestriction maps a user-facing restriction name to a Restriction.
// The empty string and "none"/"all" select RestrictNone. Matching is
// case-insensitive.
func ParseRestriction(s string) (Restriction, error) {
	switch strings.ToLower(s) {
	case "", "none", "all":
		return RestrictNone, nil
	case "closed":
		return RestrictClosed, nil
	case "maximal", "max":
		return RestrictMaximal, nil
	}
	return 0, fmt.Errorf("lash: unknown restriction %q (want none, closed or maximal)", s)
}

// String returns the restriction's name.
func (r Restriction) String() string {
	switch r {
	case RestrictNone:
		return "none"
	case RestrictClosed:
		return "closed"
	case RestrictMaximal:
		return "maximal"
	}
	return fmt.Sprintf("Restriction(%d)", int(r))
}
