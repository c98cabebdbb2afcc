package lash_test

import (
	"strings"
	"sync/atomic"
	"testing"

	"lash"
)

func validOptions() lash.Options {
	return lash.Options{MinSupport: 2, MaxGap: 1, MaxLength: 3}
}

func TestOptionsValidate(t *testing.T) {
	if err := validOptions().Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*lash.Options)
		want   string
	}{
		{"zero support", func(o *lash.Options) { o.MinSupport = 0 }, "MinSupport"},
		{"negative gap", func(o *lash.Options) { o.MaxGap = -1 }, "MaxGap"},
		{"short length", func(o *lash.Options) { o.MaxLength = 1 }, "MaxLength"},
		{"negative workers", func(o *lash.Options) { o.Workers = -1 }, "Workers"},
		{"negative cap", func(o *lash.Options) { o.MaxIntermediate = -1 }, "MaxIntermediate"},
		{"negative budget", func(o *lash.Options) { o.MemoryBudget = -1 }, "MemoryBudget"},
		{"bad algorithm", func(o *lash.Options) { o.Algorithm = lash.Algorithm(42) }, "algorithm"},
		{"bad miner", func(o *lash.Options) { o.LocalMiner = lash.LocalMiner(42) }, "miner"},
		{"bad restriction", func(o *lash.Options) { o.Restriction = lash.Restriction(42) }, "restriction"},
		{"mgfsm with dfs", func(o *lash.Options) { o.Algorithm = lash.AlgorithmMGFSM; o.LocalMiner = lash.MinerDFS }, "MinerBFS"},
		{"mgfsm with psm-noindex", func(o *lash.Options) { o.Algorithm = lash.AlgorithmMGFSM; o.LocalMiner = lash.MinerPSMNoIndex }, "MinerBFS"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := validOptions()
			c.mutate(&o)
			err := o.Validate()
			if err == nil {
				t.Fatal("invalid options accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// MG-FSM always mines with BFS: an unset LocalMiner and an explicit
// MinerBFS are both accepted (and canonicalize to the same cache key, so
// Validate, Canonical, and Mine agree); everything else is contradictory.
func TestMGFSMLocalMinerAgreement(t *testing.T) {
	unset := validOptions()
	unset.Algorithm = lash.AlgorithmMGFSM
	if err := unset.Validate(); err != nil {
		t.Fatalf("MGFSM with unset LocalMiner rejected: %v", err)
	}
	bfs := unset
	bfs.LocalMiner = lash.MinerBFS
	if err := bfs.Validate(); err != nil {
		t.Fatalf("MGFSM with MinerBFS rejected: %v", err)
	}
	if unset.CacheKey() != bfs.CacheKey() {
		t.Errorf("cache keys differ: %q vs %q", unset.CacheKey(), bfs.CacheKey())
	}
}

func TestOptionsCacheKey(t *testing.T) {
	base := validOptions()

	// Workers never affects output.
	w := base
	w.Workers = 7
	if w.CacheKey() != base.CacheKey() {
		t.Errorf("Workers changed the cache key: %q vs %q", w.CacheKey(), base.CacheKey())
	}

	// MemoryBudget is an execution-mode knob — the spill path produces
	// byte-identical results, so budgeted and in-memory runs share a key.
	budget := base
	budget.MemoryBudget = 64 << 20
	if budget.CacheKey() != base.CacheKey() {
		t.Errorf("MemoryBudget changed the cache key: %q vs %q", budget.CacheKey(), base.CacheKey())
	}
	if budget.Canonical().MemoryBudget != 0 {
		t.Errorf("Canonical kept MemoryBudget = %d", budget.Canonical().MemoryBudget)
	}

	// LocalMiner is irrelevant for the baselines and MG-FSM...
	naive := base
	naive.Algorithm = lash.AlgorithmNaive
	naivePSM := naive
	naivePSM.LocalMiner = lash.MinerBFS
	if naive.CacheKey() != naivePSM.CacheKey() {
		t.Errorf("baseline LocalMiner changed the cache key")
	}
	// ... but is kept for the LASH variants (it shows up in Result.Explored).
	bfs := base
	bfs.LocalMiner = lash.MinerBFS
	if bfs.CacheKey() == base.CacheKey() {
		t.Errorf("LASH LocalMiner ignored by the cache key")
	}

	// MaxIntermediate only matters for the emit-capped baselines.
	capped := base
	capped.MaxIntermediate = 100
	if capped.CacheKey() != base.CacheKey() {
		t.Errorf("LASH MaxIntermediate changed the cache key")
	}
	naiveCapped := naive
	naiveCapped.MaxIntermediate = 100
	if naiveCapped.CacheKey() == naive.CacheKey() {
		t.Errorf("baseline MaxIntermediate ignored by the cache key")
	}

	// Every output-relevant field must show up.
	distinct := map[string]lash.Options{}
	for _, o := range []lash.Options{
		base,
		{MinSupport: 3, MaxGap: 1, MaxLength: 3},
		{MinSupport: 2, MaxGap: 2, MaxLength: 3},
		{MinSupport: 2, MaxGap: 1, MaxLength: 4},
		{MinSupport: 2, MaxGap: 1, MaxLength: 3, Algorithm: lash.AlgorithmLASHFlat},
		{MinSupport: 2, MaxGap: 1, MaxLength: 3, Restriction: lash.RestrictClosed},
	} {
		key := o.CacheKey()
		if prev, dup := distinct[key]; dup {
			t.Errorf("options %+v and %+v share cache key %q", prev, o, key)
		}
		distinct[key] = o
	}
}

func TestParseHelpers(t *testing.T) {
	algs := map[string]lash.Algorithm{
		"":          lash.AlgorithmLASH,
		"lash":      lash.AlgorithmLASH,
		"LASH":      lash.AlgorithmLASH,
		"naive":     lash.AlgorithmNaive,
		"seminaive": lash.AlgorithmSemiNaive,
		"mg-fsm":    lash.AlgorithmMGFSM,
		"lashflat":  lash.AlgorithmLASHFlat,
	}
	for in, want := range algs {
		got, err := lash.ParseAlgorithm(in)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := lash.ParseAlgorithm("bogus"); err == nil {
		t.Error("ParseAlgorithm accepted bogus name")
	}

	miners := map[string]lash.LocalMiner{
		"":            lash.MinerPSM,
		"psm":         lash.MinerPSM,
		"psm-noindex": lash.MinerPSMNoIndex,
		"bfs":         lash.MinerBFS,
		"dfs":         lash.MinerDFS,
	}
	for in, want := range miners {
		got, err := lash.ParseLocalMiner(in)
		if err != nil || got != want {
			t.Errorf("ParseLocalMiner(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := lash.ParseLocalMiner("bogus"); err == nil {
		t.Error("ParseLocalMiner accepted bogus name")
	}

	restrictions := map[string]lash.Restriction{
		"":        lash.RestrictNone,
		"none":    lash.RestrictNone,
		"closed":  lash.RestrictClosed,
		"maximal": lash.RestrictMaximal,
	}
	for in, want := range restrictions {
		got, err := lash.ParseRestriction(in)
		if err != nil || got != want {
			t.Errorf("ParseRestriction(%q) = %v, %v; want %v", in, got, err, want)
		}
		if got.String() != want.String() {
			t.Errorf("Restriction(%v).String() = %q", got, got.String())
		}
	}
	if _, err := lash.ParseRestriction("bogus"); err == nil {
		t.Error("ParseRestriction accepted bogus name")
	}
	if s := lash.Restriction(9).String(); !strings.Contains(s, "9") {
		t.Errorf("Restriction(9).String() = %q", s)
	}
}

// TestMinerValidates ensures invalid options are rejected before any job
// runs — the snapshot's frequencies are not counted on their behalf.
func TestMinerValidates(t *testing.T) {
	db, err := lash.NewDatabaseBuilder().AddSequence("a", "b").Build()
	if err != nil {
		t.Fatal(err)
	}
	var jobs atomic.Int64
	if _, err := lash.Mine(db, countFListJobs(lash.Options{MinSupport: 1, MaxLength: 1}, &jobs)); err == nil {
		t.Error("Mine accepted MaxLength 1")
	}
	if _, err := lash.Mine(db, countFListJobs(lash.Options{MinSupport: 1, MaxLength: 2}, &jobs)); err != nil {
		t.Fatal(err)
	}
	if n := jobs.Load(); n != 1 {
		t.Errorf("%d f-list jobs after an invalid and a valid run, want 1 (the valid run's)", n)
	}
}

// TestStringParseRoundTrip pins the contract that every valid enum value's
// String() form is accepted by its Parse helper — previously true for
// "MG-FSM" and "LASH(flat)" only by hand-maintained coincidence, and false
// for the local miners.
func TestStringParseRoundTrip(t *testing.T) {
	for _, a := range []lash.Algorithm{
		lash.AlgorithmLASH, lash.AlgorithmNaive, lash.AlgorithmSemiNaive,
		lash.AlgorithmMGFSM, lash.AlgorithmLASHFlat,
	} {
		got, err := lash.ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
	}
	for _, m := range []lash.LocalMiner{
		lash.MinerPSM, lash.MinerPSMNoIndex, lash.MinerBFS, lash.MinerDFS,
	} {
		got, err := lash.ParseLocalMiner(m.String())
		if err != nil || got != m {
			t.Errorf("ParseLocalMiner(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, r := range []lash.Restriction{
		lash.RestrictNone, lash.RestrictClosed, lash.RestrictMaximal,
	} {
		got, err := lash.ParseRestriction(r.String())
		if err != nil || got != r {
			t.Errorf("ParseRestriction(%q) = %v, %v; want %v", r.String(), got, err, r)
		}
	}
	// The paper's figure label for the indexed PSM stays accepted.
	if got, err := lash.ParseLocalMiner("PSM+Index"); err != nil || got != lash.MinerPSM {
		t.Errorf("ParseLocalMiner(PSM+Index) = %v, %v; want MinerPSM", got, err)
	}
}
