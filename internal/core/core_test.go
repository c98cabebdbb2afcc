package core_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"lash/internal/baseline"
	"lash/internal/core"
	"lash/internal/datagen"
	"lash/internal/faults"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
	"lash/internal/mapreduce"
	"lash/internal/miner"
	"lash/internal/paperex"
	"lash/internal/rewrite"
)

var smallMR = mapreduce.Config{Workers: 2, MapTasks: 3, ReduceTasks: 3}

// The paper's running example (§2, Fig. 2): LASH must output exactly
// (aa,2), (ab1,2), (b1a,2), (aB,3), (Ba,2), (aBc,2), (Bc,2), (ac,2),
// (b1D,2), (BD,2) — with every local miner.
func TestPaperExampleEndToEnd(t *testing.T) {
	db := paperex.Database()
	want := paperex.Expected(db.Forest)
	for _, kind := range []miner.Kind{miner.KindPSM, miner.KindPSMNoIndex, miner.KindBFS, miner.KindDFS} {
		res, err := core.Mine(context.Background(), db, core.Options{Params: paperex.Params(), Miner: kind, MR: smallMR})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !gsm.EqualPatterns(res.Patterns, want) {
			t.Fatalf("%s mismatch:\n%s", kind, gsm.DiffPatterns(db.Forest, res.Patterns, want))
		}
		if res.NumPartitions != 5 {
			t.Errorf("%s: %d partitions, want 5 (a, B, b1, c, D)", kind, res.NumPartitions)
		}
		if len(res.FrequentItems) != 5 {
			t.Errorf("%s: %d frequent items, want 5", kind, len(res.FrequentItems))
		}
		if res.Jobs.FList == nil || res.Jobs.Mine == nil {
			t.Errorf("%s: job stats missing", kind)
		}
		if res.Jobs.Mine.MapOutputBytes <= 0 {
			t.Errorf("%s: no map output bytes recorded", kind)
		}
	}
}

// Frequent single items carry the generalized f-list frequencies (Fig. 2).
func TestFrequentItems(t *testing.T) {
	db := paperex.Database()
	res, err := core.Mine(context.Background(), db, core.Options{Params: paperex.Params(), MR: smallMR})
	if err != nil {
		t.Fatal(err)
	}
	want := paperex.GeneralizedFList()
	if len(res.FrequentItems) != len(want) {
		t.Fatalf("%d frequent items, want %d", len(res.FrequentItems), len(want))
	}
	for i, row := range want {
		got := res.FrequentItems[i]
		if db.Forest.Name(got.Items[0]) != row.Name || got.Support != row.Freq {
			t.Errorf("item %d: %s:%d, want %s:%d", i,
				db.Forest.Name(got.Items[0]), got.Support, row.Name, row.Freq)
		}
	}
}

// The naïve and semi-naïve baselines reproduce the same golden output.
func TestBaselinesPaperExample(t *testing.T) {
	db := paperex.Database()
	want := paperex.Expected(db.Forest)
	opt := baseline.Options{Params: paperex.Params(), MR: smallMR}
	nv, err := baseline.MineNaive(context.Background(), db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !gsm.EqualPatterns(nv.Patterns, want) {
		t.Fatalf("naive mismatch:\n%s", gsm.DiffPatterns(db.Forest, nv.Patterns, want))
	}
	sn, err := baseline.MineSemiNaive(context.Background(), db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !gsm.EqualPatterns(sn.Patterns, want) {
		t.Fatalf("semi-naive mismatch:\n%s", gsm.DiffPatterns(db.Forest, sn.Patterns, want))
	}
	// The semi-naïve algorithm must shuffle no more records than the naïve
	// one (§3.3) — on this database strictly fewer.
	if sn.Jobs.Mine.MapOutputRecords >= nv.Jobs.Mine.MapOutputRecords {
		t.Errorf("semi-naive records %d ≥ naive records %d",
			sn.Jobs.Mine.MapOutputRecords, nv.Jobs.Mine.MapOutputRecords)
	}
}

// LASH shuffles fewer bytes than both baselines on the running example
// (Fig. 4b's claim at toy scale).
func TestShuffleBytesOrdering(t *testing.T) {
	db := paperex.Database()
	lash, err := core.Mine(context.Background(), db, core.Options{Params: paperex.Params(), MR: smallMR})
	if err != nil {
		t.Fatal(err)
	}
	nv, err := baseline.MineNaive(context.Background(), db, baseline.Options{Params: paperex.Params(), MR: smallMR})
	if err != nil {
		t.Fatal(err)
	}
	if lash.Jobs.Mine.MapOutputBytes >= nv.Jobs.Mine.MapOutputBytes {
		t.Errorf("LASH bytes %d ≥ naive bytes %d",
			lash.Jobs.Mine.MapOutputBytes, nv.Jobs.Mine.MapOutputBytes)
	}
}

// The emission cap turns into ErrEmitCapExceeded (the paper's ">12 hrs").
func TestEmitCap(t *testing.T) {
	db := paperex.Database()
	opt := baseline.Options{Params: paperex.Params(), MR: smallMR, MaxEmit: 5}
	if _, err := baseline.MineNaive(context.Background(), db, opt); err != baseline.ErrEmitCapExceeded {
		t.Errorf("naive: err = %v, want cap exceeded", err)
	}
	if _, err := baseline.MineSemiNaive(context.Background(), db, opt); err != baseline.ErrEmitCapExceeded {
		t.Errorf("semi-naive: err = %v, want cap exceeded", err)
	}
}

// Flat mode ignores the hierarchy: only plain subsequences are counted.
func TestFlatMode(t *testing.T) {
	db := paperex.Database()
	res, err := core.Mine(context.Background(), db, core.Options{
		Params: gsm.Params{Sigma: 2, Gamma: 1, Lambda: 3},
		Flat:   true,
		Miner:  miner.KindBFS, // MG-FSM configuration
		MR:     smallMR,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Without the hierarchy: items a(5), c(3) are frequent; b1 appears in
	// T1 only (f=1); B never appears literally. Frequent 2-sequences with
	// σ=2, γ=1: "a a" (T1: a_a; T4: a_a) and "a c" (T2: a_c...wait T2 = a b3
	// c → gap 1 ok; T3: ac adjacent; T5: a..c distance 3 → no) = 2.
	want := []gsm.Pattern{
		{Items: paperex.Seq(db.Forest, "a a"), Support: 2},
		{Items: paperex.Seq(db.Forest, "a c"), Support: 2},
	}
	gsm.SortPatterns(want)
	if !gsm.EqualPatterns(res.Patterns, want) {
		t.Fatalf("flat mismatch:\n%s", gsm.DiffPatterns(db.Forest, res.Patterns, want))
	}
	// Flat LASH (PSM) must agree with MG-FSM (BFS).
	res2, err := core.Mine(context.Background(), db, core.Options{
		Params: gsm.Params{Sigma: 2, Gamma: 1, Lambda: 3},
		Flat:   true,
		Miner:  miner.KindPSM,
		MR:     smallMR,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !gsm.EqualPatterns(res2.Patterns, want) {
		t.Fatalf("flat PSM mismatch:\n%s", gsm.DiffPatterns(db.Forest, res2.Patterns, want))
	}
}

func TestOptionValidation(t *testing.T) {
	db := paperex.Database()
	if _, err := core.Mine(context.Background(), db, core.Options{Params: gsm.Params{Sigma: 0, Gamma: 0, Lambda: 3}}); err == nil {
		t.Error("invalid σ accepted")
	}
	if _, err := core.Mine(context.Background(), &gsm.Database{}, core.Options{Params: paperex.Params()}); err == nil {
		t.Error("missing forest accepted")
	}
	bad := paperex.Database()
	bad.Seqs = append(bad.Seqs, gsm.Sequence{hierarchy.Item(9999)})
	if _, err := core.Mine(context.Background(), bad, core.Options{Params: paperex.Params()}); err == nil {
		t.Error("out-of-vocabulary item accepted")
	}
}

// All rewrite modes must produce identical results (the ablation study's
// correctness precondition), differing only in shuffle volume.
func TestRewriteModesAgree(t *testing.T) {
	db := paperex.Database()
	want := paperex.Expected(db.Forest)
	var bytes []int64
	for _, mode := range []rewrite.Mode{rewrite.ModeFull, rewrite.ModeGeneralizeOnly, rewrite.ModeNone} {
		res, err := core.Mine(context.Background(), db, core.Options{Params: paperex.Params(), Rewrites: mode, MR: smallMR})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !gsm.EqualPatterns(res.Patterns, want) {
			t.Fatalf("%v mismatch:\n%s", mode, gsm.DiffPatterns(db.Forest, res.Patterns, want))
		}
		bytes = append(bytes, res.Jobs.Mine.MapOutputBytes)
	}
	if !(bytes[0] <= bytes[1] && bytes[1] <= bytes[2]) {
		t.Errorf("shuffle bytes not monotone across modes: %v", bytes)
	}
}

// flistCorpus is the fixed corpus of the f-list job tests below.
func flistCorpus(t *testing.T) *gsm.Database {
	t.Helper()
	db, err := datagen.GenerateText(datagen.TextConfig{Sentences: 3000, Lemmas: 1200, Seed: 1}).Build(datagen.HierarchyCLP)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// The f-list job's counters feed the paper tables that print FList phases;
// this golden pins them (they predate the job's move onto RunAgg, which
// reproduced them exactly).
func TestFListJobCountersGolden(t *testing.T) {
	db := flistCorpus(t)
	_, stats, err := core.FListJob(context.Background(), db, 25, mapreduce.Config{Workers: 4, MapTasks: 7, ReduceTasks: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := mapreduce.Counters{
		MapInputRecords: 3000, MapOutputRecords: 12379, MapOutputBytes: 99032,
		ReduceInputKeys: 3299, ReduceOutputRecords: 3299,
	}
	if stats.Counters != want {
		t.Fatalf("f-list job counters = %+v, want %+v", stats.Counters, want)
	}
}

// The partition+mine job's counters say what the map-side rewrite shuffled:
// one rewritten byte more or less moves MapOutputBytes, a lost or spurious
// emission moves the record and partition counts. The values were recorded
// before the rewrite was given its one-Load-per-sequence, windowed form, which
// must reproduce them; the weaker modes are lash-exp's ablation rows. A
// SHA-256 of the sorted patterns and supports catches, at a scale the oracle
// cannot reach, a shuffle or aggregation fault that keeps every count.
func TestMineJobCountersGolden(t *testing.T) {
	db := flistCorpus(t)
	type golden struct {
		in, out, bytes, keys int64
		parts                int
		partSeqs             int64
		explored, output     int64
	}
	cases := []struct {
		params gsm.Params
		mode   rewrite.Mode
		want   golden
		digest string
	}{
		{gsm.Params{Sigma: 25, Gamma: 0, Lambda: 3}, rewrite.ModeFull,
			golden{3000, 68632, 541124, 390, 390, 63922, 72937, 3322},
			"e90dd96c638058dba3ba13aa41fe4333d983128d246b42d727477c5c64112a06"},
		{gsm.Params{Sigma: 25, Gamma: 1, Lambda: 4}, rewrite.ModeFull,
			golden{3000, 76029, 1048664, 390, 390, 74229, 305989, 22054},
			"29a910ccf4e3e14e831164afc628f2ea4aa4c2d8b42745d0cc39159554528c30"},
		{gsm.Params{Sigma: 25, Gamma: 1, Lambda: 4}, rewrite.ModeGeneralizeOnly,
			golden{3000, 81079, 1979872, 390, 390, 81017, 305989, 22054},
			"29a910ccf4e3e14e831164afc628f2ea4aa4c2d8b42745d0cc39159554528c30"},
		{gsm.Params{Sigma: 25, Gamma: 1, Lambda: 4}, rewrite.ModeNone,
			golden{3000, 81510, 2627995, 390, 390, 81510, 305989, 22054},
			"29a910ccf4e3e14e831164afc628f2ea4aa4c2d8b42745d0cc39159554528c30"},
	}
	for _, c := range cases {
		res, err := core.Mine(context.Background(), db, core.Options{Params: c.params, Rewrites: c.mode,
			MR: mapreduce.Config{Workers: 4, MapTasks: 7, ReduceTasks: 5}})
		if err != nil {
			t.Fatal(err)
		}
		n := res.Jobs.Mine.Counters
		got := golden{n.MapInputRecords, n.MapOutputRecords, n.MapOutputBytes, n.ReduceInputKeys,
			res.NumPartitions, res.PartitionSeqs, res.Miner.Explored, res.Miner.Output}
		if got != c.want {
			t.Errorf("%+v %v: partition+mine counters = %+v, want %+v", c.params, c.mode, got, c.want)
		}
		h := sha256.New()
		for _, p := range res.Patterns {
			fmt.Fprintln(h, p.Items, p.Support)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.digest {
			t.Errorf("%+v %v: patterns digest %s, want %s", c.params, c.mode, got, c.digest)
		}
	}
}

// A transient map-task fault during the f-list job is retried, and the
// retried run's frequencies and patterns equal the fault-free run's.
func TestFListJobRecoversFromMapFault(t *testing.T) {
	db := flistCorpus(t)
	opt := core.Options{Params: gsm.Params{Sigma: 25, Gamma: 1, Lambda: 3}, MR: smallMR}
	want, err := core.Mine(context.Background(), db, opt)
	if err != nil {
		t.Fatal(err)
	}
	reg := &faults.Registry{}
	reg.FailNth("mapreduce.map.task", 1, faults.Error) // the run's first map task is the f-list job's
	opt.MR.Faults = reg
	opt.MR.Retry = mapreduce.RetryPolicy{MaxAttempts: 2}
	got, err := core.Mine(context.Background(), db, opt)
	if err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	if got.Jobs.FList.TaskRetries < 1 || got.Jobs.FList.FaultsInjected != 1 {
		t.Errorf("f-list job: %d retries, %d faults; want the injected fault retried there",
			got.Jobs.FList.TaskRetries, got.Jobs.FList.FaultsInjected)
	}
	if !gsm.EqualPatterns(got.FrequentItems, want.FrequentItems) {
		t.Errorf("frequencies diverge after the retry:\n%s", gsm.DiffPatterns(db.Forest, got.FrequentItems, want.FrequentItems))
	}
	if !gsm.EqualPatterns(got.Patterns, want.Patterns) {
		t.Errorf("patterns diverge after the retry:\n%s", gsm.DiffPatterns(db.Forest, got.Patterns, want.Patterns))
	}
}

// A memory budget is for the partition+mine shuffle; the f-list job's
// per-item counts must stay in memory under it.
func TestFListJobIgnoresMemoryBudget(t *testing.T) {
	db := flistCorpus(t)
	mr := smallMR
	mr.MemoryBudget = 4 << 10
	mr.SpillDir = t.TempDir()
	res, err := core.Mine(context.Background(), db, core.Options{Params: gsm.Params{Sigma: 25, Gamma: 1, Lambda: 3}, MR: mr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs.Mine.SpillRuns == 0 {
		t.Fatal("test vacuous: the budget did not make the mining job spill")
	}
	if res.Jobs.FList.SpillRuns != 0 {
		t.Errorf("f-list job wrote %d spill runs under the budget", res.Jobs.FList.SpillRuns)
	}
}
