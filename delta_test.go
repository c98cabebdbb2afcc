package lash_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"lash"
)

// fragmentOf builds an append fragment out of n of db's own sequences
// (starting at start, wrapping around) plus the given extra sequences —
// re-appending existing content shifts frequencies without inventing
// vocabulary, while extra sequences exercise the new-item paths.
func fragmentOf(t testing.TB, db *lash.Database, start, n int, extra [][]string) *lash.Database {
	t.Helper()
	b := lash.NewDatabaseBuilder()
	total := db.NumSequences()
	for i := 0; i < n; i++ {
		b.AddSequence(db.Sequence((start + i) % total)...)
	}
	for _, seq := range extra {
		b.AddSequence(seq...)
	}
	frag, err := b.Build()
	if err != nil {
		t.Fatalf("building fragment: %v", err)
	}
	return frag
}

func deltaCorpora(t testing.TB, seed int64) map[string]*lash.Database {
	t.Helper()
	text, err := lash.GenerateTextDatabase(lash.TextConfig{Sentences: 400, Lemmas: 120, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	market, err := lash.GenerateMarketDatabase(lash.MarketConfig{Users: 250, Products: 300, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*lash.Database{"text": text, "market": market}
}

// TestDeltaDifferential is the tentpole guarantee: mining an appended
// corpus version with Resume must be byte-identical to a from-scratch mine
// of the same version — across seeds × corpora × all five algorithms. (A
// resume keeps its state's item order, so its partition count and Explored
// are held to a from-scratch mine under that order, by internal/core's
// TestDeltaExploredUnderOrder.)
func TestDeltaDifferential(t *testing.T) {
	algos := []lash.Algorithm{
		lash.AlgorithmLASH, lash.AlgorithmLASHFlat, lash.AlgorithmMGFSM,
		lash.AlgorithmNaive, lash.AlgorithmSemiNaive,
	}
	for _, seed := range []int64{1, 7} {
		corpora := deltaCorpora(t, seed)
		for name, base := range corpora {
			for _, algo := range algos {
				t.Run(fmt.Sprintf("seed%d/%s/%s", seed, name, algo), func(t *testing.T) {
					opt := lash.Options{MinSupport: 12, MaxGap: 1, MaxLength: 4, Algorithm: algo}
					if algo == lash.AlgorithmNaive || algo == lash.AlgorithmSemiNaive {
						// The baselines explode combinatorially (and never
						// capture state — delta silently degrades to a cold
						// mine for them), so their differential checks output
						// equality, not reuse; keep them tractable,
						// especially under -race.
						opt.MinSupport = 40
						opt.MaxLength = 3
					}

					v1, err := lash.Mine(base, opt)
					if err != nil {
						t.Fatal(err)
					}
					isLASH := algo == lash.AlgorithmLASH || algo == lash.AlgorithmLASHFlat || algo == lash.AlgorithmMGFSM
					if isLASH && v1.State == nil {
						t.Fatal("batch run returned no state")
					}
					if !isLASH && v1.State != nil {
						t.Fatal("baseline run unexpectedly returned state")
					}

					frag := fragmentOf(t, base, 3, base.NumSequences()/100+2,
						[][]string{{"nov_x", "nov_y", "nov_x"}, {"nov_y", "nov_z"}})
					v2db, err := base.Append(frag)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := v2db.Version(), base.Version()+1; got != want {
						t.Fatalf("appended version = %d, want %d", got, want)
					}

					cold, err := lash.Mine(v2db, opt)
					if err != nil {
						t.Fatal(err)
					}
					deltaOpt := opt
					deltaOpt.Resume = v1.State
					delta, err := lash.Mine(v2db, deltaOpt)
					if err != nil {
						t.Fatal(err)
					}
					assertSameOutput(t, cold, delta)

					// Chain one more version through the delta-captured state.
					if isLASH {
						if delta.State == nil {
							t.Fatal("delta run returned no state")
						}
						v3db, err := v2db.Append(fragmentOf(t, v2db, 11, 5, nil))
						if err != nil {
							t.Fatal(err)
						}
						cold3, err := lash.Mine(v3db, opt)
						if err != nil {
							t.Fatal(err)
						}
						d3opt := opt
						d3opt.Resume = delta.State
						delta3, err := lash.Mine(v3db, d3opt)
						if err != nil {
							t.Fatal(err)
						}
						assertSameOutput(t, cold3, delta3)
					}
				})
			}
		}
	}
}

// assertSameMining checks the full user-visible mining output matches
// (assertSameOutput), and the partition count against a from-scratch mine
// of db under the rank order the delta run kept (lash.MineUnder): a resume's
// partitions follow that order, not the cold mine's frequency order. A grown
// partition explores only what its appended sequences reach, so Explored
// may only be lower than that mine's, and only if grown (delta or the state
// it resumed grew a partition).
func assertSameMining(t *testing.T, db *lash.Database, opt lash.Options, cold, delta *lash.Result, grown bool) {
	t.Helper()
	assertSameOutput(t, cold, delta)
	ordered, err := lash.MineUnder(db, opt, lash.KeptOrder(delta.State))
	if err != nil {
		t.Fatal(err)
	}
	if ordered.NumPartitions != delta.NumPartitions {
		t.Fatalf("NumPartitions: under the kept order %d, delta %d", ordered.NumPartitions, delta.NumPartitions)
	}
	if delta.Explored > ordered.Miner.Explored || (!grown && delta.Explored != ordered.Miner.Explored) {
		t.Fatalf("Explored: under the kept order %d, delta %d (grown: %v)", ordered.Miner.Explored, delta.Explored, grown)
	}
}

// assertSameOutput checks that the patterns and frequent items of a delta
// run equal a cold mine's. Its partitions follow the item order it kept, not
// the cold mine's frequency order.
func assertSameOutput(t *testing.T, cold, delta *lash.Result) {
	t.Helper()
	if !reflect.DeepEqual(cold.Patterns, delta.Patterns) {
		t.Fatalf("delta patterns differ from cold mine:\ncold:  %d patterns\ndelta: %d patterns", len(cold.Patterns), len(delta.Patterns))
	}
	if !reflect.DeepEqual(cold.FrequentItems, delta.FrequentItems) {
		t.Fatal("delta frequent items differ from cold mine")
	}
}

// TestDeltaReusesPartitions pins the perf contract on a workload built for
// it: a localized append (novel vocabulary plus a few head sequences) must
// leave most partitions spliced, not re-mined.
func TestDeltaReusesPartitions(t *testing.T) {
	base, err := lash.GenerateTextDatabase(lash.TextConfig{Sentences: 1500, Lemmas: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opt := lash.Options{MinSupport: 10, MaxGap: 1, MaxLength: 4}
	v1, err := lash.Mine(base, opt)
	if err != nil {
		t.Fatal(err)
	}
	// A "new topic" append: sequences over fresh vocabulary only. Existing
	// items keep their frequencies, so every previous partition must be
	// reusable.
	frag := fragmentOf(t, base, 0, 0, [][]string{
		{"topic_a", "topic_b", "topic_a", "topic_c"},
		{"topic_b", "topic_a", "topic_c"},
		{"topic_a", "topic_b", "topic_c", "topic_b"},
	})
	v2db, err := base.Append(frag)
	if err != nil {
		t.Fatal(err)
	}
	dOpt := opt
	dOpt.Resume = v1.State
	delta, err := lash.Mine(v2db, dOpt)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := lash.Mine(v2db, lash.Options{MinSupport: 10, MaxGap: 1, MaxLength: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertSameMining(t, v2db, opt, cold, delta, delta.Stats.DeltaPartitionsGrown > 0)
	if delta.Stats.DeltaPartitionsReused == 0 {
		t.Fatalf("new-topic append reused 0 partitions (dirty %d)", delta.Stats.DeltaPartitionsDirty)
	}
	if delta.Stats.DeltaPartitionsDirty > delta.Stats.DeltaPartitionsReused {
		t.Fatalf("new-topic append re-mined %d partitions but reused only %d",
			delta.Stats.DeltaPartitionsDirty, delta.Stats.DeltaPartitionsReused)
	}
}

// TestDeltaGrowsHotPartitions pins the grown path on the append users send:
// a few of the corpus's own sentences dirty its hot partitions, most of
// which keep their visible items. Each of three chained resumes must grow
// partitions, equal the cold mine of its version, and explore strictly less.
func TestDeltaGrowsHotPartitions(t *testing.T) {
	db, err := lash.GenerateTextDatabase(lash.TextConfig{Sentences: 1500, Lemmas: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opt := lash.Options{MinSupport: 10, MaxGap: 1, MaxLength: 4}
	prev, err := lash.Mine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		if db, err = db.Append(fragmentOf(t, db, 100+37*i, 10, nil)); err != nil {
			t.Fatal(err)
		}
		cold, err := lash.Mine(db, opt)
		if err != nil {
			t.Fatal(err)
		}
		dOpt := opt
		dOpt.Resume = prev.State
		delta, err := lash.Mine(db, dOpt)
		if err != nil {
			t.Fatal(err)
		}
		st := delta.Stats
		if st.DeltaPartitionsGrown == 0 || st.DeltaPartitionsGrown > st.DeltaPartitionsDirty {
			t.Fatalf("append %d: %d grown of %d dirty partitions", i+1, st.DeltaPartitionsGrown, st.DeltaPartitionsDirty)
		}
		assertSameMining(t, db, opt, cold, delta, true)
		if delta.Explored >= cold.Explored {
			t.Fatalf("append %d: explored %d, cold mine %d", i+1, delta.Explored, cold.Explored)
		}
		prev = delta
	}
}

// TestDeltaRankShiftChain holds a grown partition read from its kept input
// to the cold mine while frequency order moves away from the lineage's. The
// first append makes new items frequent enough to rank mid-order in a cold
// mine, where the lineage ranks them after every old item; the next ones
// resample the corpus, reordering near-ties that the lineage keeps. Each
// version must equal its cold mine. From the second resume on, the state
// holds kept inputs: the same version resumed from a cold mine of the
// previous one must agree on the patterns and shuffle strictly more.
func TestDeltaRankShiftChain(t *testing.T) {
	db, err := lash.GenerateTextDatabase(lash.TextConfig{Sentences: 1500, Lemmas: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opt := lash.Options{MinSupport: 10, MaxGap: 1, MaxLength: 4}
	prev, err := lash.Mine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	prevCold := prev
	var novel [][]string
	for range 30 {
		novel = append(novel, []string{"shift_a", "shift_b", "shift_a"}, []string{"shift_c", "shift_b"})
	}
	for i := range 3 {
		var extra [][]string
		if i == 0 {
			extra = novel
		}
		if db, err = db.Append(fragmentOf(t, db, 200+53*i, 12, extra)); err != nil {
			t.Fatal(err)
		}
		cold, err := lash.Mine(db, opt)
		if err != nil {
			t.Fatal(err)
		}
		dOpt := opt
		dOpt.Resume = prev.State
		delta, err := lash.Mine(db, dOpt)
		if err != nil {
			t.Fatal(err)
		}
		assertSameMining(t, db, opt, cold, delta, true)
		if delta.Stats.DeltaPartitionsGrown == 0 {
			t.Fatalf("append %d grew no partition", i+1)
		}
		if i > 0 {
			dOpt.Resume = prevCold.State
			fromCold, err := lash.Mine(db, dOpt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fromCold.Patterns, delta.Patterns) {
				t.Fatalf("append %d: resumes from the delta and the cold state disagree", i+1)
			}
			if delta.Stats.MapOutputRecords >= fromCold.Stats.MapOutputRecords {
				t.Fatalf("append %d: resumed from kept inputs, shuffled %d records; from a cold state, %d",
					i+1, delta.Stats.MapOutputRecords, fromCold.Stats.MapOutputRecords)
			}
		}
		prev, prevCold = delta, cold
	}
}

// TestDeltaSharedStateResumes: a state is shared by every resume from it —
// lashd resumes concurrent jobs from one cached state — and its kept inputs
// by every later state that reused their records. Two concurrent resumes
// from one delta state must both equal the cold mine and leave the state's
// kept inputs byte-identical.
func TestDeltaSharedStateResumes(t *testing.T) {
	db, err := lash.GenerateTextDatabase(lash.TextConfig{Sentences: 1500, Lemmas: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opt := lash.Options{MinSupport: 10, MaxGap: 1, MaxLength: 4}
	v1, err := lash.Mine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if db, err = db.Append(fragmentOf(t, db, 100, 10, nil)); err != nil {
		t.Fatal(err)
	}
	dOpt := opt
	dOpt.Resume = v1.State
	v2, err := lash.Mine(db, dOpt)
	if err != nil {
		t.Fatal(err)
	}
	before := lash.KeptInputs(v2.State)
	if !slices.ContainsFunc(before, func(in []byte) bool { return in != nil }) {
		t.Fatal("the delta state keeps no input")
	}
	if db, err = db.Append(fragmentOf(t, db, 400, 10, nil)); err != nil {
		t.Fatal(err)
	}
	cold, err := lash.Mine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	dOpt.Resume = v2.State
	var res [2]*lash.Result
	var errs [2]error
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = lash.Mine(db, dOpt)
		}()
	}
	wg.Wait()
	for i := range res {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if res[i].Stats.DeltaPartitionsGrown == 0 {
			t.Fatal("the resume grew no partition")
		}
		assertSameMining(t, db, opt, cold, res[i], true)
	}
	if !reflect.DeepEqual(lash.KeptInputs(v2.State), before) {
		t.Fatal("resuming from the state changed its kept inputs")
	}
}

// TestDeltaAppendedCopies holds a grown partition's supports to how many
// times the append holds each sequence. Each of two appends repeats the same
// old sentences twice, so every appended rewrite equals an old one: the first
// resume (from a cold mine) finds the old copies in the same shuffled entry,
// the second (from that resume's state) folds them in from the kept input.
// A grown node answered from the state must add the appended copies alone;
// both versions must equal their cold mines.
func TestDeltaAppendedCopies(t *testing.T) {
	db, err := lash.GenerateTextDatabase(lash.TextConfig{Sentences: 1500, Lemmas: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opt := lash.Options{MinSupport: 10, MaxGap: 1, MaxLength: 4}
	prev, err := lash.Mine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		b := lash.NewDatabaseBuilder()
		for range 2 {
			for j := range 8 {
				b.AddSequence(db.Sequence(150 + j)...)
			}
		}
		frag, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if db, err = db.Append(frag); err != nil {
			t.Fatal(err)
		}
		cold, err := lash.Mine(db, opt)
		if err != nil {
			t.Fatal(err)
		}
		dOpt := opt
		dOpt.Resume = prev.State
		delta, err := lash.Mine(db, dOpt)
		if err != nil {
			t.Fatal(err)
		}
		if delta.Stats.DeltaPartitionsGrown == 0 {
			t.Fatalf("append %d grew no partition", i+1)
		}
		assertSameMining(t, db, opt, cold, delta, true)
		prev = delta
	}
}

// TestDeltaRestrictions: restrictions post-process the spliced pattern set,
// so closed/maximal outputs must also match a cold mine exactly.
func TestDeltaRestrictions(t *testing.T) {
	base, err := lash.GenerateTextDatabase(lash.TextConfig{Sentences: 300, Lemmas: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []lash.Restriction{lash.RestrictClosed, lash.RestrictMaximal} {
		opt := lash.Options{MinSupport: 8, MaxGap: 1, MaxLength: 4, Restriction: r}
		v1, err := lash.Mine(base, opt)
		if err != nil {
			t.Fatal(err)
		}
		v2db, err := base.Append(fragmentOf(t, base, 1, 6, nil))
		if err != nil {
			t.Fatal(err)
		}
		cold, err := lash.Mine(v2db, opt)
		if err != nil {
			t.Fatal(err)
		}
		dOpt := opt
		dOpt.Resume = v1.State
		delta, err := lash.Mine(v2db, dOpt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold.Patterns, delta.Patterns) {
			t.Fatalf("restriction %v: delta patterns differ from cold mine", r)
		}
	}
}

// TestAppendSemantics covers the version/lineage contract and the append
// validation rules.
func TestAppendSemantics(t *testing.T) {
	b := lash.NewDatabaseBuilder()
	b.AddParent("b1", "B").AddParent("b2", "B")
	b.AddSequence("a", "b1", "a")
	b.AddSequence("a", "b2", "c")
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if base.Version() != 1 {
		t.Fatalf("fresh database version = %d, want 1", base.Version())
	}

	fb := lash.NewDatabaseBuilder()
	fb.AddParent("b3", "B")
	fb.AddSequence("a", "b3", "c")
	frag, err := fb.Build()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := base.Append(frag)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Version() != 2 {
		t.Fatalf("v2 version = %d, want 2", v2.Version())
	}
	if base.NumSequences() != 2 || v2.NumSequences() != 3 {
		t.Fatalf("copy-on-append violated: base has %d sequences, v2 has %d", base.NumSequences(), v2.NumSequences())
	}
	if lvl := v2.ItemLevel("b3"); lvl != 1 {
		t.Fatalf("new item b3 level = %d, want 1", lvl)
	}
	if lvl := base.ItemLevel("b3"); lvl != -1 {
		t.Fatal("append leaked the new item into the old snapshot")
	}

	// Re-parenting an existing item is rejected: b1 already generalizes to
	// B, and the base's root "a" cannot gain a parent either.
	for _, edge := range [][2]string{{"b1", "D"}, {"a", "B"}} {
		rb := lash.NewDatabaseBuilder()
		rb.AddParent(edge[0], edge[1])
		rb.AddSequence(edge[0], edge[0])
		rfrag, err := rb.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := base.Append(rfrag); err == nil {
			t.Fatalf("append re-parenting %s under %s succeeded, want error", edge[0], edge[1])
		}
	}

	// Declaring the existing parent again is fine.
	ob := lash.NewDatabaseBuilder()
	ob.AddParent("b1", "B")
	ob.AddSequence("b1", "a")
	ofrag, err := ob.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v2.Append(ofrag); err != nil {
		t.Fatalf("append re-declaring an existing edge: %v", err)
	}

	// An empty fragment is rejected.
	eb := lash.NewDatabaseBuilder()
	efrag, err := eb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Append(efrag); err == nil {
		t.Fatal("append of an empty fragment succeeded, want error")
	}
}

// TestResumeValidation: states only seed databases descended from the
// snapshot they were captured on, under equal canonical options. A state
// captured at or before an append fork seeds both branches; states
// captured on one branch never validate on the other.
func TestResumeValidation(t *testing.T) {
	base, err := lash.GenerateTextDatabase(lash.TextConfig{Sentences: 100, Lemmas: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	opt := lash.Options{MinSupport: 5, MaxGap: 1, MaxLength: 3}
	v1, err := lash.Mine(base, opt)
	if err != nil {
		t.Fatal(err)
	}
	frag := fragmentOf(t, base, 0, 3, nil)
	v2a, err := base.Append(frag)
	if err != nil {
		t.Fatal(err)
	}
	if !v1.State.ValidFor(v2a, opt) {
		t.Fatal("state invalid for the lineage tip")
	}
	if v1.State.CorpusVersion() != base.Version() || !v1.State.ValidFor(base, opt) {
		t.Fatalf("state covers version %d; want the database's version %d, and valid for it", v1.State.CorpusVersion(), base.Version())
	}

	// Different options: invalid, and Mine rejects it.
	other := opt
	other.MinSupport = 6
	if v1.State.ValidFor(v2a, other) {
		t.Fatal("state valid under different options")
	}
	badOpt := other
	badOpt.Resume = v1.State
	if _, err := lash.Mine(v2a, badOpt); err == nil {
		t.Fatal("Mine accepted a Resume state with mismatched options")
	}

	// Fork: appending from base a second time diverges the history. The
	// pre-fork state seeds both branches (their common prefix is exactly
	// the corpus it covers), but a state captured on one branch must not
	// validate against the other — their version-2 contents differ.
	v2b, err := base.Append(fragmentOf(t, base, 50, 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !v1.State.ValidFor(v2a, opt) || !v1.State.ValidFor(v2b, opt) {
		t.Fatal("pre-fork state must validate on both branches")
	}
	forkOpt := opt
	forkOpt.Resume = v1.State
	vb, err := lash.Mine(v2b, forkOpt)
	if err != nil {
		t.Fatal(err)
	}
	if vb.State.ValidFor(v2a, opt) {
		t.Fatal("state captured on one branch validated against the other")
	}
	va, err := lash.Mine(v2a, forkOpt)
	if err != nil {
		t.Fatal(err)
	}
	if va.State.ValidFor(v2b, opt) {
		t.Fatal("state captured on one branch validated against the other")
	}
	coldB, err := lash.Mine(v2b, lash.Options{MinSupport: 5, MaxGap: 1, MaxLength: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldB.Patterns, vb.Patterns) {
		t.Fatal("delta mine across a fork differs from cold mine")
	}

	// CacheKey ignores Resume: a delta-mined result answers the same cache
	// lookups a cold mine would.
	plain := lash.Options{MinSupport: 5, MaxGap: 1, MaxLength: 3}
	withState := plain
	withState.Resume = v1.State
	if plain.CacheKey() != withState.CacheKey() {
		t.Fatal("CacheKey depends on Resume")
	}
}

// TestAppendBinary: a self-contained .ldb fragment appends by item name.
func TestAppendBinary(t *testing.T) {
	b := lash.NewDatabaseBuilder()
	b.AddParent("b1", "B")
	b.AddSequence("a", "b1", "a")
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fb := lash.NewDatabaseBuilder()
	fb.AddParent("b2", "B")
	fb.AddSequence("a", "b2")
	frag, err := fb.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := frag.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	fragBack, err := lash.ReadBinaryDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := base.Append(fragBack)
	if err != nil {
		t.Fatal(err)
	}
	if v2.NumSequences() != 2 || v2.Version() != 2 {
		t.Fatalf("binary append: %d sequences, version %d", v2.NumSequences(), v2.Version())
	}
	if got := v2.Sequence(1); len(got) != 2 || got[0] != "a" || got[1] != "b2" {
		t.Fatalf("binary append remapped sequence = %v", got)
	}
	if p, ok := v2.ItemParent("b2"); !ok || p != "B" {
		t.Fatalf("b2 parent = %q, %v", p, ok)
	}
}
