package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"lash/internal/baseline"
	"lash/internal/core"
	"lash/internal/datagen"
	"lash/internal/faults"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
	"lash/internal/mapreduce"
	"lash/internal/miner"
	"lash/internal/paperex"
	"lash/internal/pindex"
	"lash/internal/rewrite"
)

// oracleCorpus is a database small enough for gsm.MineBruteForce, with the
// parameters it is mined at.
type oracleCorpus struct {
	name   string
	db     *gsm.Database
	params gsm.Params
}

// oracleMemo holds gsm.MineBruteForce's output by corpus name (a flattened
// corpus is named with a "/flat" suffix), so that the tests sharing a corpus
// enumerate it once.
var oracleMemo = map[string][]gsm.Pattern{}

func (c oracleCorpus) oracle() []gsm.Pattern {
	want, ok := oracleMemo[c.name]
	if !ok {
		want = gsm.MineBruteForce(c.db, c.params)
		oracleMemo[c.name] = want
	}
	return want
}

// flat is the corpus over its vocabulary without the hierarchy, as the flat
// variants (LASH-flat, MG-FSM) mine it: item ids are kept.
func (c oracleCorpus) flat() oracleCorpus {
	names := make([]string, c.db.Forest.Size())
	for w := range names {
		names[w] = c.db.Forest.Name(hierarchy.Item(w))
	}
	return oracleCorpus{c.name + "/flat", &gsm.Database{Seqs: c.db.Seqs, Forest: hierarchy.Flat(names)}, c.params}
}

func randDB(r *rand.Rand) *gsm.Database {
	b := hierarchy.NewBuilder()
	n := 4 + r.Intn(8)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = string(rune('a' + i))
		b.Add(names[i])
	}
	for i := 1; i < n; i++ {
		if r.Intn(2) == 0 {
			b.AddEdge(names[i], names[r.Intn(i)])
		}
	}
	f, err := b.Build()
	if err != nil {
		panic(err)
	}
	db := &gsm.Database{Forest: f}
	for i, k := 0, 2+r.Intn(7); i < k; i++ {
		l := 1 + r.Intn(8)
		s := make(gsm.Sequence, l)
		for j := range s {
			s[j] = hierarchy.Item(r.Intn(n))
		}
		db.Seqs = append(db.Seqs, s)
	}
	return db
}

// Property: LASH (all four local miners), naïve, and semi-naïve all equal
// the brute-force oracle on random databases.
func TestQuickAllAlgorithmsAgree(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r)
		p := gsm.Params{
			Sigma:  1 + int64(r.Intn(3)),
			Gamma:  r.Intn(3),
			Lambda: 2 + r.Intn(3),
		}
		want := gsm.MineBruteForce(db, p)
		for _, kind := range []miner.Kind{miner.KindPSM, miner.KindPSMNoIndex, miner.KindBFS, miner.KindDFS} {
			res, err := core.Mine(context.Background(), db, core.Options{Params: p, Miner: kind, MR: smallMR})
			if err != nil || !gsm.EqualPatterns(res.Patterns, want) {
				return false
			}
		}
		nv, err := baseline.MineNaive(context.Background(), db, baseline.Options{Params: p, MR: smallMR})
		if err != nil || !gsm.EqualPatterns(nv.Patterns, want) {
			return false
		}
		sn, err := baseline.MineSemiNaive(context.Background(), db, baseline.Options{Params: p, MR: smallMR})
		if err != nil || !gsm.EqualPatterns(sn.Patterns, want) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(211))}); err != nil {
		t.Fatal(err)
	}
}

// Property: every rewrite mode equals the brute-force oracle on random
// databases.
func TestQuickRewriteModesAgree(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r)
		p := gsm.Params{Sigma: 1 + int64(r.Intn(3)), Gamma: r.Intn(3), Lambda: 2 + r.Intn(3)}
		want := gsm.MineBruteForce(db, p)
		for _, mode := range []rewrite.Mode{rewrite.ModeFull, rewrite.ModeGeneralizeOnly, rewrite.ModeNone} {
			res, err := core.Mine(context.Background(), db, core.Options{Params: p, Rewrites: mode, MR: smallMR})
			if err != nil || !gsm.EqualPatterns(res.Patterns, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(227))}); err != nil {
		t.Fatal(err)
	}
}

// Property: under every MapReduce configuration the result equals the
// brute-force oracle.
func TestQuickMRConfigIndependence(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r)
		p := gsm.Params{Sigma: 1 + int64(r.Intn(2)), Gamma: r.Intn(2), Lambda: 2 + r.Intn(2)}
		want := gsm.MineBruteForce(db, p)
		for _, cfg := range []mapreduce.Config{
			{Workers: 1, MapTasks: 1, ReduceTasks: 1},
			{Workers: 4, MapTasks: 7, ReduceTasks: 5},
			{Workers: 2, MapTasks: 1, ReduceTasks: 9},
		} {
			res, err := core.Mine(context.Background(), db, core.Options{Params: p, MR: cfg})
			if err != nil || !gsm.EqualPatterns(res.Patterns, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(223))}); err != nil {
		t.Fatal(err)
	}
}

// generatedCorpora are datagen corpora at the oracle's scale: text under two
// hierarchies for three seeds, and market sessions, at λ 3.
func generatedCorpora(t *testing.T) []oracleCorpus {
	t.Helper()
	params := gsm.Params{Sigma: 3, Gamma: 1, Lambda: 3}
	var out []oracleCorpus
	for seed := int64(1); seed <= 3; seed++ {
		corpus := datagen.GenerateText(datagen.TextConfig{Sentences: 25, Lemmas: 150, Seed: seed})
		for _, variant := range []datagen.TextHierarchy{datagen.HierarchyLP, datagen.HierarchyCLP} {
			db, err := corpus.Build(variant)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, oracleCorpus{fmt.Sprintf("text/seed%d/%s", seed, variant), db, params})
		}
	}
	db, err := datagen.GenerateMarket(datagen.MarketConfig{Users: 40, Seed: 7}).Build(4)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, oracleCorpus{"market/h4", db, params})
}

// oracleCorpora are TestOracleMatrix's corpora: random databases with random
// parameters, the paper's running example and the generated corpora.
func oracleCorpora(t *testing.T) []oracleCorpus {
	var out []oracleCorpus
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r)
		p := gsm.Params{Sigma: 1 + int64(r.Intn(3)), Gamma: r.Intn(3), Lambda: 2 + r.Intn(3)}
		out = append(out, oracleCorpus{fmt.Sprintf("rand/%d", seed), db, p})
	}
	out = append(out, oracleCorpus{"paperex", paperex.Database(), paperex.Params()})
	return append(out, generatedCorpora(t)...)
}

// withReduceFault arms the mining job's second reduce task to fail once (the
// first ReduceTasks hits of the point are the f-list job's) and allows a
// retry.
func withReduceFault(o core.Options) core.Options {
	o.MR.Faults = &faults.Registry{}
	o.MR.Faults.FailNth("mapreduce.reduce.task", o.MR.ReduceTasks+2, faults.Error)
	o.MR.Retry = mapreduce.RetryPolicy{MaxAttempts: 2}
	return o
}

// TestOracleMatrix holds every way of running LASH and its comparison points
// to the definition: on each corpus, every row's patterns equal
// gsm.MineBruteForce's (over the flattened forest for the flat variants),
// and an index built over the result answers for exactly those patterns.
func TestOracleMatrix(t *testing.T) {
	ctx := context.Background()
	var spilled, reused, grown, remined int
	type row struct {
		name string
		flat bool
		mine func(t *testing.T, db *gsm.Database, o core.Options) *core.Result
	}
	mine := func(t *testing.T, db *gsm.Database, o core.Options) *core.Result {
		t.Helper()
		res, err := core.Mine(ctx, db, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	opts := func(set func(*core.Options)) func(*testing.T, *gsm.Database, core.Options) *core.Result {
		return func(t *testing.T, db *gsm.Database, o core.Options) *core.Result {
			set(&o)
			return mine(t, db, o)
		}
	}
	counting := func(run func(context.Context, *gsm.Database, baseline.Options) (*core.Result, error)) func(*testing.T, *gsm.Database, core.Options) *core.Result {
		return func(t *testing.T, db *gsm.Database, o core.Options) *core.Result {
			res, err := run(ctx, db, baseline.Options{Params: o.Params, MR: o.MR})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
	}
	var rows []row
	for _, kind := range []miner.Kind{miner.KindPSM, miner.KindPSMNoIndex, miner.KindBFS, miner.KindDFS} {
		rows = append(rows, row{kind.String(), false, opts(func(o *core.Options) { o.Miner = kind })})
	}
	for _, mode := range []rewrite.Mode{rewrite.ModeGeneralizeOnly, rewrite.ModeNone} {
		rows = append(rows, row{"rewrite " + mode.String(), false, opts(func(o *core.Options) { o.Rewrites = mode })})
	}
	for _, mr := range []mapreduce.Config{{Workers: 1, MapTasks: 1, ReduceTasks: 1}, {Workers: 4, MapTasks: 7, ReduceTasks: 5}, {Workers: 2, MapTasks: 1, ReduceTasks: 9}} {
		rows = append(rows, row{fmt.Sprintf("MR %d/%d/%d", mr.Workers, mr.MapTasks, mr.ReduceTasks), false, opts(func(o *core.Options) { o.MR = mr })})
	}
	rows = append(rows,
		row{"LASH-flat", true, opts(func(o *core.Options) { o.Flat = true })},
		row{"MG-FSM", true, opts(func(o *core.Options) { o.Flat, o.Miner = true, miner.KindBFS })},
		row{"naive", false, counting(baseline.MineNaive)},
		row{"semi-naive", false, counting(baseline.MineSemiNaive)},
		row{"spill", false, func(t *testing.T, db *gsm.Database, o core.Options) *core.Result {
			o.MR.MemoryBudget, o.MR.SpillDir = 256, t.TempDir()
			res := mine(t, db, o)
			if res.Jobs.Mine.SpillRuns > 0 {
				spilled++
			}
			return res
		}},
		row{"resume", false, func(t *testing.T, db *gsm.Database, o core.Options) *core.Result {
			v1 := mine(t, &gsm.Database{Seqs: db.Seqs[:len(db.Seqs)*2/3], Forest: db.Forest}, o)
			o.Prev = v1.Delta
			res := mine(t, db, o)
			reused, grown, remined = reused+res.DeltaReused, grown+res.DeltaGrown, remined+res.DeltaDirty-res.DeltaGrown
			return res
		}},
	)
	for _, kind := range []miner.Kind{miner.KindPSM, miner.KindBFS} {
		rows = append(rows, row{"retry " + kind.String(), false, func(t *testing.T, db *gsm.Database, o core.Options) *core.Result {
			o.Miner = kind
			res, err := core.Mine(ctx, db, withReduceFault(o))
			if err != nil {
				t.Fatalf("retry %s: %v", kind, err)
			}
			if res.Jobs.Mine.TaskRetries != 1 || res.Jobs.Mine.FaultsInjected != 1 {
				t.Errorf("retry %s: %d retries, %d faults in the mining job; want 1 and 1", kind, res.Jobs.Mine.TaskRetries, res.Jobs.Mine.FaultsInjected)
			}
			return res
		}})
	}

	for _, c := range oracleCorpora(t) {
		t.Run(c.name, func(t *testing.T) {
			want, flatWant := c.oracle(), c.flat().oracle()
			base := core.Options{Params: c.params, MR: smallMR}
			for _, r := range rows {
				got, w := r.mine(t, c.db, base).Patterns, want
				if r.flat {
					w = flatWant
				}
				if !gsm.EqualPatterns(got, w) {
					t.Errorf("%s: patterns diverge from the oracle:\n%s", r.name, gsm.DiffPatterns(c.db.Forest, got, w))
				}
			}

			res := mine(t, c.db, base)
			names := func(s gsm.Sequence) []string {
				out := make([]string, len(s))
				for i, w := range s {
					out[i] = c.db.Forest.Name(w)
				}
				return out
			}
			pats := make([]pindex.Pattern, len(res.Patterns))
			for i, p := range res.Patterns {
				pats[i] = pindex.Pattern{Items: names(p.Items), Support: p.Support}
			}
			ix := pindex.Build(pats, c.db.Forest)
			if ix.Len() != len(want) {
				t.Errorf("index: %d patterns, the oracle %d", ix.Len(), len(want))
			}
			for _, p := range want {
				if id, ok := ix.Lookup(names(p.Items)); !ok || ix.Support(id) != p.Support {
					t.Errorf("index: %v not found at support %d", names(p.Items), p.Support)
				}
			}
		})
	}
	if spilled == 0 || reused == 0 || grown == 0 || remined == 0 {
		t.Fatalf("test vacuous: %d runs spilled; resumes reused %d, grew %d and re-mined %d partitions", spilled, reused, grown, remined)
	}
	t.Logf("%d runs spilled; resumes reused %d, grew %d and re-mined %d partitions", spilled, reused, grown, remined)
}
