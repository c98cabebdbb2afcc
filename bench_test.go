// Benchmarks regenerating every table and figure of the LASH paper's
// evaluation at the tiny scale (see internal/experiments for the full
// harness and EXPERIMENTS.md for paper-vs-measured discussion), plus
// micro-benchmarks of the core building blocks.
//
// Run: go test -bench=. -benchmem
package lash_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"lash"

	"lash/internal/baseline"
	"lash/internal/core"
	"lash/internal/datagen"
	"lash/internal/experiments"
	"lash/internal/flist"
	"lash/internal/gsm"
	"lash/internal/mapreduce"
	"lash/internal/miner"
	"lash/internal/obs"
	"lash/internal/rewrite"
	"lash/internal/seqenc"
	"lash/internal/stats"
)

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
	nytP      *gsm.Database
	nytLP     *gsm.Database
	nytCLP    *gsm.Database
	amznH8    *gsm.Database
)

// benchCorpora builds the shared tiny-scale corpora once (TestAllocBudget
// uses them too).
func benchCorpora() {
	benchOnce.Do(func() {
		benchCtx = experiments.NewContext(experiments.Tiny)
		var err error
		if nytP, err = benchCtx.TextDB(datagen.HierarchyP); err != nil {
			panic(err)
		}
		if nytLP, err = benchCtx.TextDB(datagen.HierarchyLP); err != nil {
			panic(err)
		}
		if nytCLP, err = benchCtx.TextDB(datagen.HierarchyCLP); err != nil {
			panic(err)
		}
		if amznH8, err = benchCtx.MarketDB(8); err != nil {
			panic(err)
		}
	})
}

func benchSetup(b *testing.B) {
	b.Helper()
	benchCorpora()
	b.ResetTimer()
}

func benchMR() mapreduce.Config {
	return mapreduce.Config{MapTasks: 16, ReduceTasks: 16}
}

func mineOrFatal(b *testing.B, db *gsm.Database, opt core.Options) *core.Result {
	b.Helper()
	b.ReportAllocs()
	res, err := core.Mine(context.Background(), db, opt)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// --- Tables 1 & 2 ----------------------------------------------------------

func BenchmarkTable1Characteristics(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		_ = datagen.Characteristics(nytCLP)
		_ = datagen.Characteristics(amznH8)
	}
}

func BenchmarkTable2Hierarchies(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		_ = nytCLP.Forest.ComputeStats()
		_ = amznH8.Forest.ComputeStats()
	}
}

// --- Fig. 4(a,b): distributed algorithm comparison -------------------------

func fig4Params() gsm.Params {
	return gsm.Params{Sigma: experiments.Tiny.SigmaLo, Gamma: 0, Lambda: 3}
}

func BenchmarkFig4aNaive(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.MineNaive(context.Background(), nytP, baseline.Options{Params: fig4Params(), MR: benchMR()}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4aSemiNaive(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.MineSemiNaive(context.Background(), nytP, baseline.Options{Params: fig4Params(), MR: benchMR()}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBaselineCountersGolden pins what the two baselines shuffle on the
// BenchmarkFig4a shape — Fig. 4(b)'s quantity, and the one thing a change to
// their shared counting job must not move. Recorded when the two jobs became
// one.
func TestBaselineCountersGolden(t *testing.T) {
	benchCorpora()
	for _, c := range []struct {
		name           string
		mine           func(context.Context, *gsm.Database, baseline.Options) (*core.Result, error)
		records, bytes int64
	}{
		{"naive", baseline.MineNaive, 261126, 1155998},
		{"semi-naive", baseline.MineSemiNaive, 184575, 779850},
	} {
		res, err := c.mine(context.Background(), nytP, baseline.Options{Params: fig4Params(), MR: benchMR()})
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Jobs.Mine.Counters; n.MapOutputRecords != c.records || n.MapOutputBytes != c.bytes {
			t.Errorf("%s: shuffled %d records / %d bytes, want %d / %d",
				c.name, n.MapOutputRecords, n.MapOutputBytes, c.records, c.bytes)
		}
	}
}

func BenchmarkFig4aLASH(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		mineOrFatal(b, nytP, core.Options{Params: fig4Params(), MR: benchMR()})
	}
}

// BenchmarkObsOverhead is BenchmarkFig4aLASH with full observability
// attached — span tracing plus registered pipeline metrics — sharing one
// tracer and registry across iterations like a long-lived server would.
// The acceptance bar against BenchmarkFig4aLASH on the same host is ns/op
// within 2% and no extra allocs/op: the hot-path handles are 1–2 atomics
// and the span ring is preallocated, so instrumentation must be free at
// mining granularity.
func BenchmarkObsOverhead(b *testing.B) {
	benchSetup(b)
	o := &obs.Run{
		Tracer:  obs.NewTracer(0),
		Metrics: obs.NewPipelineMetrics(obs.NewRegistry()),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mr := benchMR()
		mr.Obs = o
		mineOrFatal(b, nytP, core.Options{Params: fig4Params(), MR: mr})
	}
}

func BenchmarkFig4bMapOutputBytes(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	var lashBytes, naiveBytes int64
	for i := 0; i < b.N; i++ {
		res := mineOrFatal(b, nytP, core.Options{Params: fig4Params(), MR: benchMR()})
		lashBytes = res.Jobs.Mine.MapOutputBytes
		nv, err := baseline.MineNaive(context.Background(), nytP, baseline.Options{Params: fig4Params(), MR: benchMR()})
		if err != nil {
			b.Fatal(err)
		}
		naiveBytes = nv.Jobs.Mine.MapOutputBytes
	}
	b.ReportMetric(float64(lashBytes), "LASH-bytes")
	b.ReportMetric(float64(naiveBytes), "naive-bytes")
}

// --- Fig. 4(c,d): local miners ---------------------------------------------

func fig4cParams() gsm.Params {
	return gsm.Params{Sigma: experiments.Tiny.SigmaLo, Gamma: 0, Lambda: 5}
}

func benchMinerKind(b *testing.B, kind miner.Kind) {
	benchSetup(b)
	var explored, output int64
	for i := 0; i < b.N; i++ {
		res := mineOrFatal(b, nytLP, core.Options{Params: fig4cParams(), Miner: kind, MR: benchMR()})
		explored, output = res.Miner.Explored, res.Miner.Output
	}
	if output > 0 {
		b.ReportMetric(float64(explored)/float64(output), "cands/output")
	}
}

func BenchmarkFig4cBFS(b *testing.B)      { benchMinerKind(b, miner.KindBFS) }
func BenchmarkFig4cDFS(b *testing.B)      { benchMinerKind(b, miner.KindDFS) }
func BenchmarkFig4cPSM(b *testing.B)      { benchMinerKind(b, miner.KindPSMNoIndex) }
func BenchmarkFig4dPSMIndex(b *testing.B) { benchMinerKind(b, miner.KindPSM) }

// --- Fig. 4(e): no hierarchies ----------------------------------------------

func BenchmarkFig4eMGFSM(b *testing.B) {
	benchSetup(b)
	p := gsm.Params{Sigma: experiments.Tiny.SigmaLo, Gamma: 1, Lambda: 5}
	for i := 0; i < b.N; i++ {
		mineOrFatal(b, nytCLP, core.Options{Params: p, Flat: true, Miner: miner.KindBFS, MR: benchMR()})
	}
}

func BenchmarkFig4eLASHFlat(b *testing.B) {
	benchSetup(b)
	p := gsm.Params{Sigma: experiments.Tiny.SigmaLo, Gamma: 1, Lambda: 5}
	for i := 0; i < b.N; i++ {
		mineOrFatal(b, nytCLP, core.Options{Params: p, Flat: true, Miner: miner.KindPSM, MR: benchMR()})
	}
}

// --- Fig. 5: parameter effects ----------------------------------------------

func BenchmarkFig5aSupport(b *testing.B) {
	benchSetup(b)
	for _, sigma := range []int64{experiments.Tiny.SigmaXLo, experiments.Tiny.SigmaLo, experiments.Tiny.SigmaHi} {
		b.Run(fmtI64(sigma), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mineOrFatal(b, amznH8, core.Options{Params: gsm.Params{Sigma: sigma, Gamma: 1, Lambda: 5}, MR: benchMR()})
			}
		})
	}
}

func BenchmarkFig5bGap(b *testing.B) {
	benchSetup(b)
	for gamma := 0; gamma <= 3; gamma++ {
		b.Run(fmtI64(int64(gamma)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mineOrFatal(b, amznH8, core.Options{Params: gsm.Params{Sigma: experiments.Tiny.SigmaLo, Gamma: gamma, Lambda: 5}, MR: benchMR()})
			}
		})
	}
}

func BenchmarkFig5cLength(b *testing.B) {
	benchSetup(b)
	for lambda := 3; lambda <= 7; lambda += 2 {
		b.Run(fmtI64(int64(lambda)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mineOrFatal(b, amznH8, core.Options{Params: gsm.Params{Sigma: experiments.Tiny.SigmaLo, Gamma: 1, Lambda: lambda}, MR: benchMR()})
			}
		})
	}
}

func BenchmarkFig5dOutput(b *testing.B) {
	benchSetup(b)
	var out int
	for i := 0; i < b.N; i++ {
		res := mineOrFatal(b, amznH8, core.Options{Params: gsm.Params{Sigma: experiments.Tiny.SigmaLo, Gamma: 1, Lambda: 5}, MR: benchMR()})
		out = len(res.Patterns)
	}
	b.ReportMetric(float64(out), "patterns")
}

func BenchmarkFig5eHierarchyDepth(b *testing.B) {
	benchSetup(b)
	for _, lv := range datagen.MarketLevels {
		db, err := benchCtx.MarketDB(lv)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmtI64(int64(lv)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mineOrFatal(b, db, core.Options{Params: gsm.Params{Sigma: experiments.Tiny.SigmaLo, Gamma: 2, Lambda: 5}, MR: benchMR()})
			}
		})
	}
}

func BenchmarkFig5fHierarchyType(b *testing.B) {
	benchSetup(b)
	for _, v := range datagen.TextHierarchies {
		db, err := benchCtx.TextDB(v)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mineOrFatal(b, db, core.Options{Params: gsm.Params{Sigma: experiments.Tiny.SigmaLo, Gamma: 0, Lambda: 5}, MR: benchMR()})
			}
		})
	}
}

// --- Fig. 6: scalability ------------------------------------------------------

func BenchmarkFig6aDataScale(b *testing.B) {
	benchSetup(b)
	for _, frac := range []float64{0.25, 0.5, 1.0} {
		db := datagen.Sample(nytCLP, frac)
		b.Run(fmtI64(int64(frac*100)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mineOrFatal(b, db, core.Options{Params: gsm.Params{Sigma: experiments.Tiny.SigmaLo, Gamma: 0, Lambda: 5}, MR: benchMR()})
			}
		})
	}
}

func BenchmarkFig6cWeakScaling(b *testing.B) {
	benchSetup(b)
	for _, step := range []struct {
		m    int
		frac float64
	}{{2, 0.25}, {4, 0.5}, {8, 1.0}} {
		db := datagen.Sample(nytCLP, step.frac)
		b.Run(fmtI64(int64(step.m)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mineOrFatal(b, db, core.Options{Params: gsm.Params{Sigma: experiments.Tiny.SigmaLo, Gamma: 0, Lambda: 5}, MR: benchMR()})
			}
		})
	}
}

// --- Table 3 -----------------------------------------------------------------

func BenchmarkTable3OutputStats(b *testing.B) {
	benchSetup(b)
	p := gsm.Params{Sigma: experiments.Tiny.SigmaLo, Gamma: 0, Lambda: 5}
	mined := mineOrFatal(b, nytLP, core.Options{Params: p, MR: benchMR()})
	flat := mineOrFatal(b, nytLP, core.Options{Params: p, Flat: true, MR: benchMR()})
	b.ResetTimer()
	var o stats.Output
	for i := 0; i < b.N; i++ {
		o = stats.Compute(nytLP.Forest, mined.Patterns, flat.Patterns)
	}
	b.ReportMetric(o.NonTrivialPct(), "nontrivial-%")
}

// --- ablation: rewrite modes (§4 discussion; DESIGN.md) -----------------------

func benchRewriteMode(b *testing.B, mode rewrite.Mode) {
	benchSetup(b)
	p := gsm.Params{Sigma: experiments.Tiny.SigmaLo, Gamma: 1, Lambda: 5}
	var bytes int64
	for i := 0; i < b.N; i++ {
		res := mineOrFatal(b, nytLP, core.Options{Params: p, Rewrites: mode, MR: benchMR()})
		bytes = res.Jobs.Mine.MapOutputBytes
	}
	b.ReportMetric(float64(bytes), "shuffle-bytes")
}

func BenchmarkAblationRewritesNone(b *testing.B) { benchRewriteMode(b, rewrite.ModeNone) }
func BenchmarkAblationRewritesGeneralizeOnly(b *testing.B) {
	benchRewriteMode(b, rewrite.ModeGeneralizeOnly)
}
func BenchmarkAblationRewritesFull(b *testing.B) { benchRewriteMode(b, rewrite.ModeFull) }

// --- micro-benchmarks ----------------------------------------------------------

func BenchmarkMicroRewrite(b *testing.B) {
	benchSetup(b)
	fl, err := flist.BuildFromDB(nytCLP, experiments.Tiny.SigmaLo)
	if err != nil {
		b.Fatal(err)
	}
	rw := rewrite.NewRewriter(fl, 1, 5)
	var buf []flist.Rank
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rw.Load(nytCLP.Seqs[i%len(nytCLP.Seqs)])
		for _, ok := rw.Next(); ok; _, ok = rw.Next() {
			buf = rw.Rewritten(buf[:0])
		}
	}
}

func BenchmarkMicroFList(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		_ = flist.ComputeFrequencies(nytCLP)
	}
}

func BenchmarkMicroEncoding(b *testing.B) {
	benchSetup(b)
	fl, err := flist.BuildFromDB(nytCLP, experiments.Tiny.SigmaLo)
	if err != nil {
		b.Fatal(err)
	}
	seqs := make([][]flist.Rank, 0, 256)
	for _, t := range nytCLP.Seqs[:256] {
		var rs []flist.Rank
		for _, w := range t {
			rs = append(rs, fl.FrequentRank(w))
		}
		seqs = append(seqs, rs)
	}
	b.ResetTimer()
	var buf []byte
	var dec []flist.Rank
	for i := 0; i < b.N; i++ {
		s := seqs[i%len(seqs)]
		buf = seqenc.AppendSeq(buf[:0], s)
		dec, _ = seqenc.DecodeSeq(dec[:0], buf)
	}
	_ = dec
}

func BenchmarkMicroSubseqTest(b *testing.B) {
	benchSetup(b)
	pat := gsm.Sequence{nytCLP.Seqs[0][0], nytCLP.Seqs[0][1]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := nytCLP.Seqs[i%len(nytCLP.Seqs)]
		gsm.IsGenSubseq(nytCLP.Forest, pat, t, 1)
	}
}

func fmtI64(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// --- Spillable shuffle (PR 5) ----------------------------------------------
//
// The external-memory pair: the same mining run with the shuffle held in
// memory and with a MemoryBudget forced to a quarter of the shuffle's table
// volume, so the corpus is ≥ 4× the configured budget (reported as the
// shuffle/budget metric). The acceptance bar is Budgeted within 2× of
// InMemory wall time.

var (
	spillOnce        sync.Once
	spillBudgetBytes int64 // shuffle bytes / 4, measured once
)

func spillParams() gsm.Params {
	return gsm.Params{Sigma: experiments.Tiny.SigmaLo, Gamma: 1, Lambda: 5}
}

// spillBudget is a quarter of the spill benchmark's shuffle volume.
func spillBudget() int64 {
	benchCorpora()
	spillOnce.Do(func() {
		res, err := core.Mine(context.Background(), nytCLP, core.Options{Params: spillParams(), MR: benchMR()})
		if err != nil {
			panic(err)
		}
		spillBudgetBytes = res.Jobs.Mine.MapOutputBytes / 4
		if spillBudgetBytes < 1 {
			spillBudgetBytes = 1
		}
	})
	return spillBudgetBytes
}

func spillSetup(b *testing.B) int64 {
	budget := spillBudget()
	b.ResetTimer()
	return budget
}

func BenchmarkSpillInMemory(b *testing.B) {
	spillSetup(b)
	for i := 0; i < b.N; i++ {
		mineOrFatal(b, nytCLP, core.Options{Params: spillParams(), MR: benchMR()})
	}
}

func BenchmarkSpillBudgeted(b *testing.B) {
	budget := spillSetup(b)
	var runs, spilled, shuffled int64
	for i := 0; i < b.N; i++ {
		mr := benchMR()
		mr.MemoryBudget = budget
		res := mineOrFatal(b, nytCLP, core.Options{Params: spillParams(), MR: mr})
		runs, spilled, shuffled = res.Jobs.Mine.SpillRuns, res.Jobs.Mine.SpillBytes, res.Jobs.Mine.MapOutputBytes
	}
	if runs == 0 {
		b.Fatal("budgeted benchmark did not spill")
	}
	b.ReportMetric(float64(runs), "spill-runs")
	b.ReportMetric(float64(spilled), "spill-bytes")
	b.ReportMetric(float64(shuffled)/float64(budget), "shuffle/budget")
}

// --- Live corpora: delta mining --------------------------------------------

// deltaBench holds the one-time setup for BenchmarkDeltaMine: a
// 100 000-sequence corpus, a mined v1 state, and a 1% append (1 000
// sequences of a fresh ten-word topic, so the new vocabulary is frequent
// and forces some real delta mining while every old partition stays
// reusable). The cold mine of v2 is timed once here and reported by the
// benchmark as the reference the delta run is gated against.
var deltaBench struct {
	once sync.Once
	v2   *lash.Database
	opt  lash.Options
	cold time.Duration
	err  error
}

func deltaBenchSetup() {
	const (
		sentences = 100_000
		appendN   = sentences / 100
		topics    = 10
	)
	base, err := lash.GenerateTextDatabase(lash.TextConfig{Sentences: sentences, Lemmas: 2000, Seed: 11})
	if err != nil {
		deltaBench.err = err
		return
	}
	opt := lash.Options{MinSupport: 200, MaxGap: 1, MaxLength: 4}
	v1, err := lash.Mine(base, opt)
	if err != nil {
		deltaBench.err = err
		return
	}
	fb := lash.NewDatabaseBuilder()
	for i := 0; i < appendN; i++ {
		fb.AddSequence(
			fmt.Sprintf("topic_%d", i%topics),
			fmt.Sprintf("topic_%d", (i+1)%topics),
			fmt.Sprintf("topic_%d", (i+3)%topics),
			fmt.Sprintf("topic_%d", (i+7)%topics),
		)
	}
	frag, err := fb.Build()
	if err != nil {
		deltaBench.err = err
		return
	}
	v2, err := base.Append(frag)
	if err != nil {
		deltaBench.err = err
		return
	}
	coldOpt := lash.Options{MinSupport: 200, MaxGap: 1, MaxLength: 4}
	start := time.Now()
	if _, err := lash.Mine(v2, coldOpt); err != nil {
		deltaBench.err = err
		return
	}
	deltaBench.cold = time.Since(start)
	coldOpt.Resume = v1.State
	deltaBench.v2, deltaBench.opt = v2, coldOpt
}

// BenchmarkDeltaMine gates the PR10 acceptance bar in the benchmark
// itself: re-mining a 1% append through a captured MineState must reuse
// partitions and finish within 50% of the cold mine of the same version
// (measured ~2-3% in practice; the generous budget absorbs runner noise).
func BenchmarkDeltaMine(b *testing.B) {
	deltaBench.once.Do(deltaBenchSetup)
	if deltaBench.err != nil {
		b.Fatal(deltaBench.err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lash.Mine(deltaBench.v2, deltaBench.opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.DeltaPartitionsReused == 0 {
			b.Fatal("delta mine reused no partitions")
		}
	}
	b.StopTimer()
	perOp := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(float64(deltaBench.cold.Nanoseconds()), "cold-ns/op")
	pct := float64(perOp) / float64(deltaBench.cold) * 100
	b.ReportMetric(pct, "delta-vs-cold-%")
	if pct > 50 {
		b.Fatalf("delta mine took %.1f%% of the cold mine (%v vs %v); budget is 50%%",
			pct, perOp, deltaBench.cold)
	}
}
