// BenchmarkDeltaMine times a delta re-mine of a 1% append against the cold
// mine of the same version. The paper's tables and figures are not
// benchmarked here: lash-exp (internal/experiments) regenerates them, each
// table's printed note: lines state the paper's expectation, and
// TestPaperClaims asserts its qualitative results.
//
// Run: go test -run '^$' -bench DeltaMine -benchmem .
package lash_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lash"
)

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
