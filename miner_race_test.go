package lash_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"lash"
)

// A snapshot is safe to mine from many goroutines at once: lashd serves
// concurrent jobs against one database, and the first calls race to count
// the lazily kept frequencies. Hammer Mine from many goroutines across
// algorithms and parameters; run under -race this catches any unguarded
// access to the caches, and the checksums catch torn results.
func TestMinerConcurrentMine(t *testing.T) {
	opts := []lash.Options{
		{MinSupport: 2, MaxGap: 1, MaxLength: 3},
		{MinSupport: 3, MaxGap: 1, MaxLength: 3},
		{MinSupport: 2, MaxGap: 0, MaxLength: 3},
		{MinSupport: 2, MaxGap: 1, MaxLength: 3, Algorithm: lash.AlgorithmMGFSM},
		{MinSupport: 2, MaxGap: 1, MaxLength: 3, Algorithm: lash.AlgorithmLASHFlat},
		{MinSupport: 2, MaxGap: 1, MaxLength: 3, LocalMiner: lash.MinerBFS},
	}
	want := make([]uint64, len(opts))
	for i, opt := range opts {
		res, err := lash.Mine(paperDB(t), opt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = patternChecksum(res.Patterns)
	}

	db := paperDB(t) // the shared snapshot starts cold
	var jobs atomic.Int64
	const goroutines = 8
	const iters = 5
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(opts)
				res, err := lash.Mine(db, countFListJobs(opts[i], &jobs))
				if err != nil {
					errc <- err
					return
				}
				if got := patternChecksum(res.Patterns); got != want[i] {
					t.Errorf("goroutine %d: result for %+v diverges under concurrency", g, opts[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// The f-list job must have run exactly once per hierarchy mode.
	if n := jobs.Load(); n != 2 {
		t.Fatalf("f-list job ran %d times under concurrency, want 2", n)
	}
}
