package lash_test

import (
	"context"
	"sync"
	"testing"

	"lash/internal/baseline"
	"lash/internal/core"
	"lash/internal/datagen"
	"lash/internal/experiments"
	"lash/internal/gsm"
	"lash/internal/mapreduce"
)

// The tiny-scale corpora and settings that TestBaselineCountersGolden and
// TestAllocBudget mine. The paper's figures themselves are reproduced by
// internal/experiments (lash-exp) and checked there by TestPaperClaims.
var (
	corporaOnce sync.Once
	nytP        *gsm.Database
	nytCLP      *gsm.Database
)

// benchCorpora builds the shared tiny-scale corpora once.
func benchCorpora() {
	corporaOnce.Do(func() {
		c := experiments.NewContext(experiments.Tiny)
		var err error
		if nytP, err = c.TextDB(datagen.HierarchyP); err != nil {
			panic(err)
		}
		if nytCLP, err = c.TextDB(datagen.HierarchyCLP); err != nil {
			panic(err)
		}
	})
}

func benchMR() mapreduce.Config {
	return mapreduce.Config{MapTasks: 16, ReduceTasks: 16}
}

// fig4Params is the Fig. 4(a) setting mined on nytP.
func fig4Params() gsm.Params {
	return gsm.Params{Sigma: experiments.Tiny.SigmaLo, Gamma: 0, Lambda: 3}
}

// spillParams is the setting mined on nytCLP under spillBudget.
func spillParams() gsm.Params {
	return gsm.Params{Sigma: experiments.Tiny.SigmaLo, Gamma: 1, Lambda: 5}
}

var (
	spillOnce        sync.Once
	spillBudgetBytes int64 // shuffle bytes / 4, measured once
)

// spillBudget is a quarter of the shuffle volume of the spillParams mine of
// nytCLP, so a mine under it spills.
func spillBudget() int64 {
	benchCorpora()
	spillOnce.Do(func() {
		res, err := core.Mine(context.Background(), nytCLP, core.Options{Params: spillParams(), MR: benchMR()})
		if err != nil {
			panic(err)
		}
		spillBudgetBytes = max(res.Jobs.Mine.MapOutputBytes/4, 1)
	})
	return spillBudgetBytes
}

// TestBaselineCountersGolden pins what the two baselines shuffle on the
// Fig. 4(a) setting — Fig. 4(b)'s quantity, and the one thing a change to
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
