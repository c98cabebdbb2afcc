package core_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"lash/internal/core"
	"lash/internal/datagen"
	"lash/internal/flist"
	"lash/internal/gsm"
	"lash/internal/mapreduce"
	"lash/internal/miner"
	"lash/internal/rewrite"
	"lash/internal/seqenc"
)

// refMineJob is the differential-testing reference for the partition+mine
// job: the same rewrite → encode → aggregate → sort keys → mine logic as a
// sequential group-by over plain Go maps, with no substrate underneath. The
// streaming aggregated-shuffle path must reproduce its output exactly.
func refMineJob(t *testing.T, db *gsm.Database, fl *flist.FList, kind miner.Kind, p gsm.Params) []gsm.Pattern {
	t.Helper()
	rw := rewrite.NewRewriter(fl, p.Gamma, p.Lambda)
	parts := make(map[flist.Rank]map[string]int64)
	var buf []flist.Rank
	for _, seq := range db.Seqs {
		for _, pivot := range fl.PivotRanks(nil, seq) {
			buf = rw.Rewrite(buf[:0], seq, pivot)
			if len(buf) == 0 {
				continue
			}
			if parts[pivot] == nil {
				parts[pivot] = make(map[string]int64)
			}
			parts[pivot][string(seqenc.AppendSeq(nil, buf))]++
		}
	}

	localCfg := miner.Config{Sigma: p.Sigma, Gamma: p.Gamma, Lambda: p.Lambda, PivotOnly: true}
	parent := fl.ParentTable()
	var patterns []gsm.Pattern
	for pivot, agg := range parts {
		keys := make([]string, 0, len(agg))
		for k := range agg {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		part := &miner.Partition{Pivot: pivot, Parent: parent}
		for _, k := range keys {
			items, err := seqenc.DecodeSeq(nil, []byte(k))
			if err != nil {
				t.Fatalf("reference decode: %v", err)
			}
			part.Seqs = append(part.Seqs, miner.WSeq{Items: items, Weight: agg[k]})
		}
		miner.New(kind).Mine(part, localCfg, nil, func(pat []flist.Rank, sup int64) {
			items, err := fl.TranslateFromRanks(nil, pat)
			if err != nil {
				t.Fatalf("reference translate: %v", err)
			}
			patterns = append(patterns, gsm.Pattern{Items: items, Support: sup})
		})
	}
	gsm.SortPatterns(patterns)
	return patterns
}

// The streaming aggregated-shuffle pipeline must return byte-identical
// patterns and supports to the sequential reference on randomized databases.
func TestStreamingMatchesReferenceOnRandomDBs(t *testing.T) {
	type dbCase struct {
		name string
		db   *gsm.Database
	}
	var cases []dbCase
	for seed := int64(1); seed <= 3; seed++ {
		corpus := datagen.GenerateText(datagen.TextConfig{Sentences: 250, Lemmas: 150, Seed: seed})
		for _, variant := range []datagen.TextHierarchy{datagen.HierarchyLP, datagen.HierarchyCLP} {
			db, err := corpus.Build(variant)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, dbCase{fmt.Sprintf("text/seed%d/%s", seed, variant), db})
		}
	}
	market := datagen.GenerateMarket(datagen.MarketConfig{Users: 250, Seed: 7})
	mdb, err := market.Build(4)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, dbCase{"market/h4", mdb})

	params := gsm.Params{Sigma: 8, Gamma: 1, Lambda: 4}
	mr := mapreduce.Config{Workers: 4, MapTasks: 7, ReduceTasks: 5}
	sawPatterns := false
	for _, c := range cases {
		for _, kind := range []miner.Kind{miner.KindPSM, miner.KindBFS} {
			t.Run(fmt.Sprintf("%s/%s", c.name, kind), func(t *testing.T) {
				res, err := core.Mine(context.Background(), c.db, core.Options{Params: params, Miner: kind, MR: mr})
				if err != nil {
					t.Fatal(err)
				}
				want := refMineJob(t, c.db, res.FList, kind, params)
				if len(res.Patterns) > 0 {
					sawPatterns = true
				}
				if !gsm.EqualPatterns(res.Patterns, want) {
					t.Fatalf("streaming output diverges from reference:\nstreaming: %d patterns %v\nreference: %d patterns %v",
						len(res.Patterns), res.Patterns, len(want), want)
				}
			})
		}
	}
	if !sawPatterns {
		t.Fatal("differential test vacuous: no case produced patterns")
	}
}
