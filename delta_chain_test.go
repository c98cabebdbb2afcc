package lash_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lash"
)

// TestDeltaMergeChain holds long resume chains to the cold mine and to the
// definition. A delta run's result is its state's list with the patterns it
// mined merged in, so an error there would compound along a chain. Each
// lineage — LASH, LASH(flat), MG-FSM, and LASH under RestrictClosed — takes
// 40 seeded appends on a corpus the brute-force oracle can mine, mixing three
// shapes: resampled old sentences (grown partitions), sentences over fresh
// items, and copies of an infrequent old item pushing it over σ (a newly
// frequent item, ranked after every old one and re-mined). One step resumes from the state two versions
// back, as a server whose newest result was evicted does. Every version's
// Patterns and FrequentItems must equal a cold mine's, and every tenth the
// oracle's; no state may hold items of a partition record it replaced, so a
// chain pins no earlier version's arenas.
func TestDeltaMergeChain(t *testing.T) {
	lineages := []lash.Options{
		{Algorithm: lash.AlgorithmLASH},
		{Algorithm: lash.AlgorithmLASHFlat},
		{Algorithm: lash.AlgorithmMGFSM},
		{Algorithm: lash.AlgorithmLASH, Restriction: lash.RestrictClosed},
	}
	for i, opt := range lineages {
		opt.MinSupport, opt.MaxGap, opt.MaxLength = 4, 1, 3
		t.Run(fmt.Sprintf("%s/r%d", opt.Algorithm, opt.Restriction), func(t *testing.T) {
			mergeChain(t, opt, int64(41+i))
		})
	}
}

func mergeChain(t *testing.T, opt lash.Options, seed int64) {
	const cycles = 40
	db, err := lash.GenerateTextDatabase(lash.TextConfig{Sentences: 20, Lemmas: 150, Hierarchy: "L", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	res, err := lash.Mine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	var older *lash.Result // the version before res
	var grown, reused, remined, pushed int64
	for c := 1; c <= cycles; c++ {
		b := lash.NewDatabaseBuilder()
		for range 1 + r.Intn(2) {
			b.AddSequence(db.Sequence(r.Intn(db.NumSequences()))...)
		}
		if r.Intn(3) == 0 {
			fresh := func(j int) string { return fmt.Sprintf("fresh_%d_%d", c, j) }
			for j := range 1 + r.Intn(int(opt.MinSupport)+1) {
				b.AddSequence(fresh(j%2), db.Sequence(r.Intn(db.NumSequences()))[0], fresh(j%2+1))
			}
		}
		push := ""
		if r.Intn(3) == 0 {
			if item, short := infrequentItem(db, res, opt.MinSupport, r); item != "" {
				push = item
				other := res.FrequentItems[r.Intn(len(res.FrequentItems))].Items[0]
				for range short {
					b.AddSequence(other, item, other)
				}
			}
		}
		frag, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if db, err = db.Append(frag); err != nil {
			t.Fatal(err)
		}
		from := res
		if c == cycles/2 {
			from = older
		}
		dOpt := opt
		dOpt.Resume = from.State
		delta, err := lash.Mine(db, dOpt)
		if err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		cold, err := lash.Mine(db, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(delta.Patterns, cold.Patterns) {
			t.Fatalf("cycle %d: %d patterns resumed, %d cold", c, len(delta.Patterns), len(cold.Patterns))
		}
		if !reflect.DeepEqual(delta.FrequentItems, cold.FrequentItems) {
			t.Fatalf("cycle %d: frequent items differ from the cold mine's", c)
		}
		if lash.PinsReplaced(from.State, delta.State) {
			t.Fatalf("cycle %d: the state holds items of a partition record it replaced", c)
		}
		if c%10 == 0 {
			pats, items := lash.Oracle(db, opt)
			if !reflect.DeepEqual(delta.Patterns, pats) {
				t.Fatalf("cycle %d: %d patterns resumed, the oracle %d", c, len(delta.Patterns), len(pats))
			}
			got := map[string]int64{}
			for _, p := range delta.FrequentItems {
				got[p.Items[0]] = p.Support
			}
			if !reflect.DeepEqual(got, items) {
				t.Fatalf("cycle %d: frequent items differ from the oracle's", c)
			}
		}
		if push != "" && slices.ContainsFunc(delta.FrequentItems, func(p lash.Pattern) bool { return p.Items[0] == push }) {
			pushed++
		}
		st := delta.Stats
		grown, reused = grown+st.DeltaPartitionsGrown, reused+st.DeltaPartitionsReused
		remined += st.DeltaPartitionsDirty - st.DeltaPartitionsGrown
		older, res = res, delta
	}
	if reused == 0 || remined == 0 || pushed == 0 || (opt.Algorithm != lash.AlgorithmMGFSM && grown == 0) {
		t.Fatalf("chain vacuous: reused %d, grew %d and re-mined %d partitions; %d items pushed over σ", reused, grown, remined, pushed)
	}
	t.Logf("%d patterns at the end; reused %d, grew %d, re-mined %d partitions; %d items pushed over σ",
		len(res.Patterns), reused, grown, remined, pushed)
}

// infrequentItem picks an item of db's sequences that res found infrequent,
// and how many more sequences it needs to reach sigma; "" if every item is
// frequent.
func infrequentItem(db *lash.Database, res *lash.Result, sigma int64, r *rand.Rand) (string, int) {
	frequent := map[string]bool{}
	for _, p := range res.FrequentItems {
		frequent[p.Items[0]] = true
	}
	count := map[string]int{}
	var rare []string
	for i := range db.NumSequences() {
		seen := map[string]bool{}
		for _, w := range db.Sequence(i) {
			if !frequent[w] && !seen[w] {
				if count[w] == 0 {
					rare = append(rare, w)
				}
				seen[w] = true
				count[w]++
			}
		}
	}
	if len(rare) == 0 {
		return "", 0
	}
	w := rare[r.Intn(len(rare))]
	return w, int(sigma) - count[w]
}
