package lash_test

import (
	"fmt"
	"slices"
	"strings"

	"lash"
)

// The running example of the LASH paper (Fig. 1): six sequences over a
// two-level product hierarchy, mined with σ=2, γ=1, λ=3.
func ExampleMine() {
	b := lash.NewDatabaseBuilder()
	for _, edge := range [][2]string{
		{"b1", "B"}, {"b2", "B"}, {"b3", "B"},
		{"b11", "b1"}, {"b12", "b1"}, {"b13", "b1"},
		{"d1", "D"}, {"d2", "D"},
	} {
		b.AddParent(edge[0], edge[1])
	}
	for _, seq := range []string{
		"a b1 a b1", "a b3 c c b2", "a c", "b11 a e a", "a b12 d1 c", "b13 f d2",
	} {
		b.AddSequence(strings.Fields(seq)...)
	}
	db, err := b.Build()
	if err != nil {
		panic(err)
	}
	res, err := lash.Mine(db, lash.Options{MinSupport: 2, MaxGap: 1, MaxLength: 3})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res.Patterns), "patterns")
	for _, p := range res.Patterns {
		if len(p.Items) == 3 {
			fmt.Println(strings.Join(p.Items, " "), p.Support)
		}
	}
	// Output:
	// 10 patterns
	// a B c 2
}

// Maximal patterns only: the most specific frequent behaviour, with all
// redundant sub- and super-level patterns removed (§6.7).
func ExampleMine_maximal() {
	b := lash.NewDatabaseBuilder()
	b.AddParent("eos70d", "camera")
	b.AddParent("d750", "camera")
	b.AddSequence("eos70d", "bag")
	b.AddSequence("d750", "bag")
	b.AddSequence("eos70d", "bag")
	db, err := b.Build()
	if err != nil {
		panic(err)
	}
	res, err := lash.Mine(db, lash.Options{
		MinSupport:  3,
		MaxGap:      0,
		MaxLength:   2,
		Restriction: lash.RestrictMaximal,
	})
	if err != nil {
		panic(err)
	}
	for _, p := range res.Patterns {
		fmt.Println(strings.Join(p.Items, " "), p.Support)
	}
	// Output:
	// camera bag 3
}

// SessionBuilder turns timestamped events into per-user sequences (§6.1).
func ExampleSessionBuilder() {
	s := lash.NewSessionBuilder()
	s.Add("alice", 300, "flash")
	s.Add("alice", 100, "camera")
	s.Add("alice", 200, "photo-book")
	b := lash.NewDatabaseBuilder()
	s.AppendTo(b)
	db, err := b.Build()
	if err != nil {
		panic(err)
	}
	fmt.Println(strings.Join(db.Sequence(0), " → "))
	// Output:
	// camera → photo-book → flash
}

// A threshold sweep over one snapshot: the first run counts the item
// frequencies, the snapshot keeps them, and the later runs skip the
// preprocessing job (§3.4).
func ExampleMine_sweep() {
	db, err := lash.GenerateMarketDatabase(lash.MarketConfig{Users: 500, Products: 300, Seed: 1})
	if err != nil {
		panic(err)
	}
	flistJobs := 0
	for _, sigma := range []int64{20, 10, 5} {
		res, err := lash.Mine(db, lash.Options{
			MinSupport: sigma, MaxGap: 1, MaxLength: 3,
			Progress: func(e lash.ProgressEvent) {
				if e.Job == "flist" && e.Phase == "done" {
					flistJobs++
				}
			},
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("σ=%d: %d patterns\n", sigma, len(res.Patterns))
	}
	fmt.Println("f-list jobs run:", flistJobs)
	// Output:
	// σ=20: 185 patterns
	// σ=10: 979 patterns
	// σ=5: 3681 patterns
	// f-list jobs run: 1
}

// Hierarchy-aware against flat mining of the same purchase sessions (the
// paper's AMZN use case, §6.1): most of what LASH finds are behaviours over
// categories ("some camera, then some photography book"), which flat
// mining (MG-FSM) cannot see.
func ExampleMine_flat() {
	db, err := lash.GenerateMarketDatabase(lash.MarketConfig{Users: 2000, Products: 1000, HierarchyLevels: 4, Seed: 7})
	if err != nil {
		panic(err)
	}
	opt := lash.Options{MinSupport: 20, MaxGap: 1, MaxLength: 3}
	res, err := lash.Mine(db, opt)
	if err != nil {
		panic(err)
	}
	opt.Algorithm = lash.AlgorithmMGFSM
	flat, err := lash.Mine(db, opt)
	if err != nil {
		panic(err)
	}
	// Products are "prodN"; a top-level category is "cN", and its
	// subcategories "cN/M", "cN/M/K".
	categories := 0
	var top lash.Pattern
	for _, p := range res.Patterns {
		if slices.ContainsFunc(p.Items, func(it string) bool { return strings.HasPrefix(it, "prod") }) {
			continue
		}
		categories++
		topLevel := !slices.ContainsFunc(p.Items, func(it string) bool { return strings.Contains(it, "/") })
		if topLevel && len(p.Items) == 3 && p.Items[0] != p.Items[1] && p.Items[1] != p.Items[2] && p.Support > top.Support {
			top = p
		}
	}
	fmt.Println("LASH:", len(res.Patterns), "patterns, MG-FSM:", len(flat.Patterns))
	fmt.Println(categories, "name categories only; the most frequent over three top-level ones:")
	fmt.Println(strings.Join(top.Items, " "), top.Support)
	// Output:
	// LASH: 2068 patterns, MG-FSM: 61
	// 1142 name categories only; the most frequent over three top-level ones:
	// c30 c22 c30 41
}

// Generalized n-grams (the paper's NYT use case, §6.2): with γ=0 a pattern
// is contiguous, and each of its items may be a word, its lemma or its
// part-of-speech tag, so templates are mined that no sentence holds
// literally. Words and lemmas carry digits ("w12s", "w12"); tags do not.
func ExampleMine_ngram() {
	db, err := lash.GenerateTextDatabase(lash.TextConfig{Sentences: 2000, Lemmas: 1000, Seed: 2015})
	if err != nil {
		panic(err)
	}
	res, err := lash.Mine(db, lash.Options{MinSupport: 20, MaxGap: 0, MaxLength: 3})
	if err != nil {
		panic(err)
	}
	isTag := func(it string) bool { return !strings.ContainsAny(it, "0123456789") }
	templates := 0
	var top lash.Pattern
	for _, p := range res.Patterns {
		tags := 0
		for _, it := range p.Items {
			if isTag(it) {
				tags++
			}
		}
		if tags > 0 && tags < len(p.Items) {
			templates++
			if len(p.Items) == 3 && p.Support > top.Support {
				top = p
			}
		}
	}
	fmt.Println(len(res.Patterns), "n-grams,", templates, "mix words with tags, the most frequent of length 3:")
	fmt.Println(strings.Join(top.Items, " "), top.Support)
	// Output:
	// 2865 n-grams, 1811 mix words with tags, the most frequent of length 3:
	// NN NN w0 329
}
