package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"lash"
	"lash/internal/datagen"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
	"lash/internal/seqdb"
	"lash/server"
)

// spec fixes one workload's inputs: the generated corpus and the mining
// options every mine of the workload uses. Sizes are constants, identical on
// every commit; only --seed varies the drawn corpus.
type spec struct {
	name      string
	why       string
	shape     shape
	sentences int
	options   server.OptionsSpec
	// budgets lists the memory_budget of each mine that makes up one cold
	// op: {0} is one in-memory mine, {0, b} adds a second mine whose shuffle
	// must spill.
	budgets []int64
}

// pageSupport is the min_support of the "page" query kind: two and a half
// times the mining support, which keeps roughly a tenth of the patterns.
func (s spec) pageSupport() int64 { return s.options.MinSupport * 5 / 2 }

// shape is what a workload's measured phase does.
type shape int

const (
	shapeCold  shape = iota // upload under a fresh name, mine
	shapeLive               // append, delta re-mine, fetch the top
	shapeServe              // query a mined result
)

// lemmas is the generator's lemma vocabulary, the same for every workload.
const lemmas = 2000

var (
	textOptions  = server.OptionsSpec{MinSupport: 32, MaxGap: 1, MaxLength: 4}
	ngramOptions = server.OptionsSpec{MinSupport: 300, MaxGap: 0, MaxLength: 3}
)

// specs are the four workloads. The three text workloads share one corpus
// shape on purpose: cold-text says what a cold mine of it costs, and the
// other two measure what the service adds on top of that mine.
var specs = []spec{
	{
		name:      "cold-text",
		why:       "hierarchy + gaps (sigma 0.2%, gamma 1, lambda 4): local mining is half of the CPU time, so a miner or skew change shows here",
		sentences: 16000, options: textOptions, budgets: []int64{0},
	},
	{
		name:      "cold-ngram",
		why:       "n-gram regime (gamma 0, lambda 3), mined in memory and again under a budget that spills: map-side rewrite, encode and shuffle dominate; a miner change must not show",
		sentences: 30000, options: ngramOptions, budgets: []int64{0, 1_200_000},
	},
	{
		name: "live-append", shape: shapeLive,
		why:       "append, delta re-mine, top-100, alternating a same-distribution append (hot partitions dirtied, 73% of a cold mine) and a fresh-topic append (99% reused); versions and states accumulate",
		sentences: 16000, options: textOptions, budgets: []int64{0},
	},
	{
		name: "serve-query", shape: shapeServe,
		why:       "closed-loop GET /v1/patterns mix from nproc clients over a mined result: the HTTP and JSON path is on trial, mining does no work",
		sentences: 16000, options: textOptions, budgets: []int64{0},
	},
}

// smoke shrinks a workload twentyfold (at a relatively higher support, so
// the pattern count shrinks too) so tests can run all four quickly.
func (s spec) smoke() spec {
	s.sentences /= 20
	s.options.MinSupport = max(4, s.options.MinSupport/4)
	budgets := make([]int64, len(s.budgets))
	for i, b := range s.budgets {
		budgets[i] = b / 20
	}
	s.budgets = budgets
	return s
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// corpus is one generated input: the database in the library's internal
// form (for the layer replay and for drawing appends) and as the .ldb bytes
// the service is handed.
type corpus struct {
	db  *gsm.Database
	ldb []byte
}

// generate draws the workload's corpus from the seed.
func generate(s spec, seed int64) (*corpus, error) {
	text := datagen.GenerateText(datagen.TextConfig{Sentences: s.sentences, Lemmas: lemmas, Seed: seed})
	db, err := text.Build(datagen.HierarchyCLP)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := seqdb.Write(&buf, db); err != nil {
		return nil, err
	}
	return &corpus{db: db, ldb: buf.Bytes()}, nil
}

// line renders one sequence in the text form appends travel in.
func line(f *hierarchy.Forest, t gsm.Sequence) string {
	names := make([]string, len(t))
	for i, w := range t {
		names[i] = f.Name(w)
	}
	return strings.Join(names, " ")
}

// zipfAppend resamples n sentences of the base corpus: an append from the
// same distribution, which touches the hot pivots.
func (c *corpus) zipfAppend(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = line(c.db.Forest, c.db.Seqs[rng.Intn(len(c.db.Seqs))])
	}
	return out
}

// topicalAppend builds n four-item sequences over ten item names no earlier
// version has seen (the BenchmarkDeltaMine shape): the new vocabulary is
// frequent, every old partition stays reusable.
func topicalAppend(cycle, n int) []string {
	const topics = 10
	name := func(j int) string { return fmt.Sprintf("t%d_%d", cycle, j%topics) }
	out := make([]string, n)
	for i := range out {
		out[i] = strings.Join([]string{name(i), name(i + 1), name(i + 3), name(i + 7)}, " ")
	}
	return out
}

// libraryOptions is the lash.Options the service derives from the wire form.
func libraryOptions(o server.OptionsSpec) lash.Options {
	return lash.Options{MinSupport: o.MinSupport, MaxGap: o.MaxGap, MaxLength: o.MaxLength}
}

// oracle is the expected answer for one corpus version: a direct library
// mine, reduced to a digest for whole results and kept in full for checking
// queries against a naive scan.
type oracle struct {
	patterns []lash.Pattern
	digest   digest

	// Naive-scan tables.
	serving []int          // pattern indices, support descending, ties in mining order
	byKey   map[string]int // "a b c" → pattern index
	vocab   map[string]bool
	forest  *hierarchy.Forest
}

func digestOf(ps []lash.Pattern) digest {
	var d digest
	for _, p := range ps {
		d.add(p.Items, p.Support)
	}
	return d
}

// mineOracle mines db directly through the library.
func mineOracle(db *lash.Database, opt lash.Options, forest *hierarchy.Forest) (*oracle, error) {
	res, err := lash.MineContext(context.Background(), db, opt)
	if err != nil {
		return nil, err
	}
	o := &oracle{
		patterns: res.Patterns,
		digest:   digestOf(res.Patterns),
		serving:  make([]int, len(res.Patterns)),
		byKey:    make(map[string]int, len(res.Patterns)),
		vocab:    make(map[string]bool),
		forest:   forest,
	}
	for i, p := range res.Patterns {
		o.serving[i] = i
		o.byKey[strings.Join(p.Items, " ")] = i
		for _, it := range p.Items {
			o.vocab[it] = true
		}
	}
	sort.SliceStable(o.serving, func(a, b int) bool {
		return res.Patterns[o.serving[a]].Support > res.Patterns[o.serving[b]].Support
	})
	return o, nil
}

// scan answers a filter query the slow way: walk every pattern in serving
// order, keep the matches, cut the page. It returns the total match count
// and the page.
func (o *oracle) scan(keep func(lash.Pattern) bool, limit int) (int, []lash.Pattern) {
	total := 0
	var page []lash.Pattern
	for _, i := range o.serving {
		p := o.patterns[i]
		if !keep(p) {
			continue
		}
		total++
		if len(page) < limit {
			page = append(page, p)
		}
	}
	return total, page
}

// rollup follows a pattern's roll-up chain by the rule the service
// documents: generalize the rightmost item whose hierarchy parent occurs in
// some mined pattern by one step, and continue while the result was mined.
func (o *oracle) rollup(items []string) []lash.Pattern {
	i, ok := o.byKey[strings.Join(items, " ")]
	if !ok {
		return nil
	}
	chain := []lash.Pattern{o.patterns[i]}
	for {
		cur := append([]string(nil), chain[len(chain)-1].Items...)
		stepped := false
		for j := len(cur) - 1; j >= 0 && !stepped; j-- {
			w, ok := o.forest.Lookup(cur[j])
			if !ok || o.forest.IsRoot(w) {
				continue
			}
			parent := o.forest.Name(o.forest.Parent(w))
			if !o.vocab[parent] {
				continue
			}
			cur[j] = parent
			stepped = true
		}
		if !stepped {
			return chain
		}
		next, ok := o.byKey[strings.Join(cur, " ")]
		if !ok {
			return chain
		}
		chain = append(chain, o.patterns[next])
	}
}

// checkBruteForce mines a small sample of the corpus with the miner under
// test and with gsm.MineBruteForce, the reference written straight from the
// paper's definitions, and reports whether the two agree. The sample is 200
// sequences cut to six items with lambda capped at 3: brute force computes
// every candidate's support and is quadratic.
func checkBruteForce(c *corpus, s spec, seed int64) error {
	const (
		sampleSeqs = 200
		sampleLen  = 6
		sigma      = 4
	)
	rng := rand.New(rand.NewSource(seed))
	sample := &gsm.Database{Forest: c.db.Forest}
	for i := 0; i < sampleSeqs; i++ {
		t := c.db.Seqs[rng.Intn(len(c.db.Seqs))]
		sample.Seqs = append(sample.Seqs, t[:min(len(t), sampleLen)])
	}
	params := gsm.Params{Sigma: sigma, Gamma: s.options.MaxGap, Lambda: min(s.options.MaxLength, 3)}
	var want digest
	for _, p := range gsm.MineBruteForce(sample, params) {
		names := make([]string, len(p.Items))
		for i, w := range p.Items {
			names[i] = sample.Forest.Name(w)
		}
		want.add(names, p.Support)
	}

	var buf bytes.Buffer
	if err := seqdb.Write(&buf, sample); err != nil {
		return err
	}
	db, err := lash.ReadBinaryDatabase(&buf)
	if err != nil {
		return err
	}
	res, err := lash.MineContext(context.Background(), db,
		lash.Options{MinSupport: params.Sigma, MaxGap: params.Gamma, MaxLength: params.Lambda})
	if err != nil {
		return err
	}
	if got := digestOf(res.Patterns); got != want {
		return fmt.Errorf("miner under test disagrees with brute force on a %d-sequence sample: got %v, want %v", sampleSeqs, got, want)
	}
	if want.count == 0 {
		return fmt.Errorf("brute-force sample mined no patterns: the check is vacuous")
	}
	return nil
}
