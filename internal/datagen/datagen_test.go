package datagen_test

import (
	"testing"

	"lash/internal/datagen"
	"lash/internal/flist"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
)

func textCfg() datagen.TextConfig {
	return datagen.TextConfig{Sentences: 400, Lemmas: 300, Seed: 7}
}

func TestTextDeterminism(t *testing.T) {
	a := datagen.GenerateText(textCfg())
	b := datagen.GenerateText(textCfg())
	if len(a.Sentences) != len(b.Sentences) || len(a.Tokens) != len(b.Tokens) {
		t.Fatal("same seed produced different corpora")
	}
	for i := range a.Sentences {
		for j := range a.Sentences[i] {
			if a.Sentences[i][j] != b.Sentences[i][j] {
				t.Fatal("same seed produced different sentences")
			}
		}
	}
	c := datagen.GenerateText(datagen.TextConfig{Sentences: 400, Lemmas: 300, Seed: 8})
	same := len(a.Sentences) == len(c.Sentences)
	if same {
		diff := false
		for i := range a.Sentences {
			if len(a.Sentences[i]) != len(c.Sentences[i]) {
				diff = true
				break
			}
		}
		if !diff {
			// Extremely unlikely to have identical shape AND content.
			t.Log("warning: different seeds produced same sentence shapes")
		}
	}
}

func TestTextShape(t *testing.T) {
	c := datagen.GenerateText(textCfg())
	if len(c.Sentences) != 400 {
		t.Fatalf("%d sentences", len(c.Sentences))
	}
	total := 0
	for _, s := range c.Sentences {
		if len(s) < 1 || len(s) > 80 {
			t.Fatalf("sentence length %d outside [1,80]", len(s))
		}
		total += len(s)
	}
	avg := float64(total) / float64(len(c.Sentences))
	if avg < 15 || avg > 27 {
		t.Errorf("average sentence length %.1f far from 21", avg)
	}
}

func TestTextHierarchyVariants(t *testing.T) {
	c := datagen.GenerateText(textCfg())
	wantLevels := map[datagen.TextHierarchy]int{
		datagen.HierarchyL:   2,
		datagen.HierarchyP:   2,
		datagen.HierarchyLP:  3,
		datagen.HierarchyCLP: 4,
	}
	for _, v := range datagen.TextHierarchies {
		db, err := c.Build(v)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if err := db.Validate(); err != nil {
			t.Fatalf("%s: invalid db: %v", v, err)
		}
		st := db.Forest.ComputeStats()
		if st.Levels != wantLevels[v] {
			t.Errorf("%s: %d levels, want %d", v, st.Levels, wantLevels[v])
		}
		if v == datagen.HierarchyP && st.RootItems != 22 {
			t.Errorf("P: %d roots, want 22 POS tags", st.RootItems)
		}
		if v == datagen.HierarchyL && st.IntermediateItems != 0 {
			t.Errorf("L: %d intermediate items, want 0 (2-level hierarchy)", st.IntermediateItems)
		}
		if v == datagen.HierarchyCLP {
			if st.IntermediateItems == 0 {
				t.Error("CLP: no intermediate items")
			}
		}
	}
}

// Input sequences must contain items from different hierarchy levels (the
// paper's motivation for generalized input sequences).
func TestTextMultiLevelInputs(t *testing.T) {
	c := datagen.GenerateText(textCfg())
	db, err := c.Build(datagen.HierarchyLP)
	if err != nil {
		t.Fatal(err)
	}
	levels := map[int]bool{}
	for _, s := range db.Seqs {
		for _, w := range s {
			levels[db.Forest.Level(w)] = true
		}
	}
	// Level 2 = inflected surfaces, level 1 = lemma-identical surfaces.
	if !levels[2] || !levels[1] {
		t.Fatalf("input levels = %v; want items at levels 1 and 2", levels)
	}
}

// Zipf popularity: the most frequent lemma must dominate.
func TestTextZipfSkew(t *testing.T) {
	c := datagen.GenerateText(textCfg())
	db, err := c.Build(datagen.HierarchyL)
	if err != nil {
		t.Fatal(err)
	}
	freq := flist.ComputeFrequencies(db)
	var max, sum int64
	for _, f := range freq {
		if f > max {
			max = f
		}
		sum += f
	}
	if max < int64(len(db.Seqs))/4 {
		t.Errorf("no dominant item: max doc-freq %d of %d sequences", max, len(db.Seqs))
	}
	if sum == 0 {
		t.Fatal("empty frequencies")
	}
}

func TestCharacteristics(t *testing.T) {
	c := datagen.GenerateText(textCfg())
	db, err := c.Build(datagen.HierarchyP)
	if err != nil {
		t.Fatal(err)
	}
	st := datagen.Characteristics(db)
	if st.Sequences != 400 || st.TotalItems <= 0 || st.UniqueItems <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxLength > 80 || st.AvgLength <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.UniqueItems > int(st.TotalItems) {
		t.Fatal("unique > total")
	}
}

func marketCfg() datagen.MarketConfig {
	return datagen.MarketConfig{Users: 500, Products: 800, Roots: 20, Seed: 11}
}

func TestMarketDeterminism(t *testing.T) {
	a := datagen.GenerateMarket(marketCfg())
	b := datagen.GenerateMarket(marketCfg())
	if len(a.Sessions) != len(b.Sessions) {
		t.Fatal("nondeterministic sessions")
	}
	for i := range a.Sessions {
		for j := range a.Sessions[i] {
			if a.Sessions[i][j] != b.Sessions[i][j] {
				t.Fatal("nondeterministic session content")
			}
		}
	}
}

func TestMarketHierarchyDepths(t *testing.T) {
	c := datagen.GenerateMarket(marketCfg())
	prevItems := 0
	for _, levels := range datagen.MarketLevels {
		db, err := c.Build(levels)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Validate(); err != nil {
			t.Fatalf("h%d: %v", levels, err)
		}
		st := db.Forest.ComputeStats()
		if st.Levels > levels {
			t.Errorf("h%d: %d levels", levels, st.Levels)
		}
		if st.Levels < 2 {
			t.Errorf("h%d: flat hierarchy", levels)
		}
		// Deeper variants add intermediate categories (Table 2's trend).
		if st.TotalItems < prevItems {
			t.Errorf("h%d: item count decreased: %d < %d", levels, st.TotalItems, prevItems)
		}
		prevItems = st.TotalItems
	}
	if _, err := c.Build(1); err == nil {
		t.Error("levels=1 accepted")
	}
	if _, err := c.Build(9); err == nil {
		t.Error("levels=9 accepted")
	}
}

func TestMarketSessionShape(t *testing.T) {
	c := datagen.GenerateMarket(marketCfg())
	total := 0
	for _, s := range c.Sessions {
		if len(s) < 1 || len(s) > 120 {
			t.Fatalf("session length %d", len(s))
		}
		total += len(s)
	}
	avg := float64(total) / float64(len(c.Sessions))
	if avg < 2.5 || avg > 8 {
		t.Errorf("average session length %.2f far from 4.5", avg)
	}
}

// h2 must collapse every product to a direct child of a root.
func TestMarketH2Shape(t *testing.T) {
	c := datagen.GenerateMarket(marketCfg())
	db, err := c.Build(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range db.Seqs {
		for _, w := range s {
			p := db.Forest.Parent(w)
			if p == hierarchy.NoItem {
				t.Fatal("product without category")
			}
			if !db.Forest.IsRoot(p) {
				t.Fatalf("h2 product parent %q is not a root", db.Forest.Name(p))
			}
		}
	}
}

func TestSample(t *testing.T) {
	c := datagen.GenerateMarket(marketCfg())
	db, err := c.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	half := datagen.Sample(db, 0.5)
	if len(half.Seqs) != len(db.Seqs)/2 {
		t.Fatalf("50%% sample has %d of %d", len(half.Seqs), len(db.Seqs))
	}
	if datagen.Sample(db, 0).Seqs == nil {
		t.Fatal("0%% sample must keep at least one sequence")
	}
	if got := datagen.Sample(db, 2.0); len(got.Seqs) != len(db.Seqs) {
		t.Fatal("oversample must clamp")
	}
}

// End-to-end sanity: mining a small generated corpus works and produces
// generalized patterns (items above level-max of inputs).
func TestGeneratedCorpusMines(t *testing.T) {
	c := datagen.GenerateText(datagen.TextConfig{Sentences: 150, Lemmas: 60, Seed: 3})
	db, err := c.Build(datagen.HierarchyLP)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := flist.Build(db.Forest, flist.ComputeFrequencies(db), 10)
	if err != nil {
		t.Fatal(err)
	}
	if fl.NumFrequent() == 0 {
		t.Fatal("no frequent items in generated corpus at σ=10")
	}
	// POS roots must be frequent (they generalize everything).
	foundPOS := false
	for r := 0; r < fl.NumFrequent(); r++ {
		w := fl.VocabOf(flist.Rank(r))
		if db.Forest.IsRoot(w) && db.Forest.Level(w) == 0 {
			foundPOS = true
			break
		}
	}
	if !foundPOS {
		t.Error("no POS tag frequent")
	}
	_ = gsm.Params{}
}
