package flist_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lash/internal/flist"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
	"lash/internal/paperex"
)

// The paper's generalized f-list for σ=2 (Fig. 2): a:5, B:5, b1:4, c:3, D:2,
// ordered a < B < b1 < c < D.
func TestPaperFList(t *testing.T) {
	db := paperex.Database()
	freq := flist.ComputeFrequencies(db)
	f := db.Forest
	wantFreq := map[string]int64{
		"a": 5, "B": 5, "b1": 4, "c": 3, "D": 2,
		"b2": 1, "b3": 1, "b11": 1, "b12": 1, "b13": 1, "d1": 1, "d2": 1,
		"e": 1, "f": 1,
	}
	for name, want := range wantFreq {
		w, _ := f.Lookup(name)
		if freq[w] != want {
			t.Errorf("f0(%s) = %d, want %d", name, freq[w], want)
		}
	}
	fl, err := flist.Build(f, freq, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fl.NumFrequent() != 5 {
		t.Fatalf("NumFrequent = %d, want 5", fl.NumFrequent())
	}
	for r, row := range paperex.GeneralizedFList() {
		w := fl.VocabOf(flist.Rank(r))
		if f.Name(w) != row.Name {
			t.Errorf("rank %d = %s, want %s", r, f.Name(w), row.Name)
		}
		if fl.FreqOfRank(flist.Rank(r)) != row.Freq {
			t.Errorf("freq of rank %d = %d, want %d", r, fl.FreqOfRank(flist.Rank(r)), row.Freq)
		}
	}
	// Parent ranks: b1's parent is B (rank 1); D, a, B, c are roots.
	b1, _ := f.Lookup("b1")
	B, _ := f.Lookup("B")
	if fl.ParentTable()[fl.RankOf(b1)] != fl.RankOf(B) {
		t.Error("parent rank of b1 should be B")
	}
	a, _ := f.Lookup("a")
	if fl.ParentTable()[fl.RankOf(a)] != flist.NoRank {
		t.Error("a is a root")
	}
}

func TestGeneralizeTo(t *testing.T) {
	db := paperex.Database()
	fl, err := flist.Build(db.Forest, flist.ComputeFrequencies(db), 2)
	if err != nil {
		t.Fatal(err)
	}
	f := db.Forest
	lk := func(n string) hierarchy.Item { w, _ := f.Lookup(n); return w }
	rk := func(n string) flist.Rank { return fl.RankOf(lk(n)) }

	// §4.2 example, pivot B (rank 1): b3 and b2 generalize to B; c has no
	// ancestor ≤ B → blank; a stays a.
	pivotB := rk("B")
	if got := fl.GeneralizeTo(lk("b3"), pivotB); got != rk("B") {
		t.Errorf("b3 under pivot B → rank %d, want B", got)
	}
	if got := fl.GeneralizeTo(lk("c"), pivotB); got != flist.NoRank {
		t.Errorf("c under pivot B → %d, want blank", got)
	}
	if got := fl.GeneralizeTo(lk("a"), pivotB); got != rk("a") {
		t.Errorf("a under pivot B → %d, want a", got)
	}
	// Pivot b1 (rank 2): b11 → b1 (deepest ≤ pivot), b3 → B (b3 itself is
	// infrequent, b1-sibling), d1 → blank (D has rank 4 > 2).
	pivotb1 := rk("b1")
	if got := fl.GeneralizeTo(lk("b11"), pivotb1); got != rk("b1") {
		t.Errorf("b11 under pivot b1 → %d, want b1", got)
	}
	if got := fl.GeneralizeTo(lk("b3"), pivotb1); got != rk("B") {
		t.Errorf("b3 under pivot b1 → %d, want B", got)
	}
	if got := fl.GeneralizeTo(lk("d1"), pivotb1); got != flist.NoRank {
		t.Errorf("d1 under pivot b1 → %d, want blank", got)
	}
	// Pivot D (rank 4): d1 → D itself (pivot is its own frequent ancestor).
	if got := fl.GeneralizeTo(lk("d1"), rk("D")); got != rk("D") {
		t.Errorf("d1 under pivot D → %d, want D", got)
	}
	// Closest frequent ancestor (semi-naïve): e → blank, b11 → b1.
	if got := fl.FrequentRank(lk("e")); got != flist.NoRank {
		t.Errorf("FrequentRank(e) = %d, want blank", got)
	}
	if got := fl.FrequentRank(lk("b11")); got != rk("b1") {
		t.Errorf("FrequentRank(b11) = %d, want b1", got)
	}
}

func TestPivotRanks(t *testing.T) {
	db := paperex.Database()
	fl, err := flist.Build(db.Forest, flist.ComputeFrequencies(db), 2)
	if err != nil {
		t.Fatal(err)
	}
	f := db.Forest
	// T6 = b13 f d2 contributes to partitions b1, B, D (frequent members of
	// G1(T6)); T2 = a b3 c c b2 to a, B, c.
	cases := []struct {
		seq  string
		want []string
	}{
		{"b13 f d2", []string{"B", "b1", "D"}},
		{"a b3 c c b2", []string{"a", "B", "c"}},
		{"a c", []string{"a", "c"}},
	}
	for _, c := range cases {
		got := fl.PivotRanks(nil, paperex.Seq(f, c.seq))
		if len(got) != len(c.want) {
			t.Fatalf("PivotRanks(%q) = %d pivots, want %d", c.seq, len(got), len(c.want))
		}
		for i, r := range got {
			if f.Name(fl.VocabOf(r)) != c.want[i] {
				t.Errorf("PivotRanks(%q)[%d] = %s, want %s", c.seq, i, f.Name(fl.VocabOf(r)), c.want[i])
			}
			if i > 0 && got[i-1] >= r {
				t.Errorf("PivotRanks(%q) not sorted", c.seq)
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	f := paperex.Forest()
	if _, err := flist.Build(f, make([]int64, 3), 1); err == nil {
		t.Error("length mismatch not caught")
	}
	if _, err := flist.Build(f, make([]int64, f.Size()), 0); err == nil {
		t.Error("σ=0 not caught")
	}
	// Frequent child with infrequent parent violates the nesting invariant.
	bad := make([]int64, f.Size())
	b1, _ := f.Lookup("b1")
	bad[b1] = 10
	if _, err := flist.Build(f, bad, 2); err == nil {
		t.Error("infrequent-parent inconsistency not caught")
	}
}

func TestTranslate(t *testing.T) {
	db := paperex.Database()
	fl, _ := flist.Build(db.Forest, flist.ComputeFrequencies(db), 2)
	f := db.Forest
	s := paperex.Seq(f, "a b1 c")
	ranks := fl.TranslateToRanks(nil, s)
	back, err := fl.TranslateFromRanks(nil, ranks)
	if err != nil {
		t.Fatal(err)
	}
	if gsm.String(f, back) != "a b1 c" {
		t.Fatalf("round trip = %q", gsm.String(f, back))
	}
	// Infrequent items become blanks and cannot translate back.
	ranks2 := fl.TranslateToRanks(nil, paperex.Seq(f, "a e"))
	if ranks2[1] != flist.NoRank {
		t.Fatal("infrequent item should be NoRank")
	}
	if _, err := fl.TranslateFromRanks(nil, ranks2); err == nil {
		t.Fatal("blank translation should fail")
	}
}

// Properties over random databases: (1) the order assigns parents smaller
// ranks than children ("w2 → w1 implies w1 < w2"); (2) f0 is monotone along
// the hierarchy; (3) f0 matches a direct definition-based count.
func TestQuickOrderAndFrequencies(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r)
		f := db.Forest
		freq := flist.ComputeFrequencies(db)
		// (3) definition check: count sequences containing w or a descendant.
		for w := 0; w < f.Size(); w++ {
			var n int64
			for _, t := range db.Seqs {
				has := false
				for _, u := range t {
					if f.GeneralizesTo(u, hierarchy.Item(w)) {
						has = true
						break
					}
				}
				if has {
					n++
				}
			}
			if n != freq[w] {
				return false
			}
		}
		// (2) monotonicity along parents.
		for w := 0; w < f.Size(); w++ {
			if p := f.Parent(hierarchy.Item(w)); p != hierarchy.NoItem {
				if freq[p] < freq[w] {
					return false
				}
			}
		}
		fl, err := flist.Build(f, freq, 1+int64(r.Intn(3)))
		if err != nil {
			return false
		}
		// (1) order property.
		for rr := 0; rr < fl.NumFrequent(); rr++ {
			if p := fl.ParentTable()[flist.Rank(rr)]; p != flist.NoRank && p >= flist.Rank(rr) {
				return false
			}
		}
		// Ranks sorted by frequency descending.
		for rr := 1; rr < fl.NumFrequent(); rr++ {
			if fl.FreqOfRank(flist.Rank(rr)) > fl.FreqOfRank(flist.Rank(rr-1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Fatal(err)
	}
}

func randDB(r *rand.Rand) *gsm.Database {
	b := hierarchy.NewBuilder()
	n := 3 + r.Intn(10)
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
	for i, k := 0, 2+r.Intn(8); i < k; i++ {
		l := 1 + r.Intn(6)
		s := make(gsm.Sequence, l)
		for j := range s {
			s[j] = hierarchy.Item(r.Intn(n))
		}
		db.Seqs = append(db.Seqs, s)
	}
	return db
}
