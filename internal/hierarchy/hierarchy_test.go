package hierarchy

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// paperForest builds the example hierarchy of Fig. 1(b):
// roots a, B, c, D, e, f; B→{b1,b2,b3}; b1→{b11,b12,b13}; D→{d1,d2}.
func paperForest(t testing.TB) *Forest {
	t.Helper()
	b := NewBuilder()
	for _, r := range []string{"a", "B", "c", "D", "e", "f"} {
		b.Add(r)
	}
	for _, e := range [][2]string{
		{"b1", "B"}, {"b2", "B"}, {"b3", "B"},
		{"b11", "b1"}, {"b12", "b1"}, {"b13", "b1"},
		{"d1", "D"}, {"d2", "D"},
	} {
		b.AddEdge(e[0], e[1])
	}
	f, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return f
}

func item(t testing.TB, f *Forest, name string) Item {
	t.Helper()
	w, ok := f.Lookup(name)
	if !ok {
		t.Fatalf("item %q not interned", name)
	}
	return w
}

func TestBuilderInterning(t *testing.T) {
	b := NewBuilder()
	x := b.Add("x")
	if y := b.Add("x"); y != x {
		t.Fatalf("Add not idempotent: %d vs %d", x, y)
	}
	f, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 1 {
		t.Fatalf("Size = %d, want 1", f.Size())
	}
	if f.Name(x) != "x" {
		t.Fatalf("Name = %q", f.Name(x))
	}
	if _, ok := f.Lookup("y"); ok {
		t.Fatal("Lookup(y) should fail")
	}
}

func TestPaperForestShape(t *testing.T) {
	f := paperForest(t)
	if f.Size() != 14 {
		t.Fatalf("Size = %d, want 14", f.Size())
	}
	if f.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3", f.Depth())
	}
	a, B, b1, b11, D, d1, e := item(t, f, "a"), item(t, f, "B"), item(t, f, "b1"),
		item(t, f, "b11"), item(t, f, "D"), item(t, f, "d1"), item(t, f, "e")
	if !f.IsRoot(a) || !f.IsRoot(B) || !f.IsRoot(e) {
		t.Fatal("a, B, e must be roots")
	}
	if f.IsRoot(b1) || f.IsRoot(b11) {
		t.Fatal("b1, b11 must not be roots")
	}
	if f.Parent(b11) != b1 || f.Parent(b1) != B || f.Parent(d1) != D {
		t.Fatal("wrong parents")
	}
	if f.Level(a) != 0 || f.Level(b1) != 1 || f.Level(b11) != 2 {
		t.Fatalf("levels: a=%d b1=%d b11=%d", f.Level(a), f.Level(b1), f.Level(b11))
	}
}

func TestGeneralizesTo(t *testing.T) {
	f := paperForest(t)
	B, b1, b11, b2, a, D := item(t, f, "B"), item(t, f, "b1"), item(t, f, "b11"),
		item(t, f, "b2"), item(t, f, "a"), item(t, f, "D")
	cases := []struct {
		u, v Item
		want bool
	}{
		{b11, B, true},  // b11 →* B (transitive)
		{b11, b1, true}, // direct
		{b11, b11, true},
		{b1, b11, false}, // wrong direction
		{b2, b1, false},  // siblings
		{a, B, false},    // different trees
		{D, D, true},
	}
	for _, c := range cases {
		if got := f.GeneralizesTo(c.u, c.v); got != c.want {
			t.Errorf("GeneralizesTo(%s, %s) = %v, want %v", f.Name(c.u), f.Name(c.v), got, c.want)
		}
	}
}

func TestAncestors(t *testing.T) {
	f := paperForest(t)
	b11 := item(t, f, "b11")
	anc := f.Ancestors(nil, b11)
	if len(anc) != 2 || f.Name(anc[0]) != "b1" || f.Name(anc[1]) != "B" {
		t.Fatalf("Ancestors(b11) = %v", anc)
	}
	sa := f.SelfAndAncestors(nil, b11)
	if len(sa) != 3 || sa[0] != b11 {
		t.Fatalf("SelfAndAncestors(b11) = %v", sa)
	}
	a := item(t, f, "a")
	if got := f.Ancestors(nil, a); len(got) != 0 {
		t.Fatalf("Ancestors(a) = %v, want empty", got)
	}
}

func TestComputeStats(t *testing.T) {
	f := paperForest(t)
	s := f.ComputeStats()
	want := Stats{
		TotalItems: 14, LeafItems: 8, RootItems: 6, IntermediateItems: 0,
		Levels: 3, MaxFanOut: 3,
	}
	// Leaves: b11,b12,b13,b2,b3,d1,d2 and... a,c,e,f are roots AND leaves; the
	// classification buckets roots first, so leaves = non-root childless items.
	if s.TotalItems != want.TotalItems || s.RootItems != want.RootItems ||
		s.Levels != want.Levels || s.MaxFanOut != want.MaxFanOut {
		t.Fatalf("stats = %+v", s)
	}
	if s.LeafItems != 7 { // b11,b12,b13,b2,b3,d1,d2
		t.Fatalf("LeafItems = %d, want 7", s.LeafItems)
	}
	if s.IntermediateItems != 1 { // b1
		t.Fatalf("IntermediateItems = %d, want 1", s.IntermediateItems)
	}
	// fan-out: B=3, b1=3, D=2 → avg 8/3
	if s.AvgFanOut < 2.66 || s.AvgFanOut > 2.67 {
		t.Fatalf("AvgFanOut = %f", s.AvgFanOut)
	}
}

func TestCycleDetection(t *testing.T) {
	b := NewBuilder()
	b.AddEdge("x", "y")
	b.AddEdge("y", "z")
	b.AddEdge("z", "x")
	if _, err := b.Build(); err == nil {
		t.Fatal("cycle not detected")
	}
	b2 := NewBuilder()
	b2.AddEdge("x", "x")
	if _, err := b2.Build(); err == nil {
		t.Fatal("self-loop not detected")
	}
}

func TestReparentRejected(t *testing.T) {
	b := NewBuilder()
	b.AddEdge("c", "p1")
	b.AddEdge("c", "p2")
	if _, err := b.Build(); err == nil {
		t.Fatal("re-parenting not rejected")
	}
	// Same parent twice is fine.
	b2 := NewBuilder()
	b2.AddEdge("c", "p")
	b2.AddEdge("c", "p")
	if _, err := b2.Build(); err != nil {
		t.Fatalf("idempotent edge rejected: %v", err)
	}
}

func TestFlat(t *testing.T) {
	f := Flat([]string{"x", "y", "z"})
	if f.Depth() != 1 || f.Size() != 3 || f.ComputeStats().RootItems != 3 {
		t.Fatalf("flat forest wrong: depth=%d size=%d", f.Depth(), f.Size())
	}
	x, _ := f.Lookup("x")
	y, _ := f.Lookup("y")
	if f.GeneralizesTo(x, y) || !f.GeneralizesTo(x, x) {
		t.Fatal("flat generalization wrong")
	}
}

func TestEmptyForest(t *testing.T) {
	f, err := NewBuilder().Build()
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 0 || f.Depth() != 0 {
		t.Fatalf("empty forest: size=%d depth=%d", f.Size(), f.Depth())
	}
}

// randomForest builds a random forest with n items; each item may get one of
// the earlier items as parent (guaranteeing acyclicity).
func randomForest(r *rand.Rand, n int) *Forest {
	b := NewBuilder()
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = string(rune('A'+i%26)) + string(rune('0'+i/26))
		b.Add(names[i])
	}
	for i := 1; i < n; i++ {
		if r.Intn(3) > 0 { // 2/3 of items get a parent
			b.AddEdge(names[i], names[r.Intn(i)])
		}
	}
	f, err := b.Build()
	if err != nil {
		panic(err)
	}
	return f
}

// Property: GeneralizesTo(u,v) agrees with explicit ancestor-chain walking.
func TestQuickGeneralizesMatchesChain(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		f := randomForest(rr, 2+rr.Intn(30))
		for trial := 0; trial < 50; trial++ {
			u := Item(rr.Intn(f.Size()))
			v := Item(rr.Intn(f.Size()))
			chain := false
			for _, x := range f.SelfAndAncestors(nil, u) {
				if x == v {
					chain = true
					break
				}
			}
			if f.GeneralizesTo(u, v) != chain {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

// Property: levels are consistent with parents and depth is their max + 1.
func TestQuickLevels(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		f := randomForest(rr, 1+rr.Intn(40))
		maxLevel := 0
		for w := 0; w < f.Size(); w++ {
			it := Item(w)
			if f.IsRoot(it) {
				if f.Level(it) != 0 {
					return false
				}
			} else if f.Level(it) != f.Level(f.Parent(it))+1 {
				return false
			}
			if f.Level(it) > maxLevel {
				maxLevel = f.Level(it)
			}
		}
		return f.Depth() == maxLevel+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: r}); err != nil {
		t.Fatal(err)
	}
}
