package gsm_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"lash/internal/gsm"
	"lash/internal/hierarchy"
	"lash/internal/paperex"
)

func seq(t testing.TB, f *hierarchy.Forest, s string) gsm.Sequence {
	t.Helper()
	return paperex.Seq(f, s)
}

// genSubseqSet materializes G_λ(T) (restricted to the positions accept
// admits, when non-nil) as a canonically sorted slice.
func genSubseqSet(f *hierarchy.Forest, t gsm.Sequence, gamma, minLen, maxLen int, accept func(int) bool) []gsm.Sequence {
	var out []gsm.Sequence
	gsm.EnumerateGenSubseqs(f, t, gamma, minLen, maxLen, accept, func(s gsm.Sequence) bool {
		out = append(out, slices.Clone(s))
		return true
	})
	slices.SortFunc(out, compareCanonical)
	return out
}

func TestParamsValidate(t *testing.T) {
	ok := gsm.Params{Sigma: 1, Gamma: 0, Lambda: 2}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []gsm.Params{
		{Sigma: 0, Gamma: 0, Lambda: 2},
		{Sigma: 1, Gamma: -1, Lambda: 2},
		{Sigma: 1, Gamma: 0, Lambda: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("params %+v should be invalid", bad)
		}
	}
}

func TestDatabaseValidate(t *testing.T) {
	db := paperex.Database()
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	db.Seqs = append(db.Seqs, gsm.Sequence{hierarchy.Item(10000)})
	if err := db.Validate(); err == nil {
		t.Fatal("out-of-vocabulary item not caught")
	}
	if err := (&gsm.Database{}).Validate(); err == nil {
		t.Fatal("missing forest not caught")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	f := paperex.Forest()
	s := seq(t, f, "a b1 d2 B")
	got := gsm.FromKey(gsm.Key(s))
	if gsm.String(f, got) != "a b1 d2 B" {
		t.Fatalf("round trip = %q", gsm.String(f, got))
	}
	if len(gsm.FromKey(gsm.Key(nil))) != 0 {
		t.Fatal("empty round trip failed")
	}
}

// isSubseq reports whether S is a plain (non-generalized) gap-constrained
// subsequence of T, i.e. S ⊆γ T: the reference that
// TestQuickSubseqImpliesGenSubseq holds gsm.IsGenSubseq to.
func isSubseq(s, t gsm.Sequence, gamma int) bool {
	n, m := len(s), len(t)
	if n == 0 || n > m {
		return n == 0
	}
	memo := make([]byte, n*m)
	var match func(i, j int) bool
	match = func(i, j int) bool {
		if t[j] != s[i] {
			return false
		}
		if i == n-1 {
			return true
		}
		switch memo[i*m+j] {
		case 1:
			return true
		case 2:
			return false
		}
		hi := j + 1 + gamma
		if hi >= m {
			hi = m - 1
		}
		for jn := j + 1; jn <= hi; jn++ {
			if match(i+1, jn) {
				memo[i*m+j] = 1
				return true
			}
		}
		memo[i*m+j] = 2
		return false
	}
	for j := 0; j+n <= m; j++ {
		if match(0, j) {
			return true
		}
	}
	return false
}

// §2 subsequence examples on T5 = a b12 d1 c.
func TestIsSubseqPaperExamples(t *testing.T) {
	f := paperex.Forest()
	t5 := seq(t, f, "a b12 d1 c")
	cases := []struct {
		s     string
		gamma int
		want  bool
	}{
		{"a", 0, true},
		{"a b12", 0, true},
		{"a d1 c", 1, true},
		{"b12 a", 1000, false},
		{"a d1 c", 0, false},
	}
	for _, c := range cases {
		if got := isSubseq(seq(t, f, c.s), t5, c.gamma); got != c.want {
			t.Errorf("isSubseq(%q, T5, γ=%d) = %v, want %v", c.s, c.gamma, got, c.want)
		}
	}
}

// §2 generalized subsequence examples: ad1 ⊑1 T5 and aD ⊑1 T5.
func TestIsGenSubseqPaperExamples(t *testing.T) {
	f := paperex.Forest()
	t5 := seq(t, f, "a b12 d1 c")
	cases := []struct {
		s     string
		gamma int
		want  bool
	}{
		{"a d1", 1, true},
		{"a D", 1, true},
		{"a D", 0, false}, // b12 in between
		{"a b1", 0, true}, // b12 generalizes to b1, adjacent
		{"a B c", 1, true},
		{"a B c", 0, false},
		{"D a", 2, false}, // order matters
		{"a b12 d1 c", 0, true},
		{"a b1 D c", 0, true}, // full generalization, same length
	}
	for _, c := range cases {
		if got := gsm.IsGenSubseq(f, seq(t, f, c.s), t5, c.gamma); got != c.want {
			t.Errorf("IsGenSubseq(%q, T5, γ=%d) = %v, want %v", c.s, c.gamma, got, c.want)
		}
	}
}

// Support examples from §2: Sup0(aBc) = {T2}, Sup1(aBc) = {T2, T5}.
func TestFrequencyPaperExamples(t *testing.T) {
	db := paperex.Database()
	f := db.Forest
	if got := gsm.Frequency(db, seq(t, f, "a B c"), 0); got != 1 {
		t.Errorf("f0(aBc) = %d, want 1", got)
	}
	if got := gsm.Frequency(db, seq(t, f, "a B c"), 1); got != 2 {
		t.Errorf("f1(aBc) = %d, want 2", got)
	}
	if got := gsm.Frequency(db, seq(t, f, "a B"), 1); got != 3 {
		t.Errorf("f1(aB) = %d, want 3", got)
	}
	if got := gsm.Frequency(db, seq(t, f, "b1 D"), 1); got != 2 {
		t.Errorf("f1(b1D) = %d, want 2", got)
	}
}

// G1(T4) from §3.3: {b11, a, e, b1, B} as a set.
func TestItemGeneralizations(t *testing.T) {
	f := paperex.Forest()
	got := gsm.AppendItemGeneralizations(nil, f, seq(t, f, "b11 a e a"))
	want := map[string]bool{"b11": true, "a": true, "e": true, "b1": true, "B": true}
	if len(got) != len(want) {
		t.Fatalf("G1(T4) = %d items, want %d", len(got), len(want))
	}
	for _, w := range got {
		if !want[f.Name(w)] {
			t.Errorf("unexpected item %s in G1(T4)", f.Name(w))
		}
	}
	// Ascending order.
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatal("G1 not sorted")
		}
	}
}

// G3(T4) from §3.2: exactly the 19 listed sequences for γ=1, λ=3.
func TestEnumerateG3T4(t *testing.T) {
	f := paperex.Forest()
	t4 := seq(t, f, "b11 a e a")
	got := genSubseqSet(f, t4, 1, 2, 3, nil)
	wantStrs := []string{
		"b11 a", "b11 e", "a e", "a a", "e a", "b11 a e", "b11 a a",
		"b11 e a", "a e a",
		"b1 a", "b1 e", "b1 a e", "b1 a a", "b1 e a",
		"B a", "B e", "B a e", "B a a", "B e a",
	}
	want := make([]gsm.Sequence, len(wantStrs))
	for i, s := range wantStrs {
		want[i] = seq(t, f, s)
	}
	slices.SortFunc(want, compareCanonical)
	if len(got) != len(want) {
		t.Fatalf("|G3(T4)| = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if gsm.String(f, got[i]) != gsm.String(f, want[i]) {
			t.Fatalf("G3(T4)[%d] = %q, want %q", i, gsm.String(f, got[i]), gsm.String(f, want[i]))
		}
	}
}

// G_{b1,2}(T1) from Eq. (3): {ab1, b1a, b1b1, b1B, Bb1} — checked here via
// plain enumeration plus pivot filtering to cross-validate the set.
func TestEnumeratePivotFilter(t *testing.T) {
	f := paperex.Forest()
	t1 := seq(t, f, "a b1 a b1")
	all := genSubseqSet(f, t1, 1, 2, 2, nil)
	// Order of the paper: a < B < b1; pivot b1 = largest item must appear.
	b1, _ := f.Lookup("b1")
	var got []string
	for _, s := range all {
		hasPivot := false
		for _, w := range s {
			if w == b1 {
				hasPivot = true
			}
		}
		if hasPivot {
			got = append(got, gsm.String(f, s))
		}
	}
	want := map[string]bool{"a b1": true, "b1 a": true, "b1 b1": true, "b1 B": true, "B b1": true}
	if len(got) != len(want) {
		t.Fatalf("pivot sequences = %v, want 5 of %v", got, want)
	}
	for _, s := range got {
		if !want[s] {
			t.Errorf("unexpected pivot sequence %q", s)
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	f := paperex.Forest()
	t1 := seq(t, f, "a b1 a b1")
	n := 0
	gsm.EnumerateGenSubseqs(f, t1, 1, 2, 3, nil, func(s gsm.Sequence) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop failed: %d callbacks", n)
	}
}

func TestEnumerateAcceptFilter(t *testing.T) {
	f := paperex.Forest()
	t4 := seq(t, f, "b11 a e a")
	// Block position 2 (item e): like a blank — gaps still count positions.
	got := genSubseqSet(f, t4, 1, 2, 3, func(i int) bool { return i != 2 })
	for _, s := range got {
		for _, w := range s {
			if f.Name(w) == "e" {
				t.Fatalf("blanked item leaked into %q", gsm.String(f, s))
			}
		}
	}
	// aa must still be present: positions 1 and 3, gap 1.
	found := false
	for _, s := range got {
		if gsm.String(f, s) == "a a" {
			found = true
		}
	}
	if !found {
		t.Fatal("a a missing despite valid gap across the blank")
	}
}

// The running example end-to-end on the oracle (§2): σ=2, γ=1, λ=3.
func TestMineBruteForcePaperExample(t *testing.T) {
	db := paperex.Database()
	got := gsm.MineBruteForce(db, paperex.Params())
	want := paperex.Expected(db.Forest)
	if !gsm.EqualPatterns(got, want) {
		t.Fatalf("oracle mismatch:\n%s", gsm.DiffPatterns(db.Forest, got, want))
	}
}

// --- randomized cross-checks -------------------------------------------

// randDB builds a small random database over a random forest.
func randDB(r *rand.Rand) *gsm.Database {
	b := hierarchy.NewBuilder()
	n := 4 + r.Intn(8)
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
	numSeqs := 2 + r.Intn(6)
	for i := 0; i < numSeqs; i++ {
		l := 1 + r.Intn(7)
		s := make(gsm.Sequence, l)
		for j := range s {
			s[j] = hierarchy.Item(r.Intn(n))
		}
		db.Seqs = append(db.Seqs, s)
	}
	return db
}

// Property: S ∈ G_λ(T) ⇔ S ⊑γ T (for |S| within bounds) — the enumeration
// and the subsequence test must agree.
func TestQuickEnumerationMatchesSubseqTest(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r)
		f := db.Forest
		gamma := r.Intn(3)
		lambda := 2 + r.Intn(2)
		tseq := db.Seqs[0]
		set := make(map[string]bool)
		gsm.EnumerateGenSubseqs(f, tseq, gamma, 2, lambda, nil, func(s gsm.Sequence) bool {
			set[gsm.Key(s)] = true
			return true
		})
		// Every enumerated sequence must pass the independent test.
		for k := range set {
			if !gsm.IsGenSubseq(f, gsm.FromKey(k), tseq, gamma) {
				return false
			}
		}
		// Sample random candidate sequences; set membership must match test.
		for trial := 0; trial < 60; trial++ {
			l := 2 + r.Intn(lambda-1)
			s := make(gsm.Sequence, l)
			for j := range s {
				s[j] = hierarchy.Item(r.Intn(f.Size()))
			}
			if gsm.IsGenSubseq(f, s, tseq, gamma) != set[gsm.Key(s)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// Property (Lemma 1, support monotonicity): if S1 ⊑γ S2 then
// f(S1) ≥ f(S2).
func TestQuickSupportMonotonicity(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r)
		f := db.Forest
		gamma := r.Intn(3)
		// Draw S2 as a random generalized subsequence of a random database
		// sequence, then S1 as a random generalized subsequence of S2.
		tseq := db.Seqs[r.Intn(len(db.Seqs))]
		var all2 []gsm.Sequence
		gsm.EnumerateGenSubseqs(f, tseq, gamma, 2, 4, nil, func(s gsm.Sequence) bool {
			all2 = append(all2, append(gsm.Sequence(nil), s...))
			return true
		})
		if len(all2) == 0 {
			return true
		}
		s2 := all2[r.Intn(len(all2))]
		var all1 []gsm.Sequence
		gsm.EnumerateGenSubseqs(f, s2, gamma, 1, len(s2), nil, func(s gsm.Sequence) bool {
			all1 = append(all1, append(gsm.Sequence(nil), s...))
			return true
		})
		s1 := all1[r.Intn(len(all1))]
		return gsm.Frequency(db, s1, gamma) >= gsm.Frequency(db, s2, gamma)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

// Property: plain subsequence implies generalized subsequence (§2).
func TestQuickSubseqImpliesGenSubseq(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r)
		f := db.Forest
		gamma := r.Intn(3)
		tseq := db.Seqs[0]
		for trial := 0; trial < 40; trial++ {
			l := 1 + r.Intn(4)
			s := make(gsm.Sequence, l)
			for j := range s {
				s[j] = hierarchy.Item(r.Intn(f.Size()))
			}
			if isSubseq(s, tseq, gamma) && !gsm.IsGenSubseq(f, s, tseq, gamma) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}
