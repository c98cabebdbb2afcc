package rewrite_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lash/internal/flist"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
	"lash/internal/paperex"
	"lash/internal/rewrite"
)

// rankStr renders a rank-space sequence using item names and "_" for blanks.
func rankStr(fl *flist.FList, s []flist.Rank) string {
	if s == nil {
		return "<nil>"
	}
	parts := make([]string, len(s))
	for i, r := range s {
		if r == flist.NoRank {
			parts[i] = "_"
		} else {
			parts[i] = fl.Forest().Name(fl.VocabOf(r))
		}
	}
	return strings.Join(parts, " ")
}

func paperFlist(t testing.TB) *flist.FList {
	t.Helper()
	db := paperex.Database()
	fl, err := flist.Build(db.Forest, flist.ComputeFrequencies(db), 2)
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

func rankOfName(t testing.TB, fl *flist.FList, name string) flist.Rank {
	t.Helper()
	w, ok := fl.Forest().Lookup(name)
	if !ok {
		t.Fatalf("unknown item %q", name)
	}
	r := fl.RankOf(w)
	if r == flist.NoRank {
		t.Fatalf("item %q is not frequent", name)
	}
	return r
}

// Golden test: the partitions of Fig. 2 (σ=2, γ=1, λ=3), sequence by
// sequence and pivot by pivot.
func TestPaperPartitions(t *testing.T) {
	fl := paperFlist(t)
	f := fl.Forest()
	rw := rewrite.NewRewriter(fl, 1, 3)
	seqs := []string{
		"a b1 a b1",   // T1
		"a b3 c c b2", // T2
		"a c",         // T3
		"b11 a e a",   // T4
		"a b12 d1 c",  // T5
		"b13 f d2",    // T6
	}
	// want[pivot][seqIdx]; "<nil>" = no emission.
	want := map[string][]string{
		"a":  {"a _ a", "<nil>", "<nil>", "a _ a", "<nil>", "<nil>"},
		"B":  {"a B a B", "a B", "<nil>", "B a _ a", "a B", "<nil>"},
		"b1": {"a b1 a b1", "<nil>", "<nil>", "b1 a _ a", "a b1", "<nil>"},
		"c":  {"<nil>", "a B c c B", "a c", "<nil>", "a b1 _ c", "<nil>"},
		"D":  {"<nil>", "<nil>", "<nil>", "<nil>", "a b1 D c", "b1 _ D"},
	}
	for pname, rows := range want {
		pivot := rankOfName(t, fl, pname)
		for i, wantStr := range rows {
			got := rw.Rewrite(nil, paperex.Seq(f, seqs[i]), pivot)
			if rankStr(fl, got) != wantStr {
				t.Errorf("P_%s(T%d) = %q, want %q", pname, i+1, rankStr(fl, got), wantStr)
			}
		}
	}
}

// Golden test: the distance table of §4.3 for T = a b1 a c d1 a d2 c f b2 c,
// pivot D, γ = 1, after D-generalization (a b1 a c D a D c _ B c).
func TestPaperDistanceTable(t *testing.T) {
	fl := paperFlist(t)
	f := fl.Forest()
	pivot := rankOfName(t, fl, "D")
	tseq := paperex.Seq(f, "a b1 a c d1 a d2 c f b2 c")
	gen := make([]flist.Rank, len(tseq))
	for i, w := range tseq {
		gen[i] = fl.GeneralizeTo(w, pivot)
	}
	if got := rankStr(fl, gen); got != "a b1 a c D a D c _ B c" {
		t.Fatalf("D-generalization = %q", got)
	}
	left, right := rewrite.Distances(gen, pivot, 1)
	// Paper's table ("-" = infinite):
	wantLeft := []string{"-", "-", "-", "-", "1", "2", "1", "2", "2", "3", "4"}
	wantRight := []string{"3", "3", "2", "2", "1", "2", "1", "-", "-", "-", "-"}
	fmtD := func(d int32) string {
		if rewrite.Infinite(d) {
			return "-"
		}
		return string(rune('0' + d))
	}
	for i := range gen {
		if fmtD(left[i]) != wantLeft[i] {
			t.Errorf("left[%d] = %s, want %s", i+1, fmtD(left[i]), wantLeft[i])
		}
		if fmtD(right[i]) != wantRight[i] {
			t.Errorf("right[%d] = %s, want %s", i+1, fmtD(right[i]), wantRight[i])
		}
	}
}

// Golden test: §4.3 unreachability results. λ=2 → "a c D a D c",
// λ=3 → "a b1 a c D a D c _ B" (after edge trimming).
func TestPaperUnreachability(t *testing.T) {
	fl := paperFlist(t)
	f := fl.Forest()
	pivot := rankOfName(t, fl, "D")
	tseq := paperex.Seq(f, "a b1 a c d1 a d2 c f b2 c")
	got2 := rewrite.NewRewriter(fl, 1, 2).Rewrite(nil, tseq, pivot)
	if rankStr(fl, got2) != "a c D a D c" {
		t.Errorf("λ=2: got %q, want %q", rankStr(fl, got2), "a c D a D c")
	}
	got3 := rewrite.NewRewriter(fl, 1, 3).Rewrite(nil, tseq, pivot)
	if rankStr(fl, got3) != "a b1 a c D a D c _ B" {
		t.Errorf("λ=3: got %q, want %q", rankStr(fl, got3), "a b1 a c D a D c _ B")
	}
}

func TestBlankRunCompression(t *testing.T) {
	fl := paperFlist(t)
	f := fl.Forest()
	// γ=0: runs collapse to a single blank. T2 = a b3 c c b2 under pivot B
	// becomes a B _ _ B; with γ=0 the second B is isolated (only blanks
	// adjacent) → a B.
	rw := rewrite.NewRewriter(fl, 0, 3)
	got := rw.Rewrite(nil, paperex.Seq(f, "a b3 c c b2"), rankOfName(t, fl, "B"))
	if rankStr(fl, got) != "a B" {
		t.Errorf("γ=0 pivot B: got %q, want %q", rankStr(fl, got), "a B")
	}
	// γ=2: nothing is isolated; run of 2 blanks stays (≤ γ+1).
	rw2 := rewrite.NewRewriter(fl, 2, 3)
	got2 := rw2.Rewrite(nil, paperex.Seq(f, "a b3 c c b2"), rankOfName(t, fl, "B"))
	if rankStr(fl, got2) != "a B _ _ B" {
		t.Errorf("γ=2 pivot B: got %q, want %q", rankStr(fl, got2), "a B _ _ B")
	}
}

func TestRewriteEdgeCases(t *testing.T) {
	fl := paperFlist(t)
	f := fl.Forest()
	rw := rewrite.NewRewriter(fl, 1, 3)
	pivA := rankOfName(t, fl, "a")
	if got := rw.Rewrite(nil, nil, pivA); got != nil {
		t.Error("empty sequence should yield nil")
	}
	if got := rw.Rewrite(nil, paperex.Seq(f, "a"), pivA); got != nil {
		t.Error("single item should yield nil")
	}
	if got := rw.Rewrite(nil, paperex.Seq(f, "c c"), pivA); got != nil {
		t.Error("no-pivot sequence should yield nil")
	}
	// dst is preserved when returning results and untouched on nil.
	dst := []flist.Rank{99}
	out := rw.Rewrite(dst, paperex.Seq(f, "a b1 a b1"), pivA)
	if len(out) < 2 || out[0] != 99 {
		t.Error("dst prefix not preserved")
	}
	out2 := rw.Rewrite(dst, paperex.Seq(f, "c c"), pivA)
	if len(out2) != 0 && (len(out2) != 1 || out2[0] != 99) {
		t.Error("nil result should not extend dst")
	}
}

// --- the correctness keystone: generalized w-equivalency (Lemma 3) -------

// vocabPivotSet computes G_{w,λ}(T) on the original sequence via the gsm
// enumeration, mapping patterns to rank space and keeping those with pivot w.
func vocabPivotSet(fl *flist.FList, t gsm.Sequence, pivot flist.Rank, gamma, lambda int) map[string]struct{} {
	out := make(map[string]struct{})
	gsm.EnumerateGenSubseqs(fl.Forest(), t, gamma, 2, lambda, nil, func(s gsm.Sequence) bool {
		maxRank := flist.Rank(0)
		ok := true
		b := make([]byte, 0, 4*len(s))
		for _, w := range s {
			r := fl.RankOf(w)
			if r == flist.NoRank {
				ok = false
				break
			}
			if r > maxRank {
				maxRank = r
			}
			b = append(b, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
		}
		if ok && maxRank == pivot {
			out[string(b)] = struct{}{}
		}
		return true
	})
	return out
}

func checkEquivalency(t *testing.T, fl *flist.FList, seq gsm.Sequence, gamma, lambda int) {
	t.Helper()
	rw := rewrite.NewRewriter(fl, gamma, lambda)
	parent := fl.ParentTable()
	for _, pivot := range fl.PivotRanks(nil, seq) {
		want := vocabPivotSet(fl, seq, pivot, gamma, lambda)
		rewr := rw.Rewrite(nil, seq, pivot)
		got := map[string]struct{}{}
		if rewr != nil {
			got = rewrite.PivotSeqSet(parent, rewr, pivot, gamma, lambda)
		}
		if len(got) != len(want) {
			t.Fatalf("pivot %s γ=%d λ=%d: |G| mismatch %d vs %d\nT  = %s\nP_w = %s",
				fl.Forest().Name(fl.VocabOf(pivot)), gamma, lambda, len(got), len(want),
				gsm.String(fl.Forest(), seq), rankStr(fl, rewr))
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Fatalf("pivot %s: missing pivot sequence\nT  = %s\nP_w = %s",
					fl.Forest().Name(fl.VocabOf(pivot)), gsm.String(fl.Forest(), seq), rankStr(fl, rewr))
			}
		}
	}
}

// w-equivalency on every sequence of the paper database, for several (γ,λ).
func TestWEquivalencyPaperDB(t *testing.T) {
	db := paperex.Database()
	for _, gl := range [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 4}, {1, 5}} {
		fl, err := flist.Build(db.Forest, flist.ComputeFrequencies(db), 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range db.Seqs {
			checkEquivalency(t, fl, seq, gl[0], gl[1])
		}
	}
}

// Property: w-equivalency holds on random hierarchies and sequences.
func TestQuickWEquivalency(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r)
		sigma := 1 + int64(r.Intn(3))
		fl, err := flist.Build(db.Forest, flist.ComputeFrequencies(db), sigma)
		if err != nil || fl.NumFrequent() == 0 {
			return err == nil
		}
		gamma := r.Intn(3)
		lambda := 2 + r.Intn(3)
		rw := rewrite.NewRewriter(fl, gamma, lambda)
		parent := fl.ParentTable()
		for _, seq := range db.Seqs {
			for _, pivot := range fl.PivotRanks(nil, seq) {
				want := vocabPivotSet(fl, seq, pivot, gamma, lambda)
				rewr := rw.Rewrite(nil, seq, pivot)
				got := map[string]struct{}{}
				if rewr != nil {
					got = rewrite.PivotSeqSet(parent, rewr, pivot, gamma, lambda)
				}
				if len(got) != len(want) {
					return false
				}
				for k := range want {
					if _, ok := got[k]; !ok {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(37))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the weaker rewrite modes (ablation study) are also w-equivalent:
// every mode yields the same pivot-sequence sets as the original sequence.
func TestQuickModesWEquivalent(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r)
		fl, err := flist.Build(db.Forest, flist.ComputeFrequencies(db), 1+int64(r.Intn(3)))
		if err != nil || fl.NumFrequent() == 0 {
			return err == nil
		}
		gamma := r.Intn(3)
		lambda := 2 + r.Intn(3)
		parent := fl.ParentTable()
		for _, mode := range []rewrite.Mode{rewrite.ModeNone, rewrite.ModeGeneralizeOnly, rewrite.ModeFull} {
			rw := rewrite.NewRewriter(fl, gamma, lambda)
			rw.Mode = mode
			for _, seq := range db.Seqs {
				for _, pivot := range fl.PivotRanks(nil, seq) {
					want := vocabPivotSet(fl, seq, pivot, gamma, lambda)
					rewr := rw.Rewrite(nil, seq, pivot)
					got := map[string]struct{}{}
					if rewr != nil {
						got = rewrite.PivotSeqSet(parent, rewr, pivot, gamma, lambda)
					}
					if len(got) != len(want) {
						return false
					}
					for k := range want {
						if _, ok := got[k]; !ok {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(43))}); err != nil {
		t.Fatal(err)
	}
}

// The full pipeline must never emit longer sequences than the weaker modes.
func TestModeCompression(t *testing.T) {
	fl := paperFlist(t)
	f := fl.Forest()
	seq := paperex.Seq(f, "a b3 c c b2")
	pivot := rankOfName(t, fl, "B")
	full := rewrite.NewRewriter(fl, 1, 3)
	genOnly := rewrite.NewRewriter(fl, 1, 3)
	genOnly.Mode = rewrite.ModeGeneralizeOnly
	none := rewrite.NewRewriter(fl, 1, 3)
	none.Mode = rewrite.ModeNone
	lf := len(full.Rewrite(nil, seq, pivot))
	lg := len(genOnly.Rewrite(nil, seq, pivot))
	ln := len(none.Rewrite(nil, seq, pivot))
	if !(lf <= lg && lg <= ln) {
		t.Fatalf("lengths not monotone: full=%d genOnly=%d none=%d", lf, lg, ln)
	}
	// ModeGeneralizeOnly keeps the original length; ModeFull shrinks to aB.
	if lg != len(seq) || ln != len(seq) {
		t.Fatalf("weak modes should preserve length: genOnly=%d none=%d", lg, ln)
	}
	if lf != 2 {
		t.Fatalf("full rewrite of T2 under pivot B should be aB, got length %d", lf)
	}
}

// Property: rewriting never lengthens a sequence, and the output contains
// only ranks ≤ pivot or blanks, with at least one pivot.
func TestQuickRewriteShape(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r)
		fl, err := flist.Build(db.Forest, flist.ComputeFrequencies(db), 1+int64(r.Intn(3)))
		if err != nil || fl.NumFrequent() == 0 {
			return err == nil
		}
		gamma := r.Intn(3)
		lambda := 2 + r.Intn(3)
		rw := rewrite.NewRewriter(fl, gamma, lambda)
		for _, seq := range db.Seqs {
			for _, pivot := range fl.PivotRanks(nil, seq) {
				out := rw.Rewrite(nil, seq, pivot)
				if out == nil {
					continue
				}
				if len(out) > len(seq) || len(out) < 2 {
					return false
				}
				hasPivot := false
				for _, x := range out {
					if x == pivot {
						hasPivot = true
					}
					if x != flist.NoRank && x > pivot {
						return false
					}
				}
				if !hasPivot {
					return false
				}
				if out[0] == flist.NoRank || out[len(out)-1] == flist.NoRank {
					return false // untrimmed edges
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Fatal(err)
	}
}

func randDB(r *rand.Rand) *gsm.Database {
	b := hierarchy.NewBuilder()
	n := 3 + r.Intn(9)
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
	for i, k := 0, 2+r.Intn(6); i < k; i++ {
		l := 1 + r.Intn(8)
		s := make(gsm.Sequence, l)
		for j := range s {
			s[j] = hierarchy.Item(r.Intn(n))
		}
		db.Seqs = append(db.Seqs, s)
	}
	return db
}
