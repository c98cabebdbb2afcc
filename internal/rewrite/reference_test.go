package rewrite_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"lash/internal/datagen"
	"lash/internal/flist"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
	"lash/internal/rewrite"
)

// reference is the rewrite as it was before Load/Next/Rewritten: steps 1–4
// over the whole sequence, once per (sequence, pivot), every item climbing
// the hierarchy again. It is what the windowed body must reproduce byte for
// byte; it exists only here.
type reference struct {
	fl     *flist.FList
	gamma  int
	lambda int
	mode   rewrite.Mode
}

const refInf = int32(1 << 30)

// rewrite computes P_w(T), or nil when nothing is to be emitted.
func (rf reference) rewrite(t gsm.Sequence, pivot flist.Rank) []flist.Rank {
	n := len(t)
	if n == 0 {
		return nil
	}
	ranks := make([]flist.Rank, n)

	if rf.mode == rewrite.ModeNone {
		if n < 2 {
			return nil
		}
		hasPivot := false
		for i, w := range t {
			r := rf.fl.FrequentRank(w)
			ranks[i] = r
			if !hasPivot && r != flist.NoRank && rf.generalizesToPivot(r, pivot) {
				hasPivot = true
			}
		}
		if !hasPivot {
			return nil
		}
		return ranks
	}

	// Step 1: w-generalization.
	hasPivot := false
	for i, w := range t {
		r := rf.fl.GeneralizeTo(w, pivot)
		ranks[i] = r
		if r == pivot {
			hasPivot = true
		}
	}
	if !hasPivot {
		return nil
	}
	if rf.mode == rewrite.ModeGeneralizeOnly {
		nonBlank := 0
		for _, r := range ranks {
			if r != flist.NoRank {
				nonBlank++
			}
		}
		if nonBlank < 2 {
			return nil
		}
		return ranks
	}

	// Step 2: pivot distances.
	left, right := make([]int32, n), make([]int32, n)
	g := rf.gamma
	for i := 0; i < n; i++ {
		if ranks[i] == pivot {
			left[i] = 1
			continue
		}
		best := refInf
		for j := i - 1 - g; j < i; j++ {
			if j < 0 || ranks[j] == flist.NoRank {
				continue
			}
			if left[j] < best {
				best = left[j]
			}
		}
		if best < refInf {
			best++
		}
		left[i] = best
	}
	for i := n - 1; i >= 0; i-- {
		if ranks[i] == pivot {
			right[i] = 1
			continue
		}
		best := refInf
		for j := i + 1; j <= i+1+g && j < n; j++ {
			if ranks[j] == flist.NoRank {
				continue
			}
			if right[j] < best {
				best = right[j]
			}
		}
		if best < refInf {
			best++
		}
		right[i] = best
	}
	lam := int32(rf.lambda)
	for i := 0; i < n; i++ {
		if min(left[i], right[i]) > lam {
			ranks[i] = flist.NoRank
		}
	}

	// Step 3: isolated pivots.
	anyPivot := false
	for i := 0; i < n; i++ {
		if ranks[i] != pivot {
			continue
		}
		isolated := true
		for j := i - 1 - g; j <= i+1+g && isolated; j++ {
			if j < 0 || j >= n || j == i {
				continue
			}
			if ranks[j] != flist.NoRank {
				isolated = false
			}
		}
		if isolated {
			ranks[i] = flist.NoRank
		} else {
			anyPivot = true
		}
	}
	if !anyPivot {
		return nil
	}

	// Step 4: trim edges, compress blank runs to at most γ+1, emit.
	lo, hi := 0, n-1
	for lo <= hi && ranks[lo] == flist.NoRank {
		lo++
	}
	for hi >= lo && ranks[hi] == flist.NoRank {
		hi--
	}
	if hi-lo+1 < 2 {
		return nil
	}
	var dst []flist.Rank
	run := 0
	maxRun := g + 1
	for i := lo; i <= hi; i++ {
		if ranks[i] == flist.NoRank {
			run++
			if run <= maxRun {
				dst = append(dst, flist.NoRank)
			}
			continue
		}
		run = 0
		dst = append(dst, ranks[i])
	}
	if len(dst) < 2 {
		return nil
	}
	return dst
}

// generalizesToPivot reports whether rank r has the pivot among its
// ancestors-or-self in rank space.
func (rf reference) generalizesToPivot(r, pivot flist.Rank) bool {
	parent := rf.fl.ParentTable()
	for r != flist.NoRank {
		if r == pivot {
			return true
		}
		if r < pivot || int(r) >= len(parent) {
			return false // ancestors only get smaller; cannot reach pivot
		}
		r = parent[r]
	}
	return false
}

// gapLengths are the (γ, λ) pairs of the differential: the n-gram and text
// settings of the benchmark, the smallest radius, radii that cover a whole
// sentence, and γ+1 above, at and below λ.
var gapLengths = [][2]int{{0, 3}, {1, 4}, {0, 2}, {2, 2}, {3, 5}, {1, 7}, {5, 3}}

var allModes = []rewrite.Mode{rewrite.ModeFull, rewrite.ModeGeneralizeOnly, rewrite.ModeNone}

// eachRewrite runs the loop production runs over seq — Load, then Next and
// Rewritten per pivot — fails t at the first rewrite that differs from the
// reference's, and hands every (pivot, rewrite) to each.
func eachRewrite(t *testing.T, label string, rw *rewrite.Rewriter, ref reference, seq gsm.Sequence, each func(pivot flist.Rank, got []flist.Rank)) {
	t.Helper()
	var buf []flist.Rank
	rw.Load(seq)
	for pivot, ok := rw.Next(); ok; pivot, ok = rw.Next() {
		buf = rw.Rewritten(buf[:0])
		if want := ref.rewrite(seq, pivot); !slices.Equal(buf, want) {
			t.Fatalf("%s pivot %s:\nT    = %s\ngot  %s\nwant %s", label, ref.fl.Forest().Name(ref.fl.VocabOf(pivot)),
				gsm.String(ref.fl.Forest(), seq), rankStr(ref.fl, buf), rankStr(ref.fl, want))
		}
		each(pivot, buf)
	}
}

// Load/Next/Rewritten and the Rewrite wrapper reproduce the reference on
// every (sequence, pivot) of generated text, for every mode, with one
// Rewriter serving sequences of every length in turn.
func TestRewriteMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		db, err := datagen.GenerateText(datagen.TextConfig{Sentences: 100, Lemmas: 150, Seed: seed}).Build(datagen.HierarchyCLP)
		if err != nil {
			t.Fatal(err)
		}
		seqs := append([]gsm.Sequence{nil, {}, db.Seqs[0][:1], db.Seqs[1][:1]}, db.Seqs...)
		freq := flist.ComputeFrequencies(db)
		r := rand.New(rand.NewSource(seed))
		for _, sigma := range []int64{2, 6, 25} {
			fl, err := flist.Build(db.Forest, freq, sigma)
			if err != nil {
				t.Fatal(err)
			}
			for _, gl := range gapLengths {
				for _, mode := range allModes {
					label := fmt.Sprintf("seed %d σ=%d γ=%d λ=%d %v", seed, sigma, gl[0], gl[1], mode)
					matchesReference(t, label, reference{fl: fl, gamma: gl[0], lambda: gl[1], mode: mode}, seqs, r)
				}
			}
		}
	}
}

// matchesReference holds one Rewriter, reused across seqs, to ref through the
// production loop, and a second one through the Rewrite wrapper.
func matchesReference(t *testing.T, label string, ref reference, seqs []gsm.Sequence, r *rand.Rand) {
	t.Helper()
	fl := ref.fl
	rw := rewrite.NewRewriter(fl, ref.gamma, ref.lambda)
	rw.Mode = ref.mode
	wrapped := rewrite.NewRewriter(fl, ref.gamma, ref.lambda)
	wrapped.Mode = ref.mode
	var pivots []flist.Rank
	for _, seq := range seqs {
		pivots = pivots[:0]
		eachRewrite(t, label, rw, ref, seq, func(pivot flist.Rank, _ []flist.Rank) { pivots = append(pivots, pivot) })
		want := fl.PivotRanks(nil, seq)
		if !slices.Equal(pivots, want) {
			t.Fatalf("%s: Next gave pivots %v, PivotRanks %v", label, pivots, want)
		}

		// The wrapper: pivots in random order, among them ranks that do not
		// occur in T, into nil and into a used dst.
		probes := append(slices.Clone(want), flist.Rank(r.Intn(fl.NumFrequent())),
			flist.Rank(r.Intn(fl.NumFrequent())), flist.Rank(fl.NumFrequent()+3), flist.NoRank)
		r.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
		for _, pivot := range probes {
			var exp []flist.Rank
			if _, occurs := slices.BinarySearch(want, pivot); occurs {
				exp = ref.rewrite(seq, pivot)
			}
			if got := wrapped.Rewrite(nil, seq, pivot); !slices.Equal(got, exp) || (exp == nil) != (got == nil) {
				t.Fatalf("%s: Rewrite(nil, %s, %d) = %s, want %s", label,
					gsm.String(fl.Forest(), seq), pivot, rankStr(fl, got), rankStr(fl, exp))
			}
			dst := make([]flist.Rank, 1, 4)
			dst[0] = 99
			got := wrapped.Rewrite(dst, seq, pivot)
			if got[0] != 99 || !slices.Equal(got[1:], exp) || (exp == nil && cap(got) != cap(dst)) {
				t.Fatalf("%s: Rewrite into a used dst = %v, want 99 then %v", label, got, exp)
			}
		}
	}
}

// The production loop over a warmed-up Rewriter and dst allocates nothing —
// in particular a pivot that emits nothing hands the buffer back, capacity
// and all.
func TestRewriteLoopAllocs(t *testing.T) {
	db, err := datagen.GenerateText(datagen.TextConfig{Sentences: 200, Lemmas: 150, Seed: 5}).Build(datagen.HierarchyCLP)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := flist.Build(db.Forest, flist.ComputeFrequencies(db), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range allModes {
		rw := rewrite.NewRewriter(fl, 0, 3)
		rw.Mode = mode
		var buf []flist.Rank
		emitted, silent := 0, 0
		loop := func() {
			for _, seq := range db.Seqs {
				rw.Load(seq)
				for _, ok := rw.Next(); ok; _, ok = rw.Next() {
					buf = rw.Rewritten(buf[:0])
					if len(buf) == 0 {
						silent++
					} else {
						emitted++
					}
				}
			}
		}
		loop()
		if emitted == 0 || (mode == rewrite.ModeFull && silent == 0) {
			t.Fatalf("%v: test vacuous: %d pivots emitted, %d emitted nothing", mode, emitted, silent)
		}
		if allocs := testing.AllocsPerRun(5, loop); allocs != 0 {
			t.Errorf("%v: %.0f allocs per pass over the corpus, want 0", mode, allocs)
		}
	}
}

// FuzzRewriteWindows decodes a small forest, a database over it and (σ, γ, λ,
// mode) from the fuzzed bytes and holds the windowed rewrite to the
// reference on every (sequence, pivot); where the enumeration is affordable it
// also checks the definition: the rewritten sequence generates exactly the
// pivot sequences of T.
func FuzzRewriteWindows(f *testing.F) {
	f.Add([]byte("\x05\x00\x00\x01\x00\x00\x01\x01\x02abcab\xffbcaab\xffeeaeebee"))
	f.Add([]byte("\x09\x01\x01\x02\x00\x00\x00\x01\x02\x02\x03\x04\x05a.b..c...a....b\xffabc\xffa...c"))
	f.Add([]byte("\x03\x00\x06\x06\x00\x00\x01a" + "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb" + "a\xffab"))
	f.Add([]byte("\x07\x02\x03\x01\x01\x00\x01\x00\x03\x02\x05gfedcba\xffabcdefg\xffaaaa\xffg"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 || len(data) > 256 {
			return
		}
		n := 2 + int(data[0])%10
		sigma := 1 + int64(data[1])%3
		gamma := int(data[2]) % 7
		lambda := 2 + int(data[3])%7
		mode := allModes[int(data[4])%len(allModes)]
		data = data[5:]
		if len(data) < n-1 {
			return
		}
		b := hierarchy.NewBuilder()
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + i))
			b.Add(names[i])
		}
		for i := 1; i < n; i++ {
			if p := int(data[i-1]) % (i + 1); p < i {
				b.AddEdge(names[i], names[p])
			}
		}
		forest, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		db := &gsm.Database{Forest: forest, Seqs: []gsm.Sequence{nil}}
		for _, c := range data[n-1:] {
			if c == 0xff {
				db.Seqs = append(db.Seqs, nil)
				continue
			}
			last := &db.Seqs[len(db.Seqs)-1]
			*last = append(*last, hierarchy.Item(int(c)%n))
		}
		fl, err := flist.Build(db.Forest, flist.ComputeFrequencies(db), sigma)
		if err != nil {
			t.Fatal(err)
		}
		ref := reference{fl: fl, gamma: gamma, lambda: lambda, mode: mode}
		rw := rewrite.NewRewriter(fl, gamma, lambda)
		rw.Mode = mode
		parent := fl.ParentTable()
		label := fmt.Sprintf("σ=%d γ=%d λ=%d %v", sigma, gamma, lambda, mode)
		for _, seq := range db.Seqs {
			eachRewrite(t, label, rw, ref, seq, func(pivot flist.Rank, got []flist.Rank) {
				if len(seq) > 8 || lambda > 3 {
					return // PivotSeqSet is exponential in both
				}
				// T in rank space, every item at its closest frequent
				// ancestor: PivotSeqSet of it is G_{w,λ}(T) by definition.
				whole := make([]flist.Rank, len(seq))
				for i, w := range seq {
					whole[i] = fl.FrequentRank(w)
				}
				have := rewrite.PivotSeqSet(parent, got, pivot, gamma, lambda)
				if want := rewrite.PivotSeqSet(parent, whole, pivot, gamma, lambda); !maps.Equal(have, want) {
					t.Fatalf("%s pivot %s: P_w(T) generates %d pivot sequences, T %d\nT   = %s\nP_w = %s", label,
						forest.Name(fl.VocabOf(pivot)), len(have), len(want), gsm.String(forest, seq), rankStr(fl, got))
				}
			})
		}
	})
}
