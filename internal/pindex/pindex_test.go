package pindex

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"lash/internal/hierarchy"
)

// testForest builds the small two-level hierarchy used across the tests:
//
//	FRUIT ← apple, pear
//	VEG   ← carrot
//	tool            (root leaf)
func testForest(t *testing.T) *hierarchy.Forest {
	t.Helper()
	b := hierarchy.NewBuilder()
	b.AddEdge("apple", "FRUIT")
	b.AddEdge("pear", "FRUIT")
	b.AddEdge("carrot", "VEG")
	b.Add("tool")
	f, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func testPatterns() []Pattern {
	// Canonical order is whatever the miner emitted; supports deliberately
	// include ties so the serving tiebreak (canonical order) is exercised.
	return []Pattern{
		{Items: []string{"FRUIT"}, Support: 9},
		{Items: []string{"apple"}, Support: 5},
		{Items: []string{"pear"}, Support: 4},
		{Items: []string{"VEG"}, Support: 4},
		{Items: []string{"FRUIT", "VEG"}, Support: 3},
		{Items: []string{"apple", "VEG"}, Support: 2},
		{Items: []string{"apple", "carrot"}, Support: 2},
		{Items: []string{"tool"}, Support: 2},
		{Items: []string{"FRUIT", "carrot"}, Support: 2},
	}
}

func names(ix *Index, ids []uint32) [][]string {
	out := make([][]string, len(ids))
	for i, id := range ids {
		out[i] = ix.AppendItems(nil, id)
	}
	return out
}

func search(ix *Index, q Query) []uint32 {
	ids, _ := ix.Search(nil, q, 0, -1)
	return ids
}

func TestServingOrder(t *testing.T) {
	ix := Build(testPatterns(), testForest(t))
	if ix.Len() != 9 {
		t.Fatalf("Len = %d, want 9", ix.Len())
	}
	got := names(ix, search(ix, Query{Level: NoLevel}))
	want := [][]string{
		{"FRUIT"},           // 9
		{"apple"},           // 5
		{"pear"},            // 4, canonical before VEG
		{"VEG"},             // 4
		{"FRUIT", "VEG"},    // 3
		{"apple", "VEG"},    // 2, canonical order among the 2-support ties
		{"apple", "carrot"}, // 2
		{"tool"},            // 2
		{"FRUIT", "carrot"}, // 2
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("serving order = %v, want %v", got, want)
	}
}

func TestTopKAndOffset(t *testing.T) {
	ix := Build(testPatterns(), testForest(t))
	ids, total := ix.Search(nil, Query{Level: NoLevel}, 0, 3)
	if total != 9 || len(ids) != 3 {
		t.Fatalf("top 3: total=%d len=%d", total, len(ids))
	}
	if got := ix.AppendItems(nil, ids[0]); !reflect.DeepEqual(got, []string{"FRUIT"}) {
		t.Fatalf("top pattern = %v", got)
	}
	// Offset pagination must continue exactly where the previous page ended.
	page2, total2 := ix.Search(nil, Query{Level: NoLevel}, 3, 3)
	if total2 != 9 || len(page2) != 3 {
		t.Fatalf("page 2: total=%d len=%d", total2, len(page2))
	}
	all := search(ix, Query{Level: NoLevel})
	if !reflect.DeepEqual(page2, all[3:6]) {
		t.Fatalf("page 2 = %v, want %v", page2, all[3:6])
	}
	// Offset past the end yields an empty page but the true total.
	none, totalPast := ix.Search(nil, Query{Level: NoLevel}, 100, 5)
	if len(none) != 0 || totalPast != 9 {
		t.Fatalf("past-end page: len=%d total=%d", len(none), totalPast)
	}
}

func TestMinSupport(t *testing.T) {
	ix := Build(testPatterns(), testForest(t))
	ids, total := ix.Search(nil, Query{MinSupport: 4, Level: NoLevel}, 0, -1)
	if total != 4 || len(ids) != 4 {
		t.Fatalf("min_support=4: total=%d len=%d", total, len(ids))
	}
	for _, id := range ids {
		if ix.Support(id) < 4 {
			t.Fatalf("pattern %v support %d < 4", ix.AppendItems(nil, id), ix.Support(id))
		}
	}
}

func TestContains(t *testing.T) {
	ix := Build(testPatterns(), testForest(t))
	got := names(ix, search(ix, Query{Contains: []string{"VEG"}, Level: NoLevel}))
	want := [][]string{{"VEG"}, {"FRUIT", "VEG"}, {"apple", "VEG"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("contains=VEG: %v, want %v", got, want)
	}
	// Multi-item conjunction.
	got = names(ix, search(ix, Query{Contains: []string{"apple", "VEG"}, Level: NoLevel}))
	want = [][]string{{"apple", "VEG"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("contains=apple,VEG: %v, want %v", got, want)
	}
	// Unknown item matches nothing.
	if ids, total := ix.Search(nil, Query{Contains: []string{"nope"}, Level: NoLevel}, 0, -1); len(ids) != 0 || total != 0 {
		t.Fatalf("contains unknown item: len=%d total=%d", len(ids), total)
	}
}

func TestPrefix(t *testing.T) {
	ix := Build(testPatterns(), testForest(t))
	got := names(ix, search(ix, Query{Prefix: []string{"apple"}, Level: NoLevel}))
	// Every pattern starting with "apple", in serving order.
	want := [][]string{{"apple"}, {"apple", "VEG"}, {"apple", "carrot"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("prefix=apple: %v, want %v", got, want)
	}
	got = names(ix, search(ix, Query{Prefix: []string{"FRUIT", "VEG"}, Level: NoLevel}))
	want = [][]string{{"FRUIT", "VEG"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("prefix=FRUIT,VEG: %v, want %v", got, want)
	}
	if ids, _ := ix.Search(nil, Query{Prefix: []string{"carrot", "apple"}, Level: NoLevel}, 0, -1); len(ids) != 0 {
		t.Fatalf("absent prefix matched %d patterns", len(ids))
	}
}

func TestLevel(t *testing.T) {
	ix := Build(testPatterns(), testForest(t))
	if ix.MaxLevel() != 1 {
		t.Fatalf("MaxLevel = %d, want 1", ix.MaxLevel())
	}
	// Level 0 = fully generalized (every item a root).
	got := names(ix, search(ix, Query{Level: 0}))
	want := [][]string{{"FRUIT"}, {"VEG"}, {"FRUIT", "VEG"}, {"tool"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("level=0: %v, want %v", got, want)
	}
	// Level 1 = at least one leaf-level item.
	got = names(ix, search(ix, Query{Level: 1}))
	want = [][]string{{"apple"}, {"pear"}, {"apple", "VEG"}, {"apple", "carrot"}, {"FRUIT", "carrot"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("level=1: %v, want %v", got, want)
	}
	// A level beyond the index matches nothing.
	if ids, _ := ix.Search(nil, Query{Level: 7}, 0, -1); len(ids) != 0 {
		t.Fatalf("level=7 matched %d patterns", len(ids))
	}
}

func TestCombinedFilters(t *testing.T) {
	ix := Build(testPatterns(), testForest(t))
	got := names(ix, search(ix, Query{Contains: []string{"VEG"}, MinSupport: 3, Level: 0}))
	want := [][]string{{"VEG"}, {"FRUIT", "VEG"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("combined: %v, want %v", got, want)
	}
}

func TestLookupAndRollup(t *testing.T) {
	ix := Build(testPatterns(), testForest(t))
	id, ok := ix.Lookup([]string{"apple", "carrot"})
	if !ok {
		t.Fatal("Lookup(apple,carrot) missed")
	}
	if got := ix.AppendItems(nil, id); !reflect.DeepEqual(got, []string{"apple", "carrot"}) {
		t.Fatalf("Lookup returned %v", got)
	}
	if _, ok := ix.Lookup([]string{"carrot", "apple"}); ok {
		t.Fatal("Lookup matched a non-indexed ordering")
	}

	// apple,carrot → (generalize rightmost: carrot→VEG) apple,VEG →
	// (generalize rightmost non-root... VEG is root; apple→FRUIT) FRUIT,VEG.
	chain := ix.Rollup([]string{"apple", "carrot"})
	got := names(ix, chain)
	want := [][]string{{"apple", "carrot"}, {"apple", "VEG"}, {"FRUIT", "VEG"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rollup chain: %v, want %v", got, want)
	}
	// A fully generalized pattern rolls up to itself only.
	chain = ix.Rollup([]string{"FRUIT", "VEG"})
	if len(chain) != 1 {
		t.Fatalf("rollup of root pattern has %d entries", len(chain))
	}
	if ix.Rollup([]string{"nope"}) != nil {
		t.Fatal("rollup of unknown pattern should be nil")
	}
}

func TestEmptyAndFlat(t *testing.T) {
	ix := Build(nil, nil)
	if ix.Len() != 0 || ix.SizeBytes() < 0 {
		t.Fatalf("empty index: len=%d size=%d", ix.Len(), ix.SizeBytes())
	}
	if ids, total := ix.Search(nil, Query{Level: NoLevel}, 0, -1); len(ids) != 0 || total != 0 {
		t.Fatal("empty index matched patterns")
	}

	// nil forest: flat vocabulary, everything level 0, no rollups.
	flat := Build([]Pattern{{Items: []string{"a", "b"}, Support: 2}, {Items: []string{"a"}, Support: 3}}, nil)
	if flat.MaxLevel() != 0 {
		t.Fatalf("flat MaxLevel = %d", flat.MaxLevel())
	}
	if chain := flat.Rollup([]string{"a", "b"}); len(chain) != 1 {
		t.Fatalf("flat rollup chain len = %d", len(chain))
	}
}

func TestSizeBytesDeterministic(t *testing.T) {
	f := testForest(t)
	a := Build(testPatterns(), f)
	b := Build(testPatterns(), f)
	if a.SizeBytes() != b.SizeBytes() {
		t.Fatalf("SizeBytes not deterministic: %d vs %d", a.SizeBytes(), b.SizeBytes())
	}
	if a.SizeBytes() <= 0 {
		t.Fatalf("SizeBytes = %d, want > 0", a.SizeBytes())
	}
}

// TestWideKeys holds the lex and serving tables to their comparison-sort
// definitions where the keys outgrow one 16-bit digit: a vocabulary of more
// than 65 536 items, and supports above 2¹⁶ and above 2³², with ties. Search
// (top, min-support, prefix) and Lookup must then answer as a scan of the
// comparison-sorted tables does.
func TestWideKeys(t *testing.T) {
	const vocab = 70_000
	name := func(i int) string { return fmt.Sprintf("w%05d", i) }
	rng := rand.New(rand.NewSource(7))
	supports := []int64{1, 9, 1<<16 - 1, 1 << 16, 1<<16 + 1, 1<<32 - 1, 1 << 32, 1<<32 + 3, 1 << 40}
	support := func() int64 {
		if rng.Intn(4) == 0 {
			return 1 + rng.Int63n(1<<34)
		}
		return supports[rng.Intn(len(supports))]
	}
	// Every item once on its own, then longer patterns whose first items
	// come from a few hundred, so prefix ranges are wide.
	var pats []Pattern
	seen := map[string]bool{}
	for i := range vocab {
		pats = append(pats, Pattern{Items: []string{name(vocab - 1 - i)}, Support: support()})
	}
	for len(pats) < vocab+30_000 {
		items := []string{name(rng.Intn(300))}
		for range 1 + rng.Intn(3) {
			items = append(items, name(rng.Intn(vocab)))
		}
		if key := fmt.Sprint(items); !seen[key] {
			seen[key] = true
			pats = append(pats, Pattern{Items: items, Support: support()})
		}
	}
	ix := Build(pats, nil)
	if len(ix.names) != vocab {
		t.Fatalf("vocabulary has %d items, want %d", len(ix.names), vocab)
	}

	n := len(pats)
	lex := canonicalIDs(n)
	slices.SortFunc(lex, func(a, b uint32) int { return slices.Compare(ix.items(a), ix.items(b)) })
	if !slices.Equal(ix.lex, lex) {
		t.Fatal("lex table differs from the comparison sort")
	}
	serving := canonicalIDs(n)
	slices.SortStableFunc(serving, func(a, b uint32) int { return cmp.Compare(pats[b].Support, pats[a].Support) })
	if !slices.Equal(ix.bySupport, serving) {
		t.Fatal("serving permutation differs from the comparison sort")
	}

	scan := func(keep func(p Pattern) bool) []uint32 {
		var out []uint32
		for _, id := range serving {
			if keep(pats[id]) {
				out = append(out, id)
			}
		}
		return out
	}
	check := func(what string, q Query, limit int, want []uint32) {
		t.Helper()
		got, total := ix.Search(nil, q, 0, limit)
		if total != len(want) {
			t.Fatalf("%s: total %d, want %d", what, total, len(want))
		}
		if limit >= 0 {
			want = want[:min(limit, len(want))]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: answer differs from the scan", what)
		}
	}
	check("top-100", Query{Level: NoLevel}, 100, serving)
	check("all", Query{Level: NoLevel}, -1, serving)
	for _, s := range append(supports, 1<<33, 1<<41) {
		check(fmt.Sprintf("min_support=%d", s), Query{MinSupport: s, Level: NoLevel}, -1,
			scan(func(p Pattern) bool { return p.Support >= s }))
	}
	for _, prefix := range [][]string{{name(0)}, {name(299)}, {name(vocab - 1)}, pats[vocab+17].Items[:2]} {
		check(fmt.Sprintf("prefix=%v", prefix), Query{Prefix: prefix, Level: NoLevel}, -1,
			scan(func(p Pattern) bool {
				return len(p.Items) >= len(prefix) && slices.Equal(p.Items[:len(prefix)], prefix)
			}))
	}
	for id, p := range pats {
		if got, ok := ix.Lookup(p.Items); !ok || got != uint32(id) {
			t.Fatalf("Lookup(%v) = %d, %v; want %d", p.Items, got, ok, id)
		}
	}
	if _, ok := ix.Lookup([]string{name(vocab - 1), name(0), name(0), name(0), name(0)}); ok {
		t.Fatal("Lookup found a pattern that was never indexed")
	}
}

// buildLarge synthesizes n patterns over a sized vocabulary with collision-free
// sequences, supports drawn deterministically.
func buildLarge(n int) *Index {
	rng := rand.New(rand.NewSource(42))
	pats := make([]Pattern, 0, n)
	seen := make(map[string]bool, n)
	for len(pats) < n {
		l := 1 + rng.Intn(4)
		items := make([]string, l)
		for i := range items {
			items[i] = fmt.Sprintf("item%04d", rng.Intn(2000))
		}
		key := fmt.Sprint(items)
		if seen[key] {
			continue
		}
		seen[key] = true
		pats = append(pats, Pattern{Items: items, Support: int64(1 + rng.Intn(1000))})
	}
	// Canonical order: length, then lex — mirror gsm.SortPatterns closely
	// enough for index purposes (any deterministic order works).
	sort.Slice(pats, func(i, j int) bool {
		if len(pats[i].Items) != len(pats[j].Items) {
			return len(pats[i].Items) < len(pats[j].Items)
		}
		for k := range pats[i].Items {
			if pats[i].Items[k] != pats[j].Items[k] {
				return pats[i].Items[k] < pats[j].Items[k]
			}
		}
		return false
	})
	return Build(pats, nil)
}

// largeIndex is the 100k-pattern index the cost-model tests share.
var largeIndex = sync.OnceValue(func() *Index { return buildLarge(100_000) })

// largeExtension is largeIndex's next version: every 50th pattern's support
// raised, and 200 patterns inserted, half of them over items the base lacks.
var largeExtension = sync.OnceValue(func() *Index {
	base := largeIndex()
	var changes []Change
	p := uint32(0)
	for c := range uint32(base.Len() + 200) {
		if c%500 == 250 {
			items := []string{"item0007", fmt.Sprintf("new%03d", c/500)}
			if c%1000 == 250 {
				items[1] = fmt.Sprintf("item%04d", c/1000)
			}
			changes = append(changes, Change{ID: c, Inserted: true, Pattern: Pattern{Items: items, Support: int64(c % 997)}})
			continue
		}
		if p%50 == 0 {
			changes = append(changes, Change{ID: c, Pattern: Pattern{Items: base.AppendItems(nil, p), Support: base.Support(p) + 3}})
		}
		p++
	}
	ix, err := Extend(base, changes, nil)
	if err != nil {
		panic(err)
	}
	return ix
})

// TestQueryAllocsBound is the regression test for the serving path's cost
// model: on a 100k-pattern index every query kind runs out of the caller's
// dst alone. Permutation walks and single-term queries copy a window of one
// immutable list, multi-term queries intersect on the fly, and a prefix
// query keeps its bounded selection inside dst — so with a dst of capacity
// offset+limit nothing allocates, whatever the size of the index or of the
// lists the terms name. An extension of it merges its base's answer with
// its overlay's within the same bound.
func TestQueryAllocsBound(t *testing.T) {
	for _, ix := range []*Index{largeIndex(), largeExtension()} {
		queryAllocs(t, ix)
	}
	if ix := largeExtension(); ix.Base() != largeIndex() || ix.Len() != 100_200 {
		t.Fatalf("the extension holds %d patterns over base %p", ix.Len(), ix.Base())
	}
}

func queryAllocs(t *testing.T, ix *Index) {
	if ix.Len() < 100_000 {
		t.Fatalf("built %d patterns", ix.Len())
	}
	dst := make([]uint32, 0, 256)

	measure := func(name string, q Query, offset int) {
		t.Helper()
		got := testing.AllocsPerRun(100, func() {
			dst, _ = ix.Search(dst[:0], q, offset, 100)
		})
		if got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, got)
		}
		if len(dst) == 0 {
			t.Errorf("%s: matched nothing; the bound would be vacuous", name)
		}
	}

	measure("top-100", Query{Level: NoLevel}, 0)
	measure("min_support", Query{MinSupport: 500, Level: NoLevel}, 0)
	measure("contains", Query{Contains: []string{"item0007"}, Level: NoLevel}, 0)
	measure("contains x2", Query{Contains: []string{"item0007", "item0123"}, Level: NoLevel}, 0)
	measure("level", Query{Level: 0}, 50)
	measure("prefix", Query{Prefix: []string{"item0007"}, Level: NoLevel}, 0)
	measure("prefix paged", Query{Prefix: []string{"item0007"}, Level: NoLevel}, 20)
	measure("combined", Query{Contains: []string{"item0007"}, MinSupport: 100, Level: NoLevel}, 0)
	measure("prefix combined", Query{Prefix: []string{"item0007"}, Contains: []string{"item0007"}, MinSupport: 100, Level: 0}, 0)
	measure("deep page", Query{Level: NoLevel}, 50_000)
}

// TestPrefixSelection pins the bounded selection behind prefix queries
// against the full answer: every (offset, limit) window over a range much
// larger than the window — so the heap fills, evicts and is sorted — must be
// that window of the unlimited result, appended after dst's existing
// contents, with the exact total.
func TestPrefixSelection(t *testing.T) {
	ix := largeIndex()
	q := Query{Prefix: []string{"item0007"}, Level: NoLevel}
	all, total := ix.Search(nil, q, 0, -1)
	if total != len(all) || total < 8 {
		t.Fatalf("prefix range has %d of %d patterns; need a range worth selecting from", len(all), total)
	}
	for i := 1; i < len(all); i++ {
		if ix.rank[all[i-1]] >= ix.rank[all[i]] {
			t.Fatalf("unlimited prefix answer not in serving order at %d", i)
		}
	}
	keep := []uint32{7, 7, 7}
	for _, limit := range []int{0, 1, 2, 3, total - 1, total, total + 5, -1} {
		for _, offset := range []int{0, 1, 2, total / 2, total - 1, total, total + 3} {
			got, gotTotal := ix.Search(append([]uint32(nil), keep...), q, offset, limit)
			want := all[min(offset, total):]
			if limit >= 0 {
				want = want[:min(limit, len(want))]
			}
			if gotTotal != total {
				t.Errorf("offset=%d limit=%d: total %d, want %d", offset, limit, gotTotal, total)
			}
			if !reflect.DeepEqual(got[:3], keep) || !reflect.DeepEqual(append([]uint32{}, got[3:]...), append([]uint32{}, want...)) {
				t.Errorf("offset=%d limit=%d: got %v, want %v after %v", offset, limit, got, want, keep)
			}
		}
	}
}
