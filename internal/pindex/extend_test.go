package pindex

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"lash/internal/hierarchy"
)

// versions generates a lineage of pattern sets the way a resumed mine
// produces one: every version keeps the previous version's patterns in
// canonical order (by length, then by item names), raises some of their
// supports and inserts new patterns in place, some over items no earlier
// version used.
type versions struct {
	rng  *rand.Rand
	f    *hierarchy.Forest
	vals []string // the forest's items; the first `used` of them occur in patterns so far
	used int
	pats []Pattern
	keys map[string]bool
}

func newVersions(seed int64, items, initial int) *versions {
	rng := rand.New(rand.NewSource(seed))
	b := hierarchy.NewBuilder()
	vals := make([]string, items)
	for i := range vals {
		vals[i] = fmt.Sprintf("x%d", i)
		if i > 0 && rng.Intn(3) > 0 {
			b.AddEdge(vals[i], vals[rng.Intn(i)])
		} else {
			b.Add(vals[i])
		}
	}
	f, err := b.Build()
	if err != nil {
		panic(err)
	}
	v := &versions{rng: rng, f: f, vals: vals, used: max(1, items/2), keys: map[string]bool{}}
	for range initial {
		v.insert()
	}
	return v
}

// before is canonical order over names: by length, then lexicographically.
func before(a, b []string) int {
	if len(a) != len(b) {
		return len(a) - len(b)
	}
	return slices.Compare(a, b)
}

// insert adds one new pattern at its canonical place and returns that place,
// or -1 when the draw was a pattern the set already holds.
func (v *versions) insert() int {
	items := make([]string, 1+v.rng.Intn(3))
	for i := range items {
		items[i] = v.vals[v.rng.Intn(v.used)]
	}
	key := strings.Join(items, " ")
	if v.keys[key] {
		return -1
	}
	v.keys[key] = true
	at, _ := slices.BinarySearchFunc(v.pats, items, func(p Pattern, items []string) int { return before(p.Items, items) })
	v.pats = slices.Insert(v.pats, at, Pattern{Items: items, Support: 1 + v.rng.Int63n(20)})
	return at
}

// next makes the next version — raising about raises of the patterns' supports
// and inserting about inserts new ones, some over a newly used item — and
// returns the changes that lead to it.
func (v *versions) next(raises, inserts int) []Change {
	if v.used < len(v.vals) && v.rng.Intn(2) == 0 {
		v.used++
	}
	inserted := map[string]bool{}
	for range inserts {
		if at := v.insert(); at >= 0 {
			inserted[strings.Join(v.pats[at].Items, " ")] = true
		}
	}
	raised := map[int]bool{}
	for range raises {
		if len(v.pats) > 0 {
			i := v.rng.Intn(len(v.pats))
			v.pats[i].Support += 1 + v.rng.Int63n(5)
			raised[i] = true
		}
	}
	var changes []Change
	for i, p := range v.pats {
		ins := inserted[strings.Join(p.Items, " ")]
		if ins || raised[i] {
			changes = append(changes, Change{ID: uint32(i), Inserted: ins, Pattern: p})
		}
	}
	return changes
}

// sameAnswers holds got to a fresh Build of the same version (want) on every
// query kind, paged, and on the canonical walk.
func sameAnswers(t testing.TB, got, want *Index, pats []Pattern) {
	t.Helper()
	if got.Len() != want.Len() || got.MaxLevel() != want.MaxLevel() {
		t.Fatalf("Len %d MaxLevel %d, want %d and %d", got.Len(), got.MaxLevel(), want.Len(), want.MaxLevel())
	}
	for id := range uint32(want.Len()) {
		if g, w := got.AppendItems(nil, id), want.AppendItems(nil, id); !slices.Equal(g, w) || got.Support(id) != want.Support(id) {
			t.Fatalf("canonical id %d: %v=%d, want %v=%d", id, g, got.Support(id), w, want.Support(id))
		}
	}
	check := func(q Query) {
		t.Helper()
		all, total := want.Search(nil, q, 0, -1)
		for _, page := range [][2]int{{0, -1}, {0, 1}, {1, 2}, {total / 2, 3}, {total, 2}, {total + 1, 1}, {0, 0}, {total - 1, 5}} {
			g, gt := got.Search([]uint32{7}, q, page[0], page[1])
			w := all[min(max(page[0], 0), total):]
			if page[1] >= 0 {
				w = w[:min(page[1], len(w))]
			}
			if gt != total || g[0] != 7 || !slices.Equal(g[1:], w) {
				t.Fatalf("query %+v offset %d limit %d: %v (total %d), want %v (total %d)", q, page[0], page[1], g[1:], gt, w, total)
			}
		}
	}
	none := Query{Level: NoLevel}
	check(none)
	supports := map[int64]bool{}
	for _, p := range pats {
		supports[p.Support] = true
	}
	for s := range supports {
		check(Query{MinSupport: s, Level: NoLevel})
		check(Query{MinSupport: s + 1, Level: NoLevel})
	}
	for lvl := 0; lvl <= want.MaxLevel()+1; lvl++ {
		check(Query{Level: lvl})
	}
	for i, p := range pats {
		if i%3 != 0 {
			continue
		}
		mid := Query{MinSupport: p.Support, Level: NoLevel}
		check(Query{Contains: p.Items[:1], Level: NoLevel})
		check(Query{Contains: p.Items, Level: NoLevel})
		check(Query{Prefix: p.Items[:1], Level: NoLevel})
		check(Query{Prefix: p.Items, Level: NoLevel})
		mid.Prefix = p.Items[:1]
		check(mid)
		mid.Prefix, mid.Contains = nil, p.Items[len(p.Items)-1:]
		check(mid)
		check(Query{Contains: p.Items[:1], Level: i % 3})
		check(Query{Prefix: p.Items[:1], Contains: p.Items[len(p.Items)-1:], Level: i % 4, MinSupport: p.Support / 2})
	}
	check(Query{Contains: []string{"never"}, Level: NoLevel})
	check(Query{Prefix: []string{"never"}, Level: NoLevel})
	for _, p := range pats {
		g, gok := got.Lookup(p.Items)
		w, wok := want.Lookup(p.Items)
		if g != w || gok != wok || !wok {
			t.Fatalf("Lookup(%v) = %d %v, want %d %v", p.Items, g, gok, w, wok)
		}
		if g, w := got.Rollup(p.Items), want.Rollup(p.Items); !slices.Equal(g, w) {
			t.Fatalf("Rollup(%v) = %v, want %v", p.Items, g, w)
		}
	}
	if got.Rollup([]string{"never"}) != nil {
		t.Fatal("Rollup of an unknown item answered")
	}
}

// TestExtendChain walks a 30-version lineage, each version extending the
// previous version's index, through overlays that merge and through
// compactions: at every version the extension answers what a fresh Build
// does, and a base is shared until a compaction replaces it.
func TestExtendChain(t *testing.T) {
	v := newVersions(1, 40, 400)
	ix := Build(v.pats, v.f)
	overlays, compactions := 0, 0
	for step := range 30 {
		changes := v.next(6, 3)
		prev := ix
		var err error
		if ix, err = Extend(prev, changes, v.f); err != nil {
			t.Fatalf("version %d: %v", step+1, err)
		}
		switch {
		case ix.Base() != ix:
			overlays++
			if ix.Base() != prev.Base() {
				t.Fatalf("version %d: an overlay that does not share its predecessor's base", step+1)
			}
			if ix.ov.part.Len()*compactShare > ix.Base().Len() {
				t.Fatalf("version %d: overlay of %d patterns over a base of %d", step+1, ix.ov.part.Len(), ix.Base().Len())
			}
		case len(changes) > 0:
			compactions++
		}
		sameAnswers(t, ix, Build(v.pats, v.f), v.pats)
	}
	if overlays == 0 || compactions == 0 {
		t.Fatalf("%d overlays and %d compactions; the chain must cross both", overlays, compactions)
	}
}

// TestExtendRejects: changes that cannot lead from the earlier version are
// an error, never a wrong index.
func TestExtendRejects(t *testing.T) {
	ix := Build(testPatterns(), testForest(t))
	for name, changes := range map[string][]Change{
		"unordered":       {{ID: 3, Pattern: testPatterns()[3]}, {ID: 1, Pattern: testPatterns()[1]}},
		"past the end":    {{ID: 9, Pattern: Pattern{Items: []string{"tool"}, Support: 3}}},
		"other items":     {{ID: 2, Pattern: Pattern{Items: []string{"apple"}, Support: 7}}},
		"unknown item":    {{ID: 2, Pattern: Pattern{Items: []string{"plum"}, Support: 7}}},
		"inserted at end": {{ID: 10, Inserted: true, Pattern: Pattern{Items: []string{"plum"}, Support: 7}}},
	} {
		if _, err := Extend(ix, changes, testForest(t)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	if got, err := Extend(ix, nil, nil); got != ix || err != nil {
		t.Errorf("no changes: %p, %v; want the index itself", got, err)
	}
}

// FuzzIndexExtend generates a pattern set and a chain of versions — support
// raises and insertions, some over new items — each extending the previous
// version's index, so that overlays merge and, past the compaction
// threshold, give way to full indexes. Every version must answer every
// query kind, and the canonical walk, as a fresh Build does.
func FuzzIndexExtend(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(5), uint8(3), uint8(2))
	f.Add(int64(2), uint8(8), uint8(1), uint8(1), uint8(6))
	f.Add(int64(3), uint8(200), uint8(30), uint8(10), uint8(4))
	f.Add(int64(4), uint8(0), uint8(0), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, initial, raises, inserts, steps uint8) {
		v := newVersions(seed, 4+int(seed&15), int(initial))
		ix := Build(v.pats, v.f)
		for step := range int(steps % 8) {
			changes := v.next(int(raises%40), int(inserts%12))
			var err error
			if ix, err = Extend(ix, changes, v.f); err != nil {
				t.Fatalf("version %d: %v", step+1, err)
			}
			sameAnswers(t, ix, Build(v.pats, v.f), v.pats)
		}
	})
}
