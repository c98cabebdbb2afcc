package lash_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"lash"
	"lash/internal/pindex"
)

// The serving-index differential: every query the pattern index answers —
// plain listing, top-k, min-support, contains, prefix, level, roll-up, and
// paginated slices of any of them — must be byte-identical to a naive
// scan-and-filter over Result.Patterns, across generated corpora (both
// datagen families), seeds, and all five algorithms. This is the guarantee
// the serving tier rests on: moving GET /v1/patterns from a linear scan to
// the index changed the data structure, never the answers.

// refPattern is the reference's view of one mined pattern.
type refPattern struct {
	items   []string
	support int64
	level   int // max hierarchy level over the items
}

func (p refPattern) key() string {
	return fmt.Sprintf("%s=%d", strings.Join(p.items, " "), p.support)
}

// refIndex is the naive reference: the full pattern list in serving order
// (support descending, ties in canonical mining order) plus just enough
// side tables to mirror the index's hierarchy semantics.
type refIndex struct {
	serving []refPattern
	vocab   map[string]bool   // items occurring in any pattern
	parent  map[string]string // item → hierarchy parent (from the database)
	byKey   map[string]bool   // "items" → exists
}

func newRefIndex(db *lash.Database, res *lash.Result) *refIndex {
	ref := &refIndex{
		vocab:  map[string]bool{},
		parent: map[string]string{},
		byKey:  map[string]bool{},
	}
	for _, p := range res.Patterns {
		lvl := 0
		for _, it := range p.Items {
			if l := db.ItemLevel(it); l > lvl {
				lvl = l
			}
			ref.vocab[it] = true
			if par, ok := db.ItemParent(it); ok {
				ref.parent[it] = par
			}
		}
		ref.serving = append(ref.serving, refPattern{items: p.Items, support: p.Support, level: lvl})
		ref.byKey[strings.Join(p.Items, "\x00")] = true
	}
	// res.Patterns is canonical order; a stable sort by support descending is
	// exactly the serving order the index promises.
	slices.SortStableFunc(ref.serving, func(a, b refPattern) int {
		switch {
		case a.support > b.support:
			return -1
		case a.support < b.support:
			return 1
		}
		return 0
	})
	return ref
}

// filter scans serving order and keeps every pattern matching the query —
// the O(n · len) baseline the index must reproduce.
func (ref *refIndex) filter(q pindex.Query) []refPattern {
	var out []refPattern
	for _, p := range ref.serving {
		if q.MinSupport > 0 && p.support < q.MinSupport {
			continue
		}
		if q.Level != pindex.NoLevel && p.level != q.Level {
			continue
		}
		if len(q.Prefix) > 0 {
			if len(p.items) < len(q.Prefix) || !slices.Equal(p.items[:len(q.Prefix)], q.Prefix) {
				continue
			}
		}
		containsAll := true
		for _, want := range q.Contains {
			if !slices.Contains(p.items, want) {
				containsAll = false
				break
			}
		}
		if !containsAll {
			continue
		}
		out = append(out, p)
	}
	return out
}

// rollup mirrors the index's roll-up rule: the chain starts at the pattern
// itself; each step generalizes the rightmost item whose hierarchy parent
// occurs in the pattern vocabulary, and continues only if the generalized
// pattern was itself mined.
func (ref *refIndex) rollup(items []string) [][]string {
	if !ref.byKey[strings.Join(items, "\x00")] {
		return nil
	}
	chain := [][]string{items}
	cur := items
	for {
		next, ok := ref.parentOf(cur)
		if !ok {
			return chain
		}
		chain = append(chain, next)
		cur = next
	}
}

func (ref *refIndex) parentOf(items []string) ([]string, bool) {
	for j := len(items) - 1; j >= 0; j-- {
		par, ok := ref.parent[items[j]]
		if !ok || !ref.vocab[par] {
			continue
		}
		cand := slices.Clone(items)
		cand[j] = par
		if ref.byKey[strings.Join(cand, "\x00")] {
			return cand, true
		}
		return nil, false // rightmost generalizable item decided; no fallback
	}
	return nil, false
}

// renderIDs materializes index search results for comparison.
func renderIDs(ix *pindex.Index, ids []uint32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = fmt.Sprintf("%s=%d", strings.Join(ix.AppendItems(nil, id), " "), ix.Support(id))
	}
	return out
}

func renderRef(pats []refPattern) []string {
	out := make([]string, len(pats))
	for i, p := range pats {
		out[i] = p.key()
	}
	return out
}

// checkQuery compares one query end to end: full result set, total, and a
// few paginated slices.
func checkQuery(t *testing.T, ix *pindex.Index, ref *refIndex, name string, q pindex.Query) {
	t.Helper()
	want := renderRef(ref.filter(q))
	ids, total := ix.Search(nil, q, 0, -1)
	got := renderIDs(ix, ids)
	if total != len(want) {
		t.Errorf("%s: total = %d, want %d", name, total, len(want))
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s: index answer diverges from scan\n  got  %v\n  want %v", name, got, want)
		return
	}
	// Paginated slices must be windows of the same sequence.
	for _, page := range []struct{ offset, limit int }{
		{0, 1}, {1, 2}, {len(want) / 2, 3}, {len(want), 5}, {len(want) + 3, 2},
		{0, 0}, {len(want) / 2, 0}, {0, len(want)}, {1, len(want) + 7},
	} {
		ids, total := ix.Search(nil, q, page.offset, page.limit)
		if total != len(want) {
			t.Errorf("%s offset=%d limit=%d: total = %d, want %d", name, page.offset, page.limit, total, len(want))
		}
		end := page.offset + page.limit
		if page.offset > len(want) {
			end = page.offset
		} else if end > len(want) {
			end = len(want)
		}
		var wantPage []string
		if page.offset < len(want) {
			wantPage = want[page.offset:end]
		}
		if !slices.Equal(renderIDs(ix, ids), wantPage) {
			t.Errorf("%s offset=%d limit=%d: page = %v, want %v", name, page.offset, page.limit, renderIDs(ix, ids), wantPage)
		}
	}
}

func diffDatabases(t *testing.T, seed int64) map[string]*lash.Database {
	t.Helper()
	text, err := lash.GenerateTextDatabase(lash.TextConfig{Sentences: 150, Lemmas: 300, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	market, err := lash.GenerateMarketDatabase(lash.MarketConfig{Users: 150, Products: 300, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*lash.Database{"text": text, "market": market}
}

func TestPindexDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for corpus, db := range diffDatabases(t, seed) {
			for _, alg := range chaosAlgorithms {
				t.Run(fmt.Sprintf("seed%d/%s/%s", seed, corpus, alg), func(t *testing.T) {
					res, err := lash.Mine(db, lash.Options{
						MinSupport: 5, MaxGap: 1, MaxLength: 3, Algorithm: alg,
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Patterns) == 0 {
						t.Fatal("corpus mined no patterns; differential has nothing to compare")
					}
					ix := res.Index()
					ref := newRefIndex(db, res)

					none := pindex.Query{Level: pindex.NoLevel}
					checkQuery(t, ix, ref, "plain", none)

					// Support thresholds: around every distinct support value,
					// including one above the maximum (empty result).
					supports := map[int64]bool{}
					for _, p := range ref.serving {
						supports[p.support] = true
					}
					for s := range supports {
						q := none
						q.MinSupport = s
						checkQuery(t, ix, ref, fmt.Sprintf("min_support=%d", s), q)
						q.MinSupport = s + 1
						checkQuery(t, ix, ref, fmt.Sprintf("min_support=%d", s+1), q)
					}

					// Contains/prefix terms drawn from real patterns (plus
					// unknown-item probes), sampled across the serving order.
					for i := 0; i < len(ref.serving); i += 1 + len(ref.serving)/7 {
						p := ref.serving[i]
						q := none
						q.Contains = p.items[:1]
						checkQuery(t, ix, ref, "contains:"+p.key(), q)
						q.Contains = p.items
						checkQuery(t, ix, ref, "contains-all:"+p.key(), q)
						q = none
						q.Prefix = p.items[:1]
						checkQuery(t, ix, ref, "prefix1:"+p.key(), q)
						q.Prefix = p.items
						checkQuery(t, ix, ref, "prefix-all:"+p.key(), q)
					}
					unknown := none
					unknown.Contains = []string{"no-such-item-ever"}
					checkQuery(t, ix, ref, "contains-unknown", unknown)
					unknown.Contains = nil
					unknown.Prefix = []string{"no-such-item-ever"}
					checkQuery(t, ix, ref, "prefix-unknown", unknown)

					// Every pattern level, one past the top, and combinations.
					for lvl := 0; lvl <= ix.MaxLevel()+1; lvl++ {
						q := none
						q.Level = lvl
						checkQuery(t, ix, ref, fmt.Sprintf("level=%d", lvl), q)
					}
					mid := ref.serving[len(ref.serving)/2]
					combo := pindex.Query{
						MinSupport: mid.support, Contains: mid.items[:1], Level: mid.level,
					}
					checkQuery(t, ix, ref, "combo:"+mid.key(), combo)
					combo = pindex.Query{MinSupport: mid.support, Prefix: mid.items[:1], Level: pindex.NoLevel}
					checkQuery(t, ix, ref, "combo-prefix:"+mid.key(), combo)

					// A prefix term drives the query from its lex range and
					// turns every other term into a per-pattern predicate:
					// cross it with each of them, on the widest prefix range
					// the result has (so pages are real windows) and on the
					// sampled patterns' own.
					first := map[string]int{}
					widest := ref.serving[0].items[0]
					for _, p := range ref.serving {
						first[p.items[0]]++
						if first[p.items[0]] > first[widest] {
							widest = p.items[0]
						}
					}
					prefixes := [][]string{{widest}}
					for i := 0; i < len(ref.serving); i += 1 + len(ref.serving)/5 {
						prefixes = append(prefixes, ref.serving[i].items[:1])
					}
					for _, prefix := range prefixes {
						name := "prefix=" + prefix[0]
						q := none
						q.Prefix = prefix
						in := ref.filter(q)
						pm := in[len(in)/2]
						q.MinSupport = pm.support
						checkQuery(t, ix, ref, name+"×min_support", q)
						q.MinSupport = in[0].support + 1
						checkQuery(t, ix, ref, name+"×min_support-above", q)
						q.MinSupport = 0
						q.Contains = pm.items[len(pm.items)-1:]
						checkQuery(t, ix, ref, name+"×contains", q)
						q.Contains = append([]string{prefix[0]}, pm.items...)
						checkQuery(t, ix, ref, name+"×contains-many", q)
						q.Contains = nil
						for lvl := 0; lvl <= ix.MaxLevel()+1; lvl++ {
							q.Level = lvl
							checkQuery(t, ix, ref, fmt.Sprintf("%s×level=%d", name, lvl), q)
						}
						q.MinSupport, q.Contains, q.Level = pm.support, pm.items[:1], pm.level
						checkQuery(t, ix, ref, name+"×all", q)
					}

					// Roll-up chains, for a sample of patterns and one miss.
					for i := 0; i < len(ref.serving); i += 1 + len(ref.serving)/11 {
						p := ref.serving[i]
						wantChain := ref.rollup(p.items)
						gotIDs := ix.Rollup(p.items)
						var got [][]string
						for _, id := range gotIDs {
							got = append(got, ix.AppendItems(nil, id))
						}
						if len(got) != len(wantChain) {
							t.Errorf("rollup %v: chain %v, want %v", p.items, got, wantChain)
							continue
						}
						for j := range got {
							if !slices.Equal(got[j], wantChain[j]) {
								t.Errorf("rollup %v: step %d = %v, want %v", p.items, j, got[j], wantChain[j])
							}
						}
					}
					if ix.Rollup([]string{"no-such-item-ever"}) != nil {
						t.Error("rollup of an unmined pattern returned a chain")
					}
				})
			}
		}
	}
}

// sameIndex holds an extended index to a full build of the same result on
// every query kind — paged — on the canonical walk, and on Lookup and
// Rollup for a sample of patterns.
func sameIndex(t *testing.T, got, want *pindex.Index, pats []lash.Pattern) {
	t.Helper()
	if got.Len() != want.Len() || got.MaxLevel() != want.MaxLevel() {
		t.Fatalf("Len %d MaxLevel %d, want %d and %d", got.Len(), got.MaxLevel(), want.Len(), want.MaxLevel())
	}
	if !slices.Equal(renderIDs(got, canonicalIDs(got.Len())), renderIDs(want, canonicalIDs(want.Len()))) {
		t.Fatal("canonical walk differs from the full build's")
	}
	check := func(q pindex.Query) {
		t.Helper()
		all, total := want.Search(nil, q, 0, -1)
		for _, page := range [][2]int{{0, -1}, {0, 100}, {total / 3, 7}, {total - 1, 5}, {total + 1, 1}} {
			g, gt := got.Search(nil, q, page[0], page[1])
			w := all[min(max(page[0], 0), total):]
			if page[1] >= 0 {
				w = w[:min(page[1], len(w))]
			}
			if gt != total || !slices.Equal(g, w) {
				t.Fatalf("query %+v offset %d limit %d: %d of %d, want %d of %d", q, page[0], page[1], len(g), gt, len(w), total)
			}
		}
	}
	none := pindex.Query{Level: pindex.NoLevel}
	check(none)
	for lvl := 0; lvl <= want.MaxLevel()+1; lvl++ {
		check(pindex.Query{Level: lvl})
	}
	for i := 0; i < len(pats); i += 1 + len(pats)/40 {
		p := pats[i]
		check(pindex.Query{MinSupport: p.Support, Level: pindex.NoLevel})
		check(pindex.Query{Contains: p.Items[:1], Level: pindex.NoLevel})
		check(pindex.Query{Contains: p.Items, Level: pindex.NoLevel})
		check(pindex.Query{Prefix: p.Items[:1], Level: pindex.NoLevel})
		check(pindex.Query{Prefix: p.Items, Level: pindex.NoLevel})
		check(pindex.Query{Prefix: p.Items[:1], Contains: p.Items[len(p.Items)-1:], MinSupport: p.Support, Level: i % 3})
		check(pindex.Query{Contains: p.Items[len(p.Items)-1:], MinSupport: p.Support / 2, Level: i % 3})
		g, gok := got.Lookup(p.Items)
		w, wok := want.Lookup(p.Items)
		if g != w || gok != wok || !wok {
			t.Fatalf("Lookup(%v) = %d %v, want %d %v", p.Items, g, gok, w, wok)
		}
		if g, w := got.Rollup(p.Items), want.Rollup(p.Items); !slices.Equal(g, w) {
			t.Fatalf("Rollup(%v) = %v, want %v", p.Items, g, w)
		}
	}
}

func canonicalIDs(n int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	return ids
}

// TestPindexExtendChain: along a 24-version lineage of alternating zipf
// appends (the corpus's own sentences) and topical ones (new items), each
// version resumed from the last and its index extending the last version's,
// every version's index answers as a full build of its result does. Most
// versions are overlays over a shared base, and the overlay's growth
// crosses the compaction threshold at least once, after which the full
// index that replaced it is the base later versions share.
func TestPindexExtendChain(t *testing.T) {
	db, err := lash.GenerateTextDatabase(lash.TextConfig{Sentences: 800, Lemmas: 150, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	opt := lash.Options{MinSupport: 8, MaxGap: 1, MaxLength: 3}
	res, err := lash.Mine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	prev := res.Index()
	overlays, compactions := 0, 0
	for v := 1; v <= 24; v++ {
		var extra [][]string
		n := 2
		if v%2 == 0 { // topical: new items, each pair frequent
			n = 0
			for j := range 3 * int(opt.MinSupport) {
				extra = append(extra, []string{fmt.Sprintf("topic%d_%d", v, j%3), fmt.Sprintf("topic%d_%d", v, j%3+1)})
			}
		}
		if db, err = db.Append(fragmentOf(t, db, v*37, n, extra)); err != nil {
			t.Fatal(err)
		}
		resume := opt
		resume.Resume = res.State
		if res, err = lash.Mine(db, resume); err != nil {
			t.Fatal(err)
		}
		ix := res.Index()
		switch {
		case ix.Base() == prev.Base() && ix != prev:
			overlays++
		case ix.Base() == ix && prev.Base() != prev:
			compactions++
		}
		sameIndex(t, ix, res.FullIndex(), res.Patterns)
		prev = ix
	}
	if overlays < 12 || compactions == 0 {
		t.Fatalf("%d overlays and %d compactions in 24 versions; want most versions overlays, and a compaction", overlays, compactions)
	}
	t.Logf("%d overlays, %d compactions, %d patterns at the end", overlays, compactions, prev.Len())
}

// TestIndexConcurrentExtend: a resumed result's Index may run while the
// result it resumed from is still building its own, from any number of
// goroutines at once. Every caller gets the one memoized index, which
// either extends the source's or, when that was not built yet, is a full
// build; both answer as the full build does.
func TestIndexConcurrentExtend(t *testing.T) {
	db, err := lash.GenerateTextDatabase(lash.TextConfig{Sentences: 300, Lemmas: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opt := lash.Options{MinSupport: 4, MaxGap: 1, MaxLength: 3}
	cold, err := lash.Mine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if db, err = db.Append(fragmentOf(t, db, 5, 3, nil)); err != nil {
		t.Fatal(err)
	}
	resume := opt
	resume.Resume = cold.State
	next, err := lash.Mine(db, resume)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]*pindex.Index, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				cold.Index()
			}
			got[i] = next.Index()
		}()
	}
	wg.Wait()
	for _, ix := range got {
		if ix != got[0] {
			t.Fatal("callers got different indexes")
		}
	}
	if b := got[0].Base(); b != got[0] && b != cold.Index() {
		t.Fatal("the index extends a base that is not the resumed result's")
	}
	sameIndex(t, got[0], next.FullIndex(), next.Patterns)
}
