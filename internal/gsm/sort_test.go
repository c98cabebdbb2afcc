package gsm_test

import (
	"math"
	"slices"
	"testing"

	"lash/internal/gsm"
	"lash/internal/hierarchy"
)

// compareCanonical is the canonical order as a comparison: by length, then
// lexicographically by item id.
func compareCanonical(a, b gsm.Sequence) int {
	if len(a) != len(b) {
		return len(a) - len(b)
	}
	return slices.Compare(a, b)
}

// fuzzDup and up, as a pattern's header byte, repeat an earlier pattern.
const fuzzDup = 0xf0

// decodeFuzzPatterns reads a pattern list from fuzzed bytes. Per pattern, a
// header byte h: from fuzzDup up it repeats an earlier pattern's items, else
// h%9 items follow, two bytes each — a selector picking the id's range (below
// 2⁸, straddling 2¹⁶, up to 2²⁸, or just below MaxUint32) and a value within
// it. Every pattern's support is its input position, so a stable sort's tie
// order is observable.
func decodeFuzzPatterns(data []byte) []gsm.Pattern {
	var ps []gsm.Pattern
	for len(data) > 0 {
		h := data[0]
		data = data[1:]
		if h >= fuzzDup && len(ps) > 0 {
			items := ps[int(h-fuzzDup)%len(ps)].Items
			ps = append(ps, gsm.Pattern{Items: items, Support: int64(len(ps))})
			continue
		}
		items := make(gsm.Sequence, 0, h%9)
		for range h % 9 {
			if len(data) < 2 {
				break
			}
			sel, v := data[0], hierarchy.Item(data[1])
			data = data[2:]
			switch sel % 4 {
			case 0:
				items = append(items, v)
			case 1:
				items = append(items, 1<<16-128+v)
			case 2:
				items = append(items, hierarchy.Item(sel)<<20|v)
			default:
				items = append(items, math.MaxUint32-1-v)
			}
		}
		ps = append(ps, gsm.Pattern{Items: items, Support: int64(len(ps))})
	}
	return ps
}

// FuzzSortPatterns holds gsm.SortPatterns to the comparison-sort definition
// of the canonical order, stability included: on every fuzzed list — lengths
// 0–8, duplicates, ids on both sides of 2¹⁶ and up to MaxUint32−1 — it must
// produce exactly what a stable comparison sort by (length, items) does.
func FuzzSortPatterns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 3, 0, 1, 1, 0, 0, 1})
	f.Add([]byte{1, 1, 128, 1, 0, 5, 1, 3, 0, 1, 2, 9}) // ids that differ only above 2⁸
	f.Add([]byte{3, 1, 127, 1, 128, 1, 129, 0xf0, 2, 3, 5, 2, 9, 0, 0xf1})
	f.Add([]byte{8, 3, 0, 3, 1, 0, 0, 1, 255, 2, 7, 3, 255, 0, 1, 0, 2, 0xf0, 0xf0, 1, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		got := decodeFuzzPatterns(data)
		want := slices.Clone(got)
		gsm.SortPatterns(got)
		slices.SortStableFunc(want, func(a, b gsm.Pattern) int { return compareCanonical(a.Items, b.Items) })
		for i := range want {
			if got[i].Support != want[i].Support {
				t.Fatalf("position %d of %d: pattern %v (input %d), want %v (input %d)",
					i, len(want), got[i].Items, got[i].Support, want[i].Items, want[i].Support)
			}
		}
	})
}
