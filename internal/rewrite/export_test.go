package rewrite

import "lash/internal/flist"

const inf = int32(1 << 30)

// Distances exposes the pivot-distance computation on an already
// w-generalized rank sequence, for tests reproducing the §4.3 example.
// Entries of the returned slices are chain sizes, or a value > λ_max (1<<30)
// when unreachable.
func Distances(ranks []flist.Rank, pivot flist.Rank, gamma int) (left, right []int32) {
	n := len(ranks)
	left = make([]int32, n)
	right = make([]int32, n)
	for i := 0; i < n; i++ {
		if ranks[i] == pivot {
			left[i] = 1
			continue
		}
		best := inf
		for j := i - 1 - gamma; j < i; j++ {
			if j < 0 || ranks[j] == flist.NoRank {
				continue
			}
			if left[j] < best {
				best = left[j]
			}
		}
		if best < inf {
			best++
		}
		left[i] = best
	}
	for i := n - 1; i >= 0; i-- {
		if ranks[i] == pivot {
			right[i] = 1
			continue
		}
		best := inf
		for j := i + 1; j <= i+1+gamma && j < n; j++ {
			if ranks[j] == flist.NoRank {
				continue
			}
			if right[j] < best {
				best = right[j]
			}
		}
		if best < inf {
			best++
		}
		right[i] = best
	}
	return left, right
}

// Infinite reports whether a distance value means "unreachable".
func Infinite(d int32) bool { return d >= inf }

// PivotSeqSet computes G_{w,λ}(T) for a rank-space sequence: the set of
// generalized subsequences (under the rank-parent table) that satisfy the
// gap and length constraints and whose largest item equals the pivot. Blanks
// match nothing. Exponential; exported for w-equivalency tests only.
func PivotSeqSet(parent []flist.Rank, t []flist.Rank, pivot flist.Rank, gamma, lambda int) map[string]struct{} {
	out := make(map[string]struct{})
	cur := make([]flist.Rank, 0, lambda)
	var key func() string
	key = func() string {
		b := make([]byte, 0, 4*len(cur))
		for _, r := range cur {
			b = append(b, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
		}
		return string(b)
	}
	selfAnc := func(r flist.Rank) []flist.Rank {
		if r == flist.NoRank {
			return nil
		}
		var a []flist.Rank
		for r != flist.NoRank {
			a = append(a, r)
			if int(r) >= len(parent) {
				break
			}
			r = parent[r]
		}
		return a
	}
	var rec func(last int, hasPivot bool)
	rec = func(last int, hasPivot bool) {
		if len(cur) >= 2 && hasPivot {
			out[key()] = struct{}{}
		}
		if len(cur) == lambda {
			return
		}
		hi := last + 1 + gamma
		if hi >= len(t) {
			hi = len(t) - 1
		}
		for j := last + 1; j <= hi; j++ {
			for _, a := range selfAnc(t[j]) {
				if a > pivot {
					continue
				}
				cur = append(cur, a)
				rec(j, hasPivot || a == pivot)
				cur = cur[:len(cur)-1]
			}
		}
	}
	for i := range t {
		for _, a := range selfAnc(t[i]) {
			if a > pivot {
				continue
			}
			cur = append(cur[:0], a)
			rec(i, a == pivot)
		}
	}
	return out
}
