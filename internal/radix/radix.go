// Package radix is the repository's one sorting kernel for large result
// sets: a stable least-significant-digit (LSD) counting sort over a tuple of
// small integer keys. It puts a mined result in canonical order
// (gsm.SortPatterns) and builds the serving index's lex and support tables
// (pindex.Build) in linear passes, where a comparison sort would compare
// variable-length item slices n log n times.
package radix

import "math/bits"

// Sort stably sorts xs in ascending order of the key tuple (key(x, 0),
// key(x, 1), …, key(x, keys-1)), compared lexicographically; no key may
// exceed maxKey. Elements with equal tuples keep their input order.
//
// It makes one counting pass per digit of every key, starting from key
// keys-1, so the cost is O(keys · digits · (len(xs) + 2^width)). The digit
// width follows maxKey and len(xs): a key space of up to 16 bits over a large
// input takes one pass per key with a count array no larger than the key
// space, and a small input takes narrower digits, so a call over a handful of
// elements never clears a large count array. The scratch — one buffer of
// len(xs) elements and the count array — lives only for the call.
func Sort[T any](xs []T, keys int, maxKey uint64, key func(x T, k int) uint64) {
	n := len(xs)
	keyBits := bits.Len64(maxKey)
	if n < 2 || keyBits == 0 {
		return // every tuple is equal: the input order is the answer
	}
	width := min(max(bits.Len(uint(n)), 8), 16)
	digits := (keyBits + width - 1) / width
	width = (keyBits + digits - 1) / digits
	mask := uint64(1)<<width - 1
	count := make([]int, 1<<width)
	src, dst := xs, make([]T, n)
	for k := keys - 1; k >= 0; k-- {
		for shift := 0; shift < keyBits; shift += width {
			clear(count)
			for _, x := range src {
				count[key(x, k)>>shift&mask]++
			}
			sum := 0
			for d, c := range count {
				count[d] = sum
				sum += c
			}
			for _, x := range src {
				d := key(x, k) >> shift & mask
				dst[count[d]] = x
				count[d]++
			}
			src, dst = dst, src
		}
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}
