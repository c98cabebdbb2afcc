// Package seqenc provides the compact wire encoding of rank-space sequences
// used between the map and reduce phases of LASH (§4.2, §6.1 of the paper):
// variable-length integers for items (small ids — i.e. frequent items — take
// fewer bytes) and run-length encoding for blanks. Byte counts from this
// encoding drive the MAP_OUTPUT_BYTES experiments (Fig. 4b).
//
// Token format (uvarint):
//
//	item with rank r   → (r+1) << 1
//	run of n blanks    → (n << 1) | 1
package seqenc

import (
	"encoding/binary"
	"fmt"

	"lash/internal/flist"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
)

// AppendSeq encodes a rank-space sequence (blanks = flist.NoRank) onto dst.
func AppendSeq(dst []byte, seq []flist.Rank) []byte {
	i := 0
	for i < len(seq) {
		if seq[i] == flist.NoRank {
			run := uint64(0)
			for i < len(seq) && seq[i] == flist.NoRank {
				run++
				i++
			}
			dst = binary.AppendUvarint(dst, run<<1|1)
			continue
		}
		dst = binary.AppendUvarint(dst, (uint64(seq[i])+1)<<1)
		i++
	}
	return dst
}

// MaxDecodedLen caps how many ranks a single encoded sequence may decode to
// (2^24 ≈ 16M items — far beyond any real sequence). A blank run can claim
// an astronomic length in a handful of corrupt bytes; the bound rejects such
// input before the decoder materializes it.
const MaxDecodedLen = 1 << 24

// DecodeSeq decodes an encoded rank sequence, appending to dst. dst may
// already hold earlier sequences (arena decoding); the MaxDecodedLen bound
// applies to this call's contribution only.
func DecodeSeq(dst []flist.Rank, buf []byte) ([]flist.Rank, error) {
	decoded := 0
	for len(buf) > 0 {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return dst, fmt.Errorf("seqenc: truncated varint")
		}
		buf = buf[n:]
		if v&1 == 1 { // blank run
			run := v >> 1
			if run == 0 {
				return dst, fmt.Errorf("seqenc: zero-length blank run")
			}
			if run > MaxDecodedLen || decoded+int(run) > MaxDecodedLen {
				return dst, fmt.Errorf("seqenc: decoded sequence exceeds %d items", MaxDecodedLen)
			}
			decoded += int(run)
			for j := uint64(0); j < run; j++ {
				dst = append(dst, flist.NoRank)
			}
			continue
		}
		r := v>>1 - 1
		if r >= uint64(flist.NoRank) {
			return dst, fmt.Errorf("seqenc: rank overflow %d", r)
		}
		if decoded++; decoded > MaxDecodedLen {
			return dst, fmt.Errorf("seqenc: decoded sequence exceeds %d items", MaxDecodedLen)
		}
		dst = append(dst, flist.Rank(r))
	}
	return dst, nil
}

// DecodedLen returns the number of ranks DecodeSeq would append for buf,
// without materializing them, validating the encoding exactly as DecodeSeq
// does. Callers use it to size a decode arena once up front.
func DecodedLen(buf []byte) (int, error) {
	decoded := 0
	for len(buf) > 0 {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return decoded, fmt.Errorf("seqenc: truncated varint")
		}
		buf = buf[n:]
		if v&1 == 1 { // blank run
			run := v >> 1
			if run == 0 {
				return decoded, fmt.Errorf("seqenc: zero-length blank run")
			}
			if run > MaxDecodedLen || decoded+int(run) > MaxDecodedLen {
				return decoded, fmt.Errorf("seqenc: decoded sequence exceeds %d items", MaxDecodedLen)
			}
			decoded += int(run)
			continue
		}
		r := v>>1 - 1
		if r >= uint64(flist.NoRank) {
			return decoded, fmt.Errorf("seqenc: rank overflow %d", r)
		}
		if decoded++; decoded > MaxDecodedLen {
			return decoded, fmt.Errorf("seqenc: decoded sequence exceeds %d items", MaxDecodedLen)
		}
	}
	return decoded, nil
}

// AppendVocabSeq encodes a vocabulary-space sequence (no blanks) onto dst.
// Used by the naïve baseline, which has no f-list and therefore no rank
// space.
func AppendVocabSeq(dst []byte, seq gsm.Sequence) []byte {
	for _, w := range seq {
		dst = binary.AppendUvarint(dst, uint64(w))
	}
	return dst
}

// DecodeVocabSeq decodes an encoded vocabulary sequence, appending to dst.
func DecodeVocabSeq(dst gsm.Sequence, buf []byte) (gsm.Sequence, error) {
	for len(buf) > 0 {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return dst, fmt.Errorf("seqenc: truncated varint")
		}
		buf = buf[n:]
		if v >= uint64(hierarchy.NoItem) {
			return dst, fmt.Errorf("seqenc: item overflow %d", v)
		}
		dst = append(dst, hierarchy.Item(v))
	}
	return dst, nil
}

// UvarintLen returns the encoded size of v as a uvarint.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
