package seqenc_test

import (
	"bytes"
	"testing"

	"lash/internal/flist"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
	"lash/internal/seqenc"
)

// ranksFromBytes derives a rank sequence from fuzz input: 4 bytes per item,
// with a sentinel byte pattern mapping to a blank so runs get exercised.
func ranksFromBytes(data []byte) []flist.Rank {
	seq := make([]flist.Rank, 0, len(data)/4)
	for i := 0; i+3 < len(data); i += 4 {
		v := flist.Rank(data[i]) | flist.Rank(data[i+1])<<8 |
			flist.Rank(data[i+2])<<16 | flist.Rank(data[i+3])<<24
		if v%5 == 0 {
			v = flist.NoRank
		} else if v == flist.NoRank {
			v = 0
		}
		seq = append(seq, v)
	}
	return seq
}

// FuzzSeqRoundTrip checks, for arbitrary rank sequences, that
// AppendSeq/DecodeSeq round-trip exactly and that DecodedLen agrees with
// the materialized encoding.
func FuzzSeqRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 5, 0, 0, 0, 255, 255, 255, 255})
	f.Add(bytes.Repeat([]byte{10, 0, 0, 0}, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		seq := ranksFromBytes(data)
		enc := seqenc.AppendSeq(nil, seq)
		n, err := seqenc.DecodedLen(enc)
		if err != nil {
			t.Fatalf("DecodedLen rejected valid encoding: %v", err)
		}
		if n != len(seq) {
			t.Fatalf("DecodedLen = %d, want %d", n, len(seq))
		}
		dec, err := seqenc.DecodeSeq(nil, enc)
		if err != nil {
			t.Fatalf("DecodeSeq rejected valid encoding: %v", err)
		}
		if len(dec) != len(seq) {
			t.Fatalf("round trip length %d, want %d", len(dec), len(seq))
		}
		for i := range seq {
			if dec[i] != seq[i] {
				t.Fatalf("round trip: item %d = %d, want %d", i, dec[i], seq[i])
			}
		}
		// Arena decoding: appending to a non-empty dst must leave the prefix
		// intact and produce the same items after it.
		arena := []flist.Rank{7, flist.NoRank, 9}
		arena, err = seqenc.DecodeSeq(arena, enc)
		if err != nil {
			t.Fatalf("arena DecodeSeq: %v", err)
		}
		if arena[0] != 7 || arena[1] != flist.NoRank || arena[2] != 9 {
			t.Fatal("arena DecodeSeq clobbered existing prefix")
		}
		if len(arena) != 3+len(seq) {
			t.Fatalf("arena DecodeSeq appended %d items, want %d", len(arena)-3, len(seq))
		}
	})
}

// FuzzDecodeSeq feeds arbitrary bytes to the decoder: it must never panic,
// DecodeSeq and DecodedLen must agree on validity and length, and anything
// that decodes must re-encode to a form that decodes to the same sequence.
func FuzzDecodeSeq(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x02})                                                       // rank 0
	f.Add([]byte{0x03})                                                       // run of 1 blank
	f.Add([]byte{0x01})                                                       // zero-length run (corrupt)
	f.Add([]byte{0x80})                                                       // truncated varint (corrupt)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge value
	f.Add(seqenc.AppendSeq(nil, []flist.Rank{3, flist.NoRank, flist.NoRank, 1 << 20}))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, lenErr := seqenc.DecodedLen(data)
		dec, decErr := seqenc.DecodeSeq(nil, data)
		if (lenErr == nil) != (decErr == nil) {
			t.Fatalf("DecodedLen err=%v but DecodeSeq err=%v", lenErr, decErr)
		}
		if decErr != nil {
			return
		}
		if n != len(dec) {
			t.Fatalf("DecodedLen = %d, DecodeSeq produced %d items", n, len(dec))
		}
		// Decoding is canonicalizing: re-encoding the decoded sequence and
		// decoding again must yield the same items (adjacent blank runs in
		// the input collapse into one on re-encode, so the bytes may differ).
		re := seqenc.AppendSeq(nil, dec)
		if len(re) > len(data) {
			t.Fatalf("re-encoding grew: %d > %d bytes", len(re), len(data))
		}
		dec2, err := seqenc.DecodeSeq(nil, re)
		if err != nil {
			t.Fatalf("re-encoded form rejected: %v", err)
		}
		if len(dec2) != len(dec) {
			t.Fatalf("re-encode round trip length %d, want %d", len(dec2), len(dec))
		}
		for i := range dec {
			if dec2[i] != dec[i] {
				t.Fatalf("re-encode round trip: item %d = %d, want %d", i, dec2[i], dec[i])
			}
		}
	})
}

// FuzzVocabSeqRoundTrip covers the vocabulary-space encoding used by the
// naïve baseline: the round trip.
func FuzzVocabSeqRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 200, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		seq := make(gsm.Sequence, 0, len(data)/4)
		for i := 0; i+3 < len(data); i += 4 {
			v := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16 | uint32(data[i+3])<<24
			seq = append(seq, hierarchy.Item(v%uint32(hierarchy.NoItem)))
		}
		enc := seqenc.AppendVocabSeq(nil, seq)
		dec, err := seqenc.DecodeVocabSeq(nil, enc)
		if err != nil {
			t.Fatalf("DecodeVocabSeq rejected valid encoding: %v", err)
		}
		if len(dec) != len(seq) {
			t.Fatalf("round trip length %d, want %d", len(dec), len(seq))
		}
		for i := range seq {
			if dec[i] != seq[i] {
				t.Fatalf("round trip: item %d = %d, want %d", i, dec[i], seq[i])
			}
		}
	})
}
