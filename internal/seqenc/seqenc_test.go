package seqenc_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lash/internal/flist"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
	"lash/internal/seqenc"
)

func TestSeqRoundTrip(t *testing.T) {
	cases := [][]flist.Rank{
		{},
		{0},
		{0, 1, 2},
		{flist.NoRank},
		{flist.NoRank, flist.NoRank, flist.NoRank},
		{0, flist.NoRank, 1},
		{5, flist.NoRank, flist.NoRank, 7, flist.NoRank},
		{1 << 20, 0, flist.NoRank, 1 << 27},
	}
	for _, c := range cases {
		buf := seqenc.AppendSeq(nil, c)
		got, err := seqenc.DecodeSeq(nil, buf)
		if err != nil {
			t.Fatalf("decode %v: %v", c, err)
		}
		if len(got) != len(c) {
			t.Fatalf("round trip %v → %v", c, got)
		}
		for i := range c {
			if got[i] != c[i] {
				t.Fatalf("round trip %v → %v", c, got)
			}
		}
	}
}

func TestBlankRunCompression(t *testing.T) {
	// A run of blanks should cost ~1-2 bytes regardless of length.
	long := make([]flist.Rank, 100)
	for i := range long {
		long[i] = flist.NoRank
	}
	if n := len(seqenc.AppendSeq(nil, long)); n > 2 {
		t.Fatalf("run of 100 blanks costs %d bytes", n)
	}
}

func TestSmallRanksAreSmall(t *testing.T) {
	// Frequent items (small ranks) must take fewer bytes than rare ones —
	// the paper's variable-length encoding rationale (§6.1).
	small := len(seqenc.AppendSeq(nil, []flist.Rank{0}))
	big := len(seqenc.AppendSeq(nil, []flist.Rank{1 << 25}))
	if small >= big {
		t.Fatalf("rank 0 costs %d, rank 2^25 costs %d", small, big)
	}
	if small != 1 {
		t.Fatalf("rank 0 should cost 1 byte, got %d", small)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := seqenc.DecodeSeq(nil, []byte{0x80}); err == nil {
		t.Error("truncated varint accepted")
	}
	// Zero-length blank run: token 1.
	if _, err := seqenc.DecodeSeq(nil, []byte{0x01}); err == nil {
		t.Error("zero-length blank run accepted")
	}
	if _, err := seqenc.DecodeVocabSeq(nil, []byte{0x80}); err == nil {
		t.Error("truncated vocab varint accepted")
	}
}

func TestVocabRoundTrip(t *testing.T) {
	s := gsm.Sequence{0, 5, 300, 1 << 20}
	buf := seqenc.AppendVocabSeq(nil, s)
	got, err := seqenc.DecodeVocabSeq(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s) {
		t.Fatalf("round trip %v → %v", s, got)
	}
	for i := range s {
		if got[i] != s[i] {
			t.Fatalf("round trip %v → %v", s, got)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := r.Intn(40)
		s := make([]flist.Rank, l)
		for i := range s {
			switch r.Intn(3) {
			case 0:
				s[i] = flist.NoRank
			case 1:
				s[i] = flist.Rank(r.Intn(10))
			default:
				s[i] = flist.Rank(r.Intn(1 << 28))
			}
		}
		buf := seqenc.AppendSeq(nil, s)
		got, err := seqenc.DecodeSeq(nil, buf)
		if err != nil || len(got) != len(s) {
			return false
		}
		for i := range s {
			if got[i] != s[i] {
				return false
			}
		}
		// Vocabulary round trip on the non-blank items.
		var vs gsm.Sequence
		for _, x := range s {
			if x != flist.NoRank {
				vs = append(vs, hierarchy.Item(x))
			}
		}
		vbuf := seqenc.AppendVocabSeq(nil, vs)
		vgot, err := seqenc.DecodeVocabSeq(nil, vbuf)
		if err != nil || len(vgot) != len(vs) {
			return false
		}
		for i := range vs {
			if vgot[i] != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}
