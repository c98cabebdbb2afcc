package miner_test

import (
	"fmt"
	"testing"

	"lash/internal/flist"
	"lash/internal/miner"
)

// The fuzzed bytes of FuzzMinersAgree, in order: the number of ranks, σ, γ,
// λ, the pivot, one parent byte per rank from 1 up (parent < child, or a
// root), then the sequences — fuzzSeqBreak starts a new one, whose first
// byte is its weight; fuzzBlank is a blank; any other byte is a rank, above
// the pivot included (the rewrite.ModeNone shape).
const (
	fuzzSeqBreak = 0xff
	fuzzBlank    = 0xfe
	fuzzMaxRanks = 10
)

func decodeFuzzPartition(data []byte) (*miner.Partition, miner.Config, bool) {
	if len(data) < 5 {
		return nil, miner.Config{}, false
	}
	n := 2 + int(data[0])%(fuzzMaxRanks-1)
	cfg := miner.Config{
		Sigma:     1 + int64(data[1])%4,
		Gamma:     int(data[2]) % 3,
		Lambda:    2 + int(data[3])%4,
		PivotOnly: true,
	}
	p := &miner.Partition{Pivot: flist.Rank(int(data[4]) % n), Parent: make([]flist.Rank, n)}
	data = data[5:]
	if len(data) < n-1 {
		return nil, miner.Config{}, false
	}
	p.Parent[0] = flist.NoRank
	for i := 1; i < n; i++ {
		p.Parent[i] = flist.NoRank
		if par := int(data[i-1]) % (i + 1); par < i {
			p.Parent[i] = flist.Rank(par)
		}
	}
	start := true
	for _, c := range data[n-1:] {
		switch {
		case c == fuzzSeqBreak:
			start = true
		case start:
			p.Seqs = append(p.Seqs, miner.WSeq{Weight: 1 + int64(c)%4})
			start = false
		case c == fuzzBlank:
			last := &p.Seqs[len(p.Seqs)-1]
			last.Items = append(last.Items, flist.NoRank)
		default:
			last := &p.Seqs[len(p.Seqs)-1]
			last.Items = append(last.Items, flist.Rank(int(c)%n))
		}
	}
	return p, cfg, true
}

// encodeFuzzPartition is decodeFuzzPartition's inverse on what it can
// express (2–10 ranks, σ 1–4, γ 0–2, λ 2–5, weights 1–4).
func encodeFuzzPartition(p *miner.Partition, cfg miner.Config) []byte {
	n := len(p.Parent)
	data := []byte{byte(n - 2), byte(cfg.Sigma - 1), byte(cfg.Gamma), byte(cfg.Lambda - 2), byte(p.Pivot)}
	for i := 1; i < n; i++ {
		if p.Parent[i] == flist.NoRank {
			data = append(data, byte(i))
		} else {
			data = append(data, byte(p.Parent[i]))
		}
	}
	for i, ws := range p.Seqs {
		if i > 0 {
			data = append(data, fuzzSeqBreak)
		}
		data = append(data, byte(ws.Weight-1))
		for _, r := range ws.Items {
			if r == flist.NoRank {
				data = append(data, fuzzBlank)
			} else {
				data = append(data, byte(r))
			}
		}
	}
	return data
}

// FuzzMinersAgree mines one fuzzed partition with every local miner through
// one shared Scratch: each must reproduce its preserved reference miner's
// patterns, supports and Stats to the digit, all four must agree on the
// pivot sequences, and — where the enumeration is affordable — these are
// the frequent sequences whose largest item is the pivot, by definition.
func FuzzMinersAgree(f *testing.F) {
	for _, tc := range lastLevelCases() {
		data := encodeFuzzPartition(tc.p, tc.cfg)
		if p, cfg, ok := decodeFuzzPartition(data); !ok || cfg != tc.cfg || fmt.Sprint(*p) != fmt.Sprint(*tc.p) {
			f.Fatalf("seed %q does not decode to its case: %v %+v", tc.name, p, cfg)
		}
		f.Add(data)
	}
	// A deeper hierarchy, ranks above the pivot, λ 4, four weights.
	f.Add([]byte("\x06\x01\x01\x02\x04\x00\x01\x01\x03\x02\x05\x06\x00\x04\x01\x05\x04\x02\xfe\x04\x07\xff\x01\x03\x04\x04\x06\x00\xff\x02\x04\x03\x04\x01\x04\xff\x03\x07\x04\x02"))
	sc := miner.NewScratch()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			return
		}
		p, cfg, ok := decodeFuzzPartition(data)
		if !ok {
			return
		}
		label := fmt.Sprintf("pivot %d parent %v seqs %v cfg %+v", p.Pivot, p.Parent, p.Seqs, cfg)
		var first []miner.WSeq
		for i, kind := range allKinds {
			want, wantStats := collect(refNew(kind), p, cfg, nil)
			got, gotStats := collect(miner.New(kind), p, cfg, sc)
			if !equalWSeqs(got, want) {
				t.Fatalf("%s %s: output diverges from the reference\n got: %v\nwant: %v", label, kind, got, want)
			}
			if gotStats != wantStats {
				t.Fatalf("%s %s: stats %+v, reference %+v", label, kind, gotStats, wantStats)
			}
			if i == 0 {
				first = got
			} else if !equalWSeqs(got, first) {
				t.Fatalf("%s: %s and %s disagree\n%v\n%v", label, kind, allKinds[0], got, first)
			}
		}
		items := 0
		for _, ws := range p.Seqs {
			items += len(ws.Items)
		}
		if items > 24 || cfg.Lambda > 3 {
			return // bruteMine enumerates every generalized subsequence
		}
		brute := bruteMine(p, cfg)
		for k := range brute {
			for _, r := range ranksFromKey(k) {
				if r > p.Pivot {
					delete(brute, k) // p(S) is its largest item, not the pivot
					break
				}
			}
		}
		got := make(map[string]int64, len(first))
		for _, w := range first {
			got[rankKey(w.Items)] = w.Weight
		}
		if !mapsEqual(got, brute) {
			t.Fatalf("%s: mined %v, by definition %v", label, got, brute)
		}
	})
}
