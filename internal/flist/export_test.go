package flist

import "lash/internal/gsm"

// TranslateToRanks maps a vocabulary sequence into rank space with no
// generalization: infrequent items become NoRank (blank).
func (fl *FList) TranslateToRanks(dst []Rank, t gsm.Sequence) []Rank {
	for _, w := range t {
		dst = append(dst, fl.rankOf[w])
	}
	return dst
}
