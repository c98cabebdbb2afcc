package lash

import "bytes"

// KeptInputs returns a copy of the partition inputs a state keeps, one per
// partition record (nil where the record keeps none), so a test can check
// that resuming from a state leaves it as it was.
func KeptInputs(s *MineState) [][]byte {
	ins := make([][]byte, len(s.delta.Parts))
	for i := range s.delta.Parts {
		ins[i] = bytes.Clone(s.delta.Parts[i].Input)
	}
	return ins
}
