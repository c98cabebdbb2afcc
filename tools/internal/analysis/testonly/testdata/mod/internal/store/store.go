// Package store declares one symbol for each case the testonly pass
// decides.
package store

// Used is called by production code of another package.
func Used() int { return 1 }

func Dead() {} // want `^Dead is unused$`

func Tested() int { return 2 } // want `^Tested is used only by tests of this package$`

// Shared is test API: the tests of package core call it.
func Shared() int { return 3 }

// ForSecond is called only by production code of the dependent module.
func ForSecond() int { return 4 }

func recurse(n int) int { // want `^recurse is unused$`
	if n == 0 {
		return 0
	}
	return recurse(n - 1)
}

// T is used by production code, which never calls T.String: fmt does,
// through fmt.Stringer.
type T struct{}

func (T) String() string { return "T" }

func (T) helper() {} // want `^T\.helper is unused$`

func (T) Checked() bool { return true } // want `^T\.Checked is used only by tests of this package$`

// Miner is implemented by psm, whose Mine production calls only through
// the interface.
type Miner interface{ Mine() int }

type psm struct{}

func (psm) Mine() int { return 0 }

// NewMiner is called by production code.
func NewMiner() Miner { return psm{} }

// own is named only in its own method's receiver and result.
type own struct{} // want `^own is unused$`

func (o *own) self() *own { return o } // want `^own\.self is unused$`

var Flag = 1 // want `^Flag is unused$`

const Limit = 2 // want `^Limit is used only by tests of this package$`

//lashvet:ignore testonly an extension point kept on purpose
func Kept() {}
