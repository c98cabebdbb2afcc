// Package api is a public (non-internal) package: its exported symbols are
// checked like any other, and a checked example is a caller of them.
package api

// Used is called by production code.
func Used() int { return helper() }

func helper() int { return 1 }

func spare() {} // want `^spare is unused$`

func Tested() int { return 2 } // want `^Tested is used only by tests of this package$`

// Documented is called only by a checked example.
func Documented() int { return 3 }

func Unchecked() int { return 4 } // want `^Unchecked is used only by tests of this package$`

// Shared is test API: the tests of package core call it.
func Shared() int { return 5 }
