// Package fixture is imported only by tests, so none of it is reported.
package fixture

// Helper is called by the tests of package core.
func Helper() int { return 0 }

// Spare is called by nothing.
func Spare() {}
