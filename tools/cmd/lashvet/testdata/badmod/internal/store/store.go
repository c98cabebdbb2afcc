// Package store gives testonly one finding that needs the whole program:
// Count is called only from package core, and Peek only by this package's
// tests.
package store

var n int

// Count is the production API.
func Count() int { n++; return n }

// testonly: used only by tests of this package.
func Peek() int { return n }
