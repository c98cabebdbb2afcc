// Package core is the production caller of package store.
package core

import "example.com/m/internal/store"

// Run calls store's production API.
func Run() int { return store.Used() + store.NewMiner().Mine() }
