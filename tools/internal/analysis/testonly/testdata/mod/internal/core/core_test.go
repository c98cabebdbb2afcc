package core

import (
	"testing"

	"example.com/m/internal/fixture"
	"example.com/m/internal/store"
)

func TestRun(t *testing.T) {
	if Run() != store.Shared()-2+fixture.Helper() {
		t.Fatal("wrong")
	}
}
