package core

import (
	"testing"

	"example.com/m/api"
	"example.com/m/internal/fixture"
	"example.com/m/internal/store"
)

func TestRun(t *testing.T) {
	if Run() != store.Shared()-2+fixture.Helper() || api.Shared() != 5 {
		t.Fatal("wrong")
	}
}
