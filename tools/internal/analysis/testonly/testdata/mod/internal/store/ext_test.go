package store_test

import (
	"testing"

	"example.com/m/internal/store"
)

func TestLimit(t *testing.T) {
	if store.Limit != 2 {
		t.Fatal("wrong")
	}
}
