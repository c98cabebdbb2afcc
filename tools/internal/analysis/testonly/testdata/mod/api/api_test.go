package api

import "testing"

func TestTested(t *testing.T) {
	if Tested() != 2 {
		t.Fatal("wrong")
	}
}
