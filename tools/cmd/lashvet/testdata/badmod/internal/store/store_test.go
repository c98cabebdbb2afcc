package store

import "testing"

func TestCount(t *testing.T) {
	if Count() != Peek() {
		t.Fatal("Count and Peek disagree")
	}
}
