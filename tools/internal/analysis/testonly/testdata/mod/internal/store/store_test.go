package store

import "testing"

func TestTested(t *testing.T) {
	if Tested() != 2 || !(T{}).Checked() {
		t.Fatal("wrong")
	}
}
