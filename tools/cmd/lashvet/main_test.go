package main

import (
	"strings"
	"testing"
)

// TestSmokeBadModule runs the whole multichecker, via the same loader the
// standalone binary uses, over a known-bad module and checks that every
// analyzer it seeds fires and that the suppression directive holds.
func TestSmokeBadModule(t *testing.T) {
	findings, err := runStandalone("testdata/badmod", []string{"./..."})
	if err != nil {
		t.Fatalf("runStandalone: %v", err)
	}
	byAnalyzer := make(map[string]int)
	for _, f := range findings {
		byAnalyzer[f.analyzer]++
		t.Logf("%s: [%s] %s", f.pos, f.analyzer, f.msg)
	}
	want := map[string]int{
		"ctxfirst":    1, // Mine's out-of-order ctx; MineLegacy is suppressed
		"atomicfield": 1, // plain read of total.emitted
		"obshandle":   1, // registry lookup in hot package core
		"emitgo":      1, // go emit(it)
		"errjob":      2, // %v-flattened cause + missing "core:" prefix
		"testonly":    1, // store.Peek; store.Count's caller is in core
	}
	for name, n := range want {
		if byAnalyzer[name] != n {
			t.Errorf("analyzer %s: got %d findings, want %d", name, byAnalyzer[name], n)
		}
	}
	for name := range byAnalyzer {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected findings from %q", name)
		}
	}
	for _, f := range findings {
		if strings.Contains(f.msg, "MineLegacy") || (f.analyzer == "ctxfirst" && f.pos.Line == 22) {
			t.Errorf("suppressed finding surfaced: %s: %s", f.pos, f.msg)
		}
	}
}

// TestCleanTree asserts the repository itself stays lashvet-clean — the
// same invariant `make lint` gates on.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole root module")
	}
	for name, dir := range map[string]string{"root": "../../..", "tools": "../.."} {
		findings, err := runStandalone(dir, []string{"./..."})
		if err != nil {
			t.Fatalf("runStandalone over %s module: %v", name, err)
		}
		for _, f := range findings {
			t.Errorf("%s module: %s: [%s] %s", name, f.pos, f.analyzer, f.msg)
		}
	}
}
