package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestQuantile(t *testing.T) {
	// The expectations are what Python's statistics.quantiles(v, n=4) and
	// statistics.median give for the same samples.
	cases := []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{1, 2}, 1, 1.5, 2},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 3, 6, 9},
	}
	for _, c := range cases {
		s := sorted(c.v)
		for _, q := range []struct{ p, want float64 }{{0.25, c.q1}, {0.5, c.med}, {0.75, c.q3}} {
			if got := quantile(s, q.p); math.Abs(got-q.want) > 1e-12 {
				t.Errorf("quantile(%v, %g) = %g, want %g", c.v, q.p, got, q.want)
			}
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
	// p99 of 1..1000 sits between the 990th and 991st value.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := quantile(big, 0.99); math.Abs(got-990.99) > 1e-9 {
		t.Errorf("p99 of 1..1000 = %g, want 990.99", got)
	}
}

func TestDigest(t *testing.T) {
	var a, b digest
	a.add([]string{"x", "y"}, 3)
	a.add([]string{"y", "z", "w"}, 2)
	b.add([]string{"y", "z", "w"}, 2)
	b.add([]string{"x", "y"}, 3)
	if a != b {
		t.Errorf("digest depends on order: %v vs %v", a, b)
	}
	for name, other := range map[string]func(*digest){
		"support": func(d *digest) { d.add([]string{"x", "y"}, 4); d.add([]string{"y", "z", "w"}, 2) },
		"items":   func(d *digest) { d.add([]string{"x", "z"}, 3); d.add([]string{"y", "z", "w"}, 2) },
		"count":   func(d *digest) { d.add([]string{"x", "y"}, 3) },
	} {
		var d digest
		other(&d)
		if d == a {
			t.Errorf("digest misses a change of %s", name)
		}
	}
	// FNV-64a of "x y\t3", from the reference parameters.
	var one digest
	one.add([]string{"x", "y"}, 3)
	h := uint64(14695981039346656037)
	for _, c := range []byte("x y\t3") {
		h = (h ^ uint64(c)) * 1099511628211
	}
	if one.count != 1 || one.sum != h {
		t.Errorf("digest of one pattern = %v, want 1 pattern/%016x", one, h)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package in
// step: same workloads, same metrics, same units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark defaults to %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(doc.Workloads), len(specs))
	}
	for i, s := range specs {
		if w := doc.Workloads[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark (or their reasons differ)", i, w.Name, s.name)
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the benchmark", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in the benchmark", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s metric %s: bound differs from the benchmark's %g", kind, d.name, d.bound)
			}
		}
	}
	compare("end-to-end", doc.EndToEnd, endToEnd, true)
	compare("per-layer", doc.PerLayer, perLayer, false)
}

// TestSmoke runs both passes of all four workloads on shrunken corpora, so
// the harness cannot rot unnoticed: every answer must check out and every
// metric must be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the service and mines; skipped with -short")
	}
	for _, s := range specs {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			o := options{workload: s.name, seed: 11, seconds: 0.5, trace: trace, smoke: true, out: t.TempDir()}
			res, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace %d: %v", s.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed: %v", s.name, trace, res.Correct, res.Failed, res.Attempted, res.notes)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics reported, want %d", s.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range endToEnd {
				if trace == 0 && !(res.Metrics[d.name].Value > 0) {
					t.Errorf("%s: end-to-end metric %s is %g, want > 0", s.name, d.name, res.Metrics[d.name].Value)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(o.out, "trace-"+s.name+".json")); err != nil {
					t.Errorf("%s: traced pass wrote no trace: %v", s.name, err)
				}
			}
		}
	}
}
