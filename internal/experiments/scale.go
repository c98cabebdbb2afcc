// Package experiments regenerates every table and figure of the LASH
// paper's evaluation (§6) on the synthetic stand-in corpora, printing the
// same rows/series the paper reports. Absolute numbers differ (host-scale
// corpora on an in-process MapReduce), but the comparisons — who wins, by
// what rough factor, and where the crossovers are — are what each runner
// reproduces; EXPERIMENTS.md records paper-vs-measured per experiment.
package experiments

import "fmt"

// Scale fixes corpus sizes and the support thresholds standing in for the
// paper's σ values. The paper mines 50M sentences with σ ∈ {10,…,10000};
// at host scale the thresholds are mapped so that relative output sizes
// stay in the same regime (the mapping is recorded in EXPERIMENTS.md).
type Scale struct {
	Name string

	NYTSentences int
	NYTLemmas    int
	AMZNUsers    int
	AMZNProducts int

	// Support analogues of the paper's 10000 / 1000 / 100 / 10.
	SigmaXHi int64
	SigmaHi  int64
	SigmaLo  int64
	SigmaXLo int64

	// NaiveCap bounds baseline intermediate records; exceeding it reports
	// DNF (the paper's ">12 hrs").
	NaiveCap int64

	Seed int64
}

// Tiny is the benchmark scale: fast enough for `go test -bench`.
var Tiny = Scale{
	Name:         "tiny",
	NYTSentences: 1500, NYTLemmas: 600,
	AMZNUsers: 2500, AMZNProducts: 1200,
	SigmaXHi: 400, SigmaHi: 80, SigmaLo: 15, SigmaXLo: 6,
	NaiveCap: 3_000_000,
	Seed:     42,
}

// Small is the default experiment scale (seconds per experiment).
var Small = Scale{
	Name:         "small",
	NYTSentences: 12000, NYTLemmas: 4000,
	AMZNUsers: 20000, AMZNProducts: 8000,
	SigmaXHi: 2000, SigmaHi: 400, SigmaLo: 50, SigmaXLo: 15,
	NaiveCap: 12_000_000,
	Seed:     42,
}

// Medium stresses the system (minutes per experiment).
var Medium = Scale{
	Name:         "medium",
	NYTSentences: 60000, NYTLemmas: 15000,
	AMZNUsers: 80000, AMZNProducts: 25000,
	SigmaXHi: 8000, SigmaHi: 1500, SigmaLo: 150, SigmaXLo: 40,
	NaiveCap: 40_000_000,
	Seed:     42,
}

// ScaleByName resolves a scale by its name.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "tiny":
		return Tiny, nil
	case "small", "":
		return Small, nil
	case "medium":
		return Medium, nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (want tiny, small or medium)", name)
}
