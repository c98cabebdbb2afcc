// Command bench is the repository's benchmark: it starts the mining service
// in-process behind a real HTTP listener, drives one of four workloads
// against it, checks every answer, and reports end-to-end metrics (or, on
// the traced pass, per-layer metrics). See README.md in this directory.
//
// One run of one workload, as BENCHMARK.json's command invokes it:
//
//	bench --workload NAME --seed N --seconds S --trace 0|1
//
// prints the metrics by name and, as the last line of standard output, one
// JSON object {correct, attempted, failed, metrics}. Without --workload it
// runs every workload in a child process each and prints a summary; with
// -repeat N it does so N times and fails when two sets disagree on an
// end-to-end metric by more than the metric's bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// defaultSeconds mirrors run_seconds in BENCHMARK.json.
const defaultSeconds = 20

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	repeat   int
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print its result as JSON (default: run all, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 11, "seed for every generator and client")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the measured phase")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced pass (per-layer metrics), 0 = end-to-end metrics; running all workloads, 1 adds the traced pass")
	flag.BoolVar(&o.smoke, "smoke", false, "shrink the corpora about tenfold (for tests)")
	flag.IntVar(&o.repeat, "repeat", 1, "running all workloads: number of sets to run and compare")
	flag.StringVar(&o.out, "out", defaultOut(), "directory the traced pass writes trace-<workload>.json to")
	flag.Parse()
	if flag.NArg() > 0 || o.trace < 0 || o.trace > 1 || o.seconds <= 0 || o.repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}

	if o.workload == "" {
		os.Exit(suite(o))
	}
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout, o)
	line, err := json.Marshal(res)
	if err == nil {
		err = res.writeReport(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

// defaultOut is bench/out from the repository root (where run.sh starts the
// binary) and out from the benchmark's own directory (go run).
func defaultOut() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return "bench/out"
	}
	return "out"
}

// result is one run's outcome, in the shape the last output line carries.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`

	readings readings
	notes    []string
}

type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// defsFor lists the metrics a pass reports.
func defsFor(trace int) []metricDef {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// runWorkload performs one run: the untraced pass reports every end-to-end
// metric, the traced pass every per-layer metric.
func runWorkload(o options) (*result, error) {
	s, ok := specByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.smoke {
		s = s.smoke()
	}
	r := &run{
		spec:    s,
		seed:    o.seed,
		window:  time.Duration(o.seconds * float64(time.Second)),
		metrics: readings{},
	}
	var err error
	if o.trace == 1 {
		err = r.tracedRun(o.out)
	} else {
		err = r.endToEndRun()
	}
	if r.sut != nil {
		r.sut.stop()
	}
	if err != nil {
		return nil, err
	}

	defs := defsFor(o.trace)
	res := &result{
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   make(map[string]reported, len(defs)),
		readings:  r.metrics,
		notes:     r.tally.notes,
	}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = reported{Value: m.value, Unit: d.unit}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// writeReport stores the run's full reading of every metric — value, unit,
// sample count and quartiles — with the environment it was taken in, as
// result-<workload>-trace<0|1>.json in the output directory.
func (res *result) writeReport(o options) error {
	type full struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		N     int     `json:"n"`
		Q1    float64 `json:"q1,omitempty"`
		Q3    float64 `json:"q3,omitempty"`
	}
	metrics := make(map[string]full, len(res.Metrics))
	for name, rep := range res.Metrics {
		m := res.readings[name]
		metrics[name] = full{m.value, rep.Unit, m.n, m.q1, m.q3}
	}
	raw, err := json.MarshalIndent(map[string]any{
		"workload": o.workload, "trace": o.trace, "seconds": o.seconds, "smoke": o.smoke,
		"env": environment(o.seed), "correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed,
		"metrics": metrics,
	}, "", " ")
	if err != nil {
		return err
	}
	return writeFile(o.out, fmt.Sprintf("result-%s-trace%d.json", o.workload, o.trace), raw)
}

// print lists every metric by name with its unit and, where it is a
// statistic, the sample count and quartiles, then what failed.
func (res *result) print(w *os.File, o options) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %d  env %v\n", o.workload, o.seed, o.seconds, o.trace, environment(o.seed))
	for _, d := range defsFor(o.trace) {
		m := res.readings[d.name]
		switch {
		case m.q3 > 0:
			fmt.Fprintf(w, "  %-28s %14.6g %-6s n=%d q1=%.6g q3=%.6g\n", d.name, m.value, d.unit, m.n, m.q1, m.q3)
		case m.n > 1:
			fmt.Fprintf(w, "  %-28s %14.6g %-6s n=%d\n", d.name, m.value, d.unit, m.n)
		default:
			fmt.Fprintf(w, "  %-28s %14.6g %-6s\n", d.name, m.value, d.unit)
		}
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  error_rate %g\n", res.Attempted, res.Failed, float64(res.Failed)/float64(max(1, res.Attempted)))
	for _, n := range res.notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
}
