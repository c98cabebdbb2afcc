package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// suite runs every workload, each in a child process of its own so that one
// workload's memory never counts towards another's peak_rss_mb, o.repeat
// times over, and prints what each set measured. It returns the exit code:
// non-zero when a run failed, an answer was wrong, or two sets disagree on an
// end-to-end metric by more than that metric's bound.
func suite(o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	passes := []int{0}
	if o.trace == 1 {
		passes = append(passes, 1)
	}
	// sets[set][workload] is the untraced result.
	sets := make([]map[string]*result, o.repeat)
	code := 0
	for set := range sets {
		sets[set] = map[string]*result{}
		for _, s := range specs {
			for _, trace := range passes {
				res, err := child(exe, o, s.name, trace)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s (trace %d): %v\n", s.name, trace, err)
					code = 1
					continue
				}
				if !res.Correct {
					code = 1
				}
				if trace == 0 {
					sets[set][s.name] = res
				}
			}
		}
	}

	fmt.Printf("\n%-12s %-12s %-6s %8s", "workload", "metric", "unit", "spread")
	for set := range sets {
		fmt.Printf(" %12s", "set "+strconv.Itoa(set+1))
	}
	fmt.Println()
	for _, s := range specs {
		for _, d := range endToEnd {
			var values []float64
			for _, results := range sets {
				if res := results[s.name]; res != nil {
					values = append(values, res.Metrics[d.name].Value)
				}
			}
			if len(values) == 0 {
				continue
			}
			asc := sorted(values)
			// How much worse the worst set is than the best, as a share of
			// the best: with two sets, the regression one would report
			// against the other.
			spread := (asc[len(asc)-1] - asc[0]) / asc[0]
			verdict := ""
			if len(values) > 1 && spread > d.bound {
				verdict = fmt.Sprintf("  DISAGREE (bound %g)", d.bound)
				code = 1
			}
			fmt.Printf("%-12s %-12s %-6s %7.1f%%", s.name, d.name, d.unit, spread*100)
			for _, v := range values {
				fmt.Printf(" %12.5g", v)
			}
			fmt.Println(verdict)
		}
	}
	return code
}

// child runs one workload pass in a child process, passing its report
// through and parsing the JSON on its last line.
func child(exe string, o options, workload string, trace int) (*result, error) {
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", o.out,
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("no result on the last line: %w", err)
	}
	return &res, nil
}
