// Command lash-exp regenerates the tables and figures of the LASH paper's
// evaluation (§6) on synthetic stand-in corpora.
//
// Usage:
//
//	lash-exp                       # everything at the default (small) scale
//	lash-exp -scale tiny -exp fig4a,fig4c
//	lash-exp -list
//
// Each table ends in note: lines stating what the paper reports for it, to
// read the measured rows against. TestPaperClaims (internal/experiments)
// asserts the qualitative results on deterministic counters.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"lash/internal/experiments"
	"lash/internal/obs"
)

func main() {
	var (
		scaleName = flag.String("scale", "small", "scale: tiny, small or medium")
		expList   = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		outPath   = flag.String("out", "", "write results to file (default stdout)")
		traceOut  = flag.String("trace-out", "", "write a span tree (one span per experiment, plus its jobs, phases and partition mines) as JSON to this file")
		list      = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All {
			fmt.Printf("%-8s %-10s %s\n", e.ID, e.Paper, e.Title)
		}
		return
	}

	scale, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		fatal(err)
	}
	var ids []string
	if *expList != "" {
		for _, id := range strings.Split(*expList, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}

	fmt.Fprintf(out, "LASH experiment harness — scale=%s (σ map: 10000→%d, 1000→%d, 100→%d, 10→%d)\n\n",
		scale.Name, scale.SigmaXHi, scale.SigmaHi, scale.SigmaLo, scale.SigmaXLo)
	start := time.Now()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ec := experiments.NewContext(scale)
	var tr *obs.Tracer
	if *traceOut != "" {
		tr = obs.NewTracer(0)
		ec.Obs = &obs.Run{Tracer: tr}
	}
	runErr := experiments.RunAndFormat(ctx, ec, ids, out)
	// The trace is written even when a run fails: a truncated span tree
	// still shows where the time went.
	if tr != nil {
		if err := writeTrace(*traceOut, tr); err != nil {
			fatal(err)
		}
	}
	if runErr != nil {
		fatal(runErr)
	}
	fmt.Fprintf(out, "total harness time: %v\n", time.Since(start).Round(time.Millisecond))
}

// writeTrace renders the collected span tree to path.
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTraceJSON(f, tr.Spans(), tr.Dropped()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lash-exp:", err)
	os.Exit(1)
}
