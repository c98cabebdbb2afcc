// Command lash mines frequent generalized sequences from text files.
//
// Usage:
//
//	lash -input sequences.txt [-hierarchy edges.txt] [flags]
//
// The sequences file holds one input sequence per line (items separated by
// whitespace). The optional hierarchy file holds one "child parent" edge
// per line. Output is one pattern per line: support, TAB, items.
//
// Ctrl-C (SIGINT) or SIGTERM cancels a run in flight: mining aborts
// cooperatively and the command exits non-zero without writing partial
// output. -progress reports live phase/partition progress on stderr.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lash"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		ue, isUsage := err.(usageError)
		if err != flag.ErrHelp && !(isUsage && ue.printed) {
			msg := err.Error()
			if !strings.HasPrefix(msg, "lash: ") {
				msg = "lash: " + msg
			}
			fmt.Fprintln(os.Stderr, msg)
		}
		os.Exit(exitCode(err))
	}
}

// usageError marks errors in flag plumbing, which exit with status 2 like
// flag parse failures do. printed means the FlagSet already wrote the
// message to stderr, so main must not repeat it.
type usageError struct {
	error
	printed bool
}

func exitCode(err error) int {
	if err == nil || err == flag.ErrHelp { // -h prints usage and exits 0
		return 0
	}
	if _, ok := err.(usageError); ok {
		return 2
	}
	return 1
}

// run executes the CLI flow: parse flags, build the database, mine, print.
// It is main minus the process plumbing, so tests can drive it end to end;
// cancelling ctx (main wires SIGINT/SIGTERM to it) aborts the mining run.
func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lash", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		input       = fs.String("input", "", "sequence file (text: one sequence per line, or a binary .ldb corpus; '-' = stdin)")
		hier        = fs.String("hierarchy", "", "hierarchy file (one 'child parent' edge per line; text input only)")
		support     = fs.Int64("support", 2, "minimum support σ")
		gap         = fs.Int("gap", 0, "maximum gap γ")
		length      = fs.Int("length", 5, "maximum pattern length λ")
		algorithm   = fs.String("algorithm", "lash", "algorithm: lash, naive, seminaive, mgfsm, lashflat")
		localMnr    = fs.String("miner", "psm", "local miner for lash: psm, psm-noindex, bfs, dfs")
		restriction = fs.String("restriction", "none", "output restriction: none, closed, maximal")
		output      = fs.String("output", "", "output file (default stdout)")
		items       = fs.Bool("items", false, "also print frequent single items")
		quiet       = fs.Bool("quiet", false, "suppress the run summary on stderr")
		progress    = fs.Bool("progress", false, "report live mining progress on stderr")
		memBudget   = fs.String("mem-budget", "", "shuffle memory budget before spilling sorted runs to disk (e.g. 64MiB, 2G, 1048576; empty = unlimited)")
		traceOut    = fs.String("trace-out", "", "write the run's span tree (corpus load, jobs, phases, per-partition mining) as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return err
		}
		return usageError{err, true} // the FlagSet already printed it
	}

	if *input == "" {
		fs.Usage()
		return usageError{fmt.Errorf("-input is required"), false}
	}

	var tr *lash.Trace
	if *traceOut != "" {
		tr = lash.NewTrace()
	}

	loadDone := tr.Span("load-corpus")
	db, err := loadDatabase(*input, *hier, stdin)
	loadDone()
	if err != nil {
		return err
	}

	opt := lash.Options{MinSupport: *support, MaxGap: *gap, MaxLength: *length}
	if *memBudget != "" {
		if opt.MemoryBudget, err = parseBytes(*memBudget); err != nil {
			return usageError{err, false}
		}
	}
	if opt.Algorithm, err = lash.ParseAlgorithm(*algorithm); err != nil {
		return usageError{err, false}
	}
	if opt.LocalMiner, err = lash.ParseLocalMiner(*localMnr); err != nil {
		return usageError{err, false}
	}
	if opt.Restriction, err = lash.ParseRestriction(*restriction); err != nil {
		return usageError{err, false}
	}
	if *progress {
		opt.Progress = progressPrinter(stderr)
	}
	opt.Trace = tr

	out := stdout
	var outFile *os.File
	if *output != "" {
		outFile, err = os.Create(*output)
		if err != nil {
			return err
		}
		out = outFile
	}

	start := time.Now()
	res, err := lash.MineContext(ctx, db, opt)
	// The trace is written even for failed or interrupted runs — a
	// truncated span tree still shows where the time went.
	if tr != nil {
		if werr := writeTrace(*traceOut, tr); werr != nil && err == nil {
			return werr
		}
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("interrupted: %w", err)
		}
		return err
	}
	elapsed := time.Since(start)

	w := bufio.NewWriter(out)
	if *items {
		for _, p := range res.FrequentItems {
			fmt.Fprintf(w, "%d\t%s\n", p.Support, p.Items[0])
		}
	}
	for _, p := range res.Patterns {
		fmt.Fprintf(w, "%d\t%s\n", p.Support, strings.Join(p.Items, " "))
	}
	// A full disk must not exit 0: surface flush/close errors.
	if err := w.Flush(); err != nil {
		return err
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			return err
		}
	}
	if !*quiet {
		spilled := ""
		if res.Stats.SpillRuns > 0 {
			spilled = fmt.Sprintf(", %d runs (%s) spilled", res.Stats.SpillRuns, byteCount(res.Stats.SpillBytes))
		}
		fmt.Fprintf(stderr, "lash: %d sequences, %d frequent items, %d patterns, %d partitions, %s shuffled%s, %v\n",
			db.NumSequences(), len(res.FrequentItems), len(res.Patterns),
			res.NumPartitions, byteCount(res.Stats.MapOutputBytes), spilled, elapsed.Round(time.Millisecond))
	}
	return nil
}

// progressPrinter renders progress events as single-line updates on w,
// printing only when the rendered line changes so dense event streams stay
// readable in a log and cheap on a terminal.
func progressPrinter(w io.Writer) func(lash.ProgressEvent) {
	var last string
	return func(e lash.ProgressEvent) {
		line := fmt.Sprintf("lash: %s: %s — map %d/%d, partitions %d/%d, %s shuffled",
			e.Job, e.Phase, e.MapTasksDone, e.MapTasks,
			e.PartitionsMined, e.Partitions, byteCount(e.ShuffleBytes))
		if line == last {
			return
		}
		last = line
		fmt.Fprintln(w, line)
	}
}

// loadDatabase builds the input database from either format: the stream is
// sniffed for the binary corpus magic (which embeds the hierarchy — a
// separate -hierarchy file is then an error), anything else is read as the
// textual one-sequence-per-line format plus the optional hierarchy file.
func loadDatabase(input, hier string, stdin io.Reader) (*lash.Database, error) {
	var src io.Reader
	if input == "-" {
		src = stdin
	} else {
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		src = f
	}
	br := bufio.NewReaderSize(src, 1<<16)
	head, err := br.Peek(len(lash.BinaryMagic))
	if err != nil && err != io.EOF {
		return nil, err
	}
	if string(head) == lash.BinaryMagic {
		if hier != "" {
			return nil, fmt.Errorf("binary corpus %s embeds its hierarchy; drop -hierarchy", input)
		}
		return lash.ReadBinaryDatabase(br)
	}

	b := lash.NewDatabaseBuilder()
	if hier != "" {
		if err := readInto(hier, b.ReadHierarchy); err != nil {
			return nil, err
		}
	}
	if err := b.ReadSequences(br); err != nil {
		return nil, err
	}
	return b.Build()
}

// parseBytes parses a human-friendly byte size: a plain integer, or one
// with a K/M/G/T suffix (powers of 1024; optional i and/or B, so 64M,
// 64MiB, and 64mb all work).
func parseBytes(s string) (int64, error) {
	t := strings.ToUpper(strings.TrimSpace(s))
	t = strings.TrimSuffix(t, "B")
	t = strings.TrimSuffix(t, "I")
	shift := 0
	if len(t) > 0 {
		switch t[len(t)-1] {
		case 'K':
			shift = 10
		case 'M':
			shift = 20
		case 'G':
			shift = 30
		case 'T':
			shift = 40
		}
		if shift != 0 {
			t = t[:len(t)-1]
		}
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad byte size %q (want e.g. 1048576, 64MiB, 2G)", s)
	}
	if n > (int64(1)<<62)>>shift {
		return 0, fmt.Errorf("byte size %q overflows", s)
	}
	return n << shift, nil
}

// writeTrace renders the collected span tree to path.
func writeTrace(path string, tr *lash.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readInto opens path and feeds it to read (ReadSequences/ReadHierarchy).
func readInto(path string, read func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return read(f)
}

func byteCount(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/float64(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/float64(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
