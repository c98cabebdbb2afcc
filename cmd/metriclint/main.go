// Command metriclint checks Prometheus text expositions for the naming and
// structure rules promlint enforces: HELP/TYPE before samples, counters
// ending in _total, base units (seconds, bytes), cumulative histogram
// buckets terminated by +Inf, sorted contiguous families, and no duplicate
// families or series.
//
// Usage:
//
//	metriclint              # lint the server's own /metrics exposition
//	metriclint FILE...      # lint saved scrapes (- = stdin)
//
// With no arguments it builds the production registry (exactly what lashd
// serves on /metrics) and lints that, so `go run ./cmd/metriclint` in CI
// fails the build when someone registers a non-conforming metric. Exits 1
// and prints one line per problem when the exposition is dirty.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"

	"lash/internal/obs"
	"lash/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "metriclint:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) == 0 {
		var buf bytes.Buffer
		if err := selfScrape(&buf); err != nil {
			return err
		}
		return lint("registry", &buf, stdout)
	}
	var firstErr error
	for _, path := range args {
		var (
			src  io.Reader
			name = path
		)
		if path == "-" {
			src, name = stdin, "stdin"
		} else {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			src = f
		}
		err := lint(name, src, stdout)
		if c, ok := src.(io.Closer); ok {
			c.Close()
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// selfScrape writes the production registry's exposition: a throwaway
// server.New registers every metric family lashd would serve.
func selfScrape(w io.Writer) error {
	srv := server.New(server.Config{Workers: 1})
	defer srv.Close(context.Background()) //nolint:errcheck // throwaway instance
	return srv.WriteMetrics(w)
}

func lint(name string, r io.Reader, out io.Writer) error {
	problems, err := obs.LintPrometheus(r)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for _, p := range problems {
		fmt.Fprintf(out, "%s: %s\n", name, p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s: %d problem(s)", name, len(problems))
	}
	return nil
}
