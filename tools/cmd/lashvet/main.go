// Command lashvet runs the lash project-invariant analyzers:
//
//	ctxfirst    context-first parameters, no stored/synthesized contexts
//	atomicfield no plain access to atomically-accessed struct fields
//	obshandle   obs Registry registration only in constructors/init; no held handles in mapreduce/miner
//	emitgo      serialized emit/progress callbacks never cross goroutines
//	errjob      %w-wrapped, job/phase-annotated errors at the boundary
//	faultpoint  fault-injection points are constant, package-prefixed, unique names
//	apierr      server handlers respond non-2xx only through the writeError envelope
//	testonly    every declaration of the module is referenced by production code or a checked example, not only by tests
//
// Usage (the `make lint` gate):
//
//	lashvet [-dir dir] [packages...]
//
// loads the packages (default ./...) via `go list -export`, runs every
// analyzer, prints findings as file:line:col: [analyzer] message, and
// exits 1 if there were any. Diagnostics in _test.go files are skipped:
// the invariants are production-code contracts.
//
// testonly is the one whole-program analyzer. It also reads the packages
// of every module nested under -dir whose go.mod requires the loaded
// module (this repository's bench/), and the test files of both, which it
// type-checks.
//
// Findings are suppressed by a directive on the same line or the line
// above:
//
//	//lashvet:ignore <analyzer>[,<analyzer>] <reason>
//
// The reason is mandatory; malformed directives are themselves reported.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"lash/tools/internal/analysis"
	"lash/tools/internal/analysis/apierr"
	"lash/tools/internal/analysis/atomicfield"
	"lash/tools/internal/analysis/ctxfirst"
	"lash/tools/internal/analysis/emitgo"
	"lash/tools/internal/analysis/errjob"
	"lash/tools/internal/analysis/faultpoint"
	"lash/tools/internal/analysis/load"
	"lash/tools/internal/analysis/obshandle"
	"lash/tools/internal/analysis/testonly"
)

// suite is every analyzer lashvet runs, in reporting order.
var suite = []*analysis.Analyzer{
	ctxfirst.Analyzer,
	atomicfield.Analyzer,
	obshandle.Analyzer,
	emitgo.Analyzer,
	errjob.Analyzer,
	faultpoint.Analyzer,
	apierr.Analyzer,
	testonly.Analyzer,
}

func main() {
	fs := flag.NewFlagSet("lashvet", flag.ExitOnError)
	dir := fs.String("dir", ".", "directory to resolve packages from")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lashvet [-dir dir] [packages...]\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := runStandalone(*dir, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lashvet:", err)
		os.Exit(1)
	}
	for _, f := range findings {
		fmt.Printf("%s: [%s] %s\n", f.pos, f.analyzer, f.msg)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// finding is one reported, unsuppressed diagnostic.
type finding struct {
	pos      token.Position
	analyzer string
	msg      string
}

// runStandalone loads patterns from dir and applies the suite.
func runStandalone(dir string, patterns []string) ([]finding, error) {
	prog, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, p := range prog.Targets {
		files = append(files, p.Files...)
	}
	dirs, bad := analysis.ParseDirectives(prog.Fset, files)
	var out []finding
	add := func(name string, d analysis.Diagnostic) {
		pos := prog.Fset.Position(d.Pos)
		if strings.HasSuffix(pos.Filename, "_test.go") {
			return
		}
		pos.Filename = relify(pos.Filename)
		out = append(out, finding{pos: pos, analyzer: name, msg: d.Message})
	}
	for _, a := range suite {
		var diags []analysis.Diagnostic
		report := func(d analysis.Diagnostic) { diags = append(diags, d) }
		if a.RunProgram != nil {
			if err := a.RunProgram(&analysis.ProgramPass{Prog: prog, Report: report}); err != nil {
				return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
			}
		} else {
			for _, p := range prog.Targets {
				pass := &analysis.Pass{Analyzer: a, Fset: prog.Fset, Files: p.Files, Pkg: p.Pkg, TypesInfo: p.Info, Report: report}
				if err := a.Run(pass); err != nil {
					return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, p.Pkg.Path(), err)
				}
			}
		}
		for _, d := range diags {
			if !analysis.Suppressed(prog.Fset, dirs, a.Name, d.Pos) {
				add(a.Name, d)
			}
		}
	}
	for _, d := range bad {
		add("lashvet", d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out, nil
}

// relify shortens an absolute filename to be relative to the working
// directory when that is tidier.
func relify(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return name
	}
	if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}
