// Command lashvet runs the lash project-invariant analyzers:
//
//	ctxfirst    context-first parameters, no stored/synthesized contexts
//	atomicfield no plain access to atomically-accessed struct fields
//	obshandle   obs Registry registration only in constructors/init; no held handles in mapreduce/miner
//	emitgo      serialized emit/progress callbacks never cross goroutines
//	errjob      %w-wrapped, job/phase-annotated errors at the boundary
//	faultpoint  fault-injection points are constant, package-prefixed, unique names
//	apierr      server handlers respond non-2xx only through the writeError envelope
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
	"go/types"
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
	var findings []finding
	for _, p := range prog.Targets {
		fs, err := analyzePackage(prog.Fset, p.Files, p.Pkg, p.Info)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	return findings, nil
}

// analyzePackage runs every analyzer over one type-checked package,
// applies //lashvet:ignore suppression, reports malformed directives, and
// drops findings in _test.go files. Results are position-sorted.
func analyzePackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]finding, error) {
	dirs, bad := analysis.ParseDirectives(fset, files)
	var out []finding
	add := func(name string, d analysis.Diagnostic) {
		pos := fset.Position(d.Pos)
		if strings.HasSuffix(pos.Filename, "_test.go") {
			return
		}
		pos.Filename = relify(pos.Filename)
		out = append(out, finding{pos: pos, analyzer: name, msg: d.Message})
	}
	for _, a := range suite {
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path(), err)
		}
		for _, d := range diags {
			if analysis.Suppressed(fset, dirs, a.Name, d.Pos) {
				continue
			}
			add(a.Name, d)
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
