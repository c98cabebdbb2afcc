// Package vettest is an analysistest-style harness for the lashvet
// analyzers: it loads a package from a testdata/src tree, runs one
// analyzer over it with the same driver-side suppression filtering the
// real lashvet binary applies, and compares the surviving diagnostics
// against `// want "regexp"` comments in the source.
//
// Layout mirrors x/tools' analysistest: Run(t, dir, analyzer, "a") loads
// dir/src/a. Stub packages placed next to the target (dir/src/obs,
// dir/src/mapreduce, ...) resolve imports like "obs" — the analyzers
// match types by import-path base precisely so stubs exercise the same
// code paths as the real tree. Standard-library imports resolve from the
// build cache's export data.
//
// A whole-program analyzer is checked with RunProgram, over a real module
// under testdata (its own go.mod), loaded as lashvet loads the repository.
package vettest

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"lash/tools/internal/analysis"
	"lash/tools/internal/analysis/load"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(wd, "testdata")
}

// Run loads each named package from dir/src/<pkg>, applies the analyzer,
// filters diagnostics through //lashvet:ignore directives (reporting
// malformed ones), and checks the result against // want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	imp := newTestImporter(dir)
	for _, pkg := range pkgs {
		t.Run(pkg, func(t *testing.T) {
			runOne(t, imp, a, pkg)
		})
	}
}

func runOne(t *testing.T, imp *testImporter, a *analysis.Analyzer, pkg string) {
	t.Helper()
	tp, err := imp.loadLocal(pkg)
	if err != nil {
		t.Fatalf("loading %s: %v", pkg, err)
	}
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      imp.fset,
		Files:     tp.files,
		Pkg:       tp.pkg,
		TypesInfo: tp.info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("analyzer %s: %v", a.Name, err)
	}
	diags = Filter(imp.fset, tp.files, a.Name, diags)
	check(t, imp.fset, tp.files, diags)
}

// RunProgram loads the module at dir, with the modules nested under it
// that require it, applies the whole-program analyzer, filters the
// diagnostics through //lashvet:ignore directives, and checks them against
// the // want comments of the module's non-test files.
func RunProgram(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	prog, err := load.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	var diags []analysis.Diagnostic
	pass := &analysis.ProgramPass{
		Prog:   prog,
		Report: func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.RunProgram(pass); err != nil {
		t.Fatalf("analyzer %s: %v", a.Name, err)
	}
	var files []*ast.File
	for _, p := range prog.Targets {
		files = append(files, p.Files...)
	}
	check(t, prog.Fset, files, Filter(prog.Fset, files, a.Name, diags))
}

// Filter applies the driver-side suppression pass: diagnostics covered by
// a //lashvet:ignore directive for name are dropped, and malformed
// directives are reported as diagnostics of their own — the same
// ParseDirectives/Suppressed pass lashvet applies, so testdata exercises
// production semantics.
func Filter(fset *token.FileSet, files []*ast.File, name string, diags []analysis.Diagnostic) []analysis.Diagnostic {
	dirs, bad := analysis.ParseDirectives(fset, files)
	kept := diags[:0]
	for _, d := range diags {
		if !analysis.Suppressed(fset, dirs, name, d.Pos) {
			kept = append(kept, d)
		}
	}
	return append(kept, bad...)
}

// want is one expectation: a line in a file and a message pattern.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantRE extracts the quoted patterns of a want comment.
var wantRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"|` + "`[^`]*`")

// parseWants scans // want comments. A want applies to the line it sits
// on; several quoted patterns may follow one marker.
func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if !strings.HasPrefix(strings.TrimSpace(text), "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range wantRE.FindAllString(text[idx:], -1) {
					pat := q
					if q[0] == '"' {
						var err error
						pat, err = strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
						}
					} else {
						pat = strings.Trim(q, "`")
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// check matches diagnostics against wants 1:1 by file+line+pattern.
func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants := parseWants(t, fset, files)
diag:
	for _, d := range diags {
		p := fset.Position(d.Pos)
		for _, w := range wants {
			if !w.matched && w.file == p.Filename && w.line == p.Line && w.re.MatchString(d.Message) {
				w.matched = true
				continue diag
			}
		}
		t.Errorf("%s: unexpected diagnostic: %s", p, d.Message)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// testImporter resolves imports first from dir/src (stub packages), then
// from standard-library export data.
type testImporter struct {
	fset *token.FileSet
	src  string
	std  *load.StdImporter
	pkgs map[string]*testPkg
}

type testPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newTestImporter(dir string) *testImporter {
	fset := token.NewFileSet()
	return &testImporter{
		fset: fset,
		src:  filepath.Join(dir, "src"),
		std:  load.NewStdImporter(fset),
		pkgs: make(map[string]*testPkg),
	}
}

// Import implements types.Importer over stubs-then-stdlib.
func (imp *testImporter) Import(path string) (*types.Package, error) {
	if st, err := os.Stat(filepath.Join(imp.src, path)); err == nil && st.IsDir() {
		tp, err := imp.loadLocal(path)
		if err != nil {
			return nil, err
		}
		return tp.pkg, nil
	}
	return imp.std.Import(path)
}

// loadLocal parses and type-checks the stub/target package at src/<path>.
func (imp *testImporter) loadLocal(path string) (*testPkg, error) {
	if tp, ok := imp.pkgs[path]; ok {
		return tp, nil
	}
	dir := filepath.Join(imp.src, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("vettest: no .go files in %s", dir)
	}
	files, err := load.ParseFiles(imp.fset, dir, names)
	if err != nil {
		return nil, err
	}
	info := load.NewInfo()
	conf := types.Config{Importer: imp, Error: func(error) {}}
	pkg, err := conf.Check(path, imp.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("vettest: type-checking %s: %w", path, err)
	}
	tp := &testPkg{pkg: pkg, files: files, info: info}
	imp.pkgs[path] = tp
	return tp, nil
}
