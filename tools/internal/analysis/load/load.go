// Package load type-checks Go packages for the lashvet analyzers without
// any dependency beyond the standard library and the go tool itself:
// package metadata comes from `go list -export -deps -json`, source files
// are parsed with go/parser, and imports are resolved from the compiler
// export data the go command already has in its build cache — the same
// offline mechanism `go vet` uses, reimplemented here because x/tools'
// go/packages is not available to this build.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// ListPackage is the subset of `go list -json` output the loader uses.
type ListPackage struct {
	Dir          string
	ImportPath   string
	Name         string
	Export       string // export data file (with -export)
	GoFiles      []string
	TestGoFiles  []string // _test.go files in the package itself
	XTestGoFiles []string // _test.go files of the external <name>_test package
	Imports      []string
	Deps         []string // transitive imports
	Module       *struct{ Path, Dir string }
	Standard     bool
	DepOnly      bool
	Error        *struct{ Err string }
}

// Package is one parsed and type-checked target package.
type Package struct {
	List  *ListPackage
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Program holds the shared state of one load: the file set, the listed
// package universe, and the export-data importer.
type Program struct {
	Fset    *token.FileSet
	Targets []*Package
	// Dependents are the packages of the modules nested under the load
	// directory that require the target module (this repository's bench/).
	// They are type-checked like targets, so whole-program analyzers can
	// count their references, but nothing is reported on them.
	Dependents []*Package

	exports map[string]string // import path → export data file
	imp     types.ImporterFrom
}

// Load lists patterns (with dependencies) in dir, then parses and
// type-checks every matched non-standard package, and the ./... of every
// dependent module (see Program.Dependents). Listing, parse and type
// errors fail the load.
func Load(dir string, patterns ...string) (*Program, error) {
	prog := &Program{Fset: token.NewFileSet(), exports: make(map[string]string)}
	prog.imp = ExportImporter(prog.Fset, prog.lookup)
	targets, err := prog.list(dir, patterns)
	if err != nil {
		return nil, err
	}
	if prog.Targets, err = prog.checkAll(targets); err != nil {
		return nil, err
	}
	if len(targets) == 0 || targets[0].Module == nil {
		return prog, nil
	}
	mods, err := dependentModules(dir, targets[0].Module.Path)
	if err != nil {
		return nil, err
	}
	for _, mod := range mods {
		lps, err := prog.list(mod, []string{"./..."})
		if err != nil {
			return nil, err
		}
		pkgs, err := prog.checkAll(lps)
		if err != nil {
			return nil, err
		}
		prog.Dependents = append(prog.Dependents, pkgs...)
	}
	return prog, nil
}

// list runs `go list -export -deps` in dir, records every listed
// package's export data, and returns the matched non-standard packages.
func (p *Program) list(dir string, patterns []string) ([]*ListPackage, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var targets []*ListPackage
	dec := json.NewDecoder(out)
	for {
		lp := &ListPackage{}
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			cmd.Wait()
			return nil, fmt.Errorf("load: decoding go list output: %w", err)
		}
		if _, ok := p.exports[lp.ImportPath]; !ok && lp.Export != "" {
			p.exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly && !lp.Standard {
			targets = append(targets, lp)
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("load: go list: %w\n%s", err, stderr.String())
	}
	return targets, nil
}

func (p *Program) checkAll(lps []*ListPackage) ([]*Package, error) {
	pkgs := make([]*Package, 0, len(lps))
	for _, lp := range lps {
		if lp.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkg, err := p.check(lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// dependentModules returns the directories under root whose go.mod
// requires module path: the modules that build against it. Like the go
// command, the walk skips testdata, vendor and dot/underscore directories.
func dependentModules(root, path string) ([]string, error) {
	var mods []string
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || dir == root {
			return err
		}
		if name := d.Name(); name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		gomod := filepath.Join(dir, "go.mod")
		if _, err := os.Stat(gomod); err != nil {
			return nil
		}
		out, err := exec.Command("go", "mod", "edit", "-json", gomod).Output()
		if err != nil {
			return fmt.Errorf("load: go mod edit -json %s: %w", gomod, err)
		}
		var mf struct{ Require []struct{ Path string } }
		if err := json.Unmarshal(out, &mf); err != nil {
			return fmt.Errorf("load: %s: %w", gomod, err)
		}
		for _, r := range mf.Require {
			if r.Path == path {
				mods = append(mods, dir)
				break
			}
		}
		return filepath.SkipDir // a nested module's tree is its own
	})
	return mods, err
}

// CheckTests type-checks the _test.go files of every target and dependent
// package: the package's own files with its in-package test files, and its
// external _test package against that. Each returned Package holds only
// the test files, under the ListPackage of the package they test.
//
// Type errors are ignored. An external test package sees the package it
// tests with its test files, while the other packages it imports were
// compiled against the package without them, so the two copies of a type
// need not unify; what a test file refers to resolves all the same.
func (p *Program) CheckTests() ([]*Package, error) {
	var out []*Package
	missing := make(map[string]map[string]bool) // module dir → test imports without export data
	type testFiles struct {
		pkg       *Package
		in, xtest []*ast.File
	}
	var all []testFiles
	for _, pkg := range append(append([]*Package(nil), p.Targets...), p.Dependents...) {
		lp := pkg.List
		in, err := ParseFiles(p.Fset, lp.Dir, lp.TestGoFiles)
		if err != nil {
			return nil, err
		}
		xtest, err := ParseFiles(p.Fset, lp.Dir, lp.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		for _, f := range append(append([]*ast.File(nil), in...), xtest...) {
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				if _, ok := p.exports[path]; !ok && path != lp.ImportPath && lp.Module != nil {
					if missing[lp.Module.Dir] == nil {
						missing[lp.Module.Dir] = make(map[string]bool)
					}
					missing[lp.Module.Dir][path] = true
				}
			}
		}
		all = append(all, testFiles{pkg, in, xtest})
	}
	for dir, paths := range missing {
		var list []string
		for path := range paths {
			list = append(list, path)
		}
		if _, err := p.list(dir, list); err != nil {
			return nil, err
		}
	}
	for _, t := range all {
		lp, under := t.pkg.List, t.pkg.Pkg
		if len(t.in) > 0 {
			info := NewInfo()
			conf := types.Config{Importer: p.imp, Error: func(error) {}}
			under, _ = conf.Check(lp.ImportPath, p.Fset, append(append([]*ast.File(nil), t.pkg.Files...), t.in...), info)
			out = append(out, &Package{List: lp, Files: t.in, Pkg: under, Info: info})
		}
		if len(t.xtest) > 0 {
			info := NewInfo()
			imp := importerFunc(func(path string) (*types.Package, error) {
				if path == lp.ImportPath {
					return under, nil
				}
				return p.imp.Import(path)
			})
			conf := types.Config{Importer: imp, Error: func(error) {}}
			xpkg, _ := conf.Check(lp.ImportPath+"_test", p.Fset, t.xtest, info)
			out = append(out, &Package{List: lp, Files: t.xtest, Pkg: xpkg, Info: info})
		}
	}
	return out, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (p *Program) lookup(path string) (io.ReadCloser, error) {
	file, ok := p.exports[path]
	if !ok {
		return nil, fmt.Errorf("load: no export data for %q", path)
	}
	return os.Open(file)
}

// check parses the package's GoFiles and type-checks them against the
// export data of their imports. Only non-test files are analyzed — the
// invariants lashvet enforces are production-code contracts, and the
// analyzers' own analysistest-style suites cover test semantics.
func (p *Program) check(lp *ListPackage) (*Package, error) {
	files, err := ParseFiles(p.Fset, lp.Dir, lp.GoFiles)
	if err != nil {
		return nil, err
	}
	info := NewInfo()
	conf := types.Config{Importer: p.imp, Error: func(error) {}}
	tpkg, err := conf.Check(lp.ImportPath, p.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %w", lp.ImportPath, err)
	}
	return &Package{List: lp, Files: files, Pkg: tpkg, Info: info}, nil
}

// ParseFiles parses the named files (relative to dir) with comments.
func ParseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// NewInfo allocates a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// ExportImporter wraps the compiler ("gc") importer with a custom export
// data lookup, sharing fset positions.
func ExportImporter(fset *token.FileSet, lookup func(string) (io.ReadCloser, error)) types.ImporterFrom {
	return importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
}

// StdImporter resolves standard-library imports from build-cache export
// data, shelling out to `go list -export -deps` lazily per unseen path
// (one batch per root import; transitive dependencies land in the same
// batch). It backs the analyzers' testdata loader, where target packages
// live outside any module.
type StdImporter struct {
	mu      sync.Mutex
	exports map[string]string
	imp     types.ImporterFrom
}

// NewStdImporter returns a StdImporter sharing fset.
func NewStdImporter(fset *token.FileSet) *StdImporter {
	s := &StdImporter{exports: make(map[string]string)}
	s.imp = ExportImporter(fset, s.lookup)
	return s
}

// Import type-checks (from export data) the standard-library package.
func (s *StdImporter) Import(path string) (*types.Package, error) {
	return s.imp.ImportFrom(path, "", 0)
}

func (s *StdImporter) lookup(path string) (io.ReadCloser, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if file, ok := s.exports[path]; ok {
		return os.Open(file)
	}
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Export", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go list -export %s: %w\n%s", path, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp ListPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if lp.Export != "" {
			s.exports[lp.ImportPath] = lp.Export
		}
	}
	file, ok := s.exports[path]
	if !ok {
		return nil, fmt.Errorf("load: no export data for %q", path)
	}
	return os.Open(file)
}
