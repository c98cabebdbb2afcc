// Package testonly enforces that production code holds only what
// production calls: every package-level function, type, variable,
// constant and method declared in any package of the module, exported or
// not, is referenced by a program outside the symbol's own declaration.
// A program is a non-test file of the module, or of a module nested under
// it that builds against it (this repository's bench/), or an Example
// function with a checked "// Output:" comment: go test runs it and
// compares what it prints, so it is a caller of the public API that the
// tests keep working. A type's methods count as part of its declaration,
// so a type named only in its own receivers is unused. Each other symbol
// is reported as "unused", or as "used only by tests of this package"
// when its own package's tests name it: delete it, or move it into the
// package's _test.go files.
//
// Three kinds of symbol are not reported, each worked out from the code:
//   - a method that implements a method of an interface type the program
//     declares, imports or writes inline (String, Error, a miner's Mine):
//     it is called through the interface;
//   - any symbol of a non-main package that no production file imports (a
//     package of test fixtures), since all of it exists for tests;
//   - a symbol that the _test.go files of another package use, because Go
//     cannot move an API shared across packages' tests into a test file.
//
// Test files are type-checked like production files, so a method call in
// a test resolves to the method it calls, not to every method of that name.
package testonly

import (
	"go/ast"
	"go/doc"
	"go/types"

	"lash/tools/internal/analysis"
	"lash/tools/internal/analysis/load"
)

// Analyzer is the whole-program testonly pass.
var Analyzer = &analysis.Analyzer{
	Name:       "testonly",
	Doc:        "declarations are referenced by production code or checked examples, not only by tests",
	RunProgram: run,
}

func run(pass *analysis.ProgramPass) error {
	prog := pass.Prog
	all := append(append([]*load.Package(nil), prog.Targets...), prog.Dependents...)
	used := make(map[string]bool)
	imported := make(map[string]bool)
	for _, p := range all {
		collectUses(p, used)
		for _, imp := range p.List.Imports {
			imported[imp] = true
		}
	}
	implements := interfaceMethods(all)
	tests, err := scanTests(prog, used)
	if err != nil {
		return err
	}
	for _, p := range prog.Targets {
		path := p.Pkg.Path()
		if p.Pkg.Name() != "main" && !imported[path] {
			continue
		}
		for _, d := range declared(p) {
			k := key(d.obj)
			owners := tests[k]
			if used[k] || implements[k] || len(owners) > 1 || len(owners) == 1 && !owners[path] {
				continue
			}
			if owners[path] {
				pass.Reportf(d.id.Pos(), "%s is used only by tests of this package", d.name)
			} else {
				pass.Reportf(d.id.Pos(), "%s is unused", d.name)
			}
		}
	}
	return nil
}

// decl is one checked package-level symbol.
type decl struct {
	id   *ast.Ident
	obj  types.Object
	name string // "F", or "T.M" for a method
}

// declared lists the package's package-level symbols, skipping blank
// names, init and main.
func declared(p *load.Package) []decl {
	var out []decl
	add := func(id *ast.Ident, name string) {
		if obj := p.Info.Defs[id]; obj != nil && id.Name != "_" {
			out = append(out, decl{id: id, obj: obj, name: name})
		}
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					if d.Name.Name != "init" && d.Name.Name != "main" {
						add(d.Name, d.Name.Name)
					}
				} else if recv := recvType(p.Info, d); recv != nil {
					add(d.Name, recv.Name()+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec.Name.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, id.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// collectUses records the key of every package-level symbol or method the
// package's files reference outside the symbol's own declaration.
func collectUses(p *load.Package, used map[string]bool) {
	record := func(n ast.Node, own ...types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.Info.Uses[id]
			if obj == nil {
				return true
			}
			for _, o := range own {
				if o == obj {
					return true
				}
			}
			if k := key(obj); k != "" {
				used[k] = true
			}
			return true
		})
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				own := []types.Object{p.Info.Defs[d.Name]}
				if recv := recvType(p.Info, d); recv != nil {
					own = append(own, recv)
				}
				record(d, own...)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var own []types.Object
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						own = append(own, p.Info.Defs[spec.Name])
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							own = append(own, p.Info.Defs[id])
						}
					}
					record(spec, own...)
				}
			}
		}
	}
}

// recvType is the named type a method is declared on, or nil.
func recvType(info *types.Info, d *ast.FuncDecl) *types.TypeName {
	fn, ok := info.Defs[d.Name].(*types.Func)
	if !ok || fn.Signature().Recv() == nil {
		return nil
	}
	if named := analysis.NamedOf(fn.Signature().Recv().Type()); named != nil {
		return named.Obj()
	}
	return nil
}

// key names a package-level symbol ("path.F") or a method of a named type
// ("path.T.M") the same way whether the object was type-checked from
// source or read from export data; it is "" for anything else.
func key(obj types.Object) string {
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		if named := analysis.NamedOf(fn.Signature().Recv().Type()); named != nil {
			return pkg.Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
		return ""
	}
	if obj.Parent() != pkg.Scope() {
		return "" // a local, a field or a parameter
	}
	return pkg.Path() + "." + obj.Name()
}

// interfaceMethods returns the keys of the methods through which a named
// type of the program implements a non-empty interface: one declared in a
// package of the program or its imports, written inline in its code, or
// error.
func interfaceMethods(pkgs []*load.Package) map[string]bool {
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Pkg)
		for _, tv := range p.Info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
	}
	out := make(map[string]bool)
	for _, p := range pkgs {
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() > 0 {
				continue // Implements is unspecified for a generic type
			}
			for _, t := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				mset := types.NewMethodSet(t)
				if mset.Len() == 0 {
					continue
				}
				for _, it := range ifaces {
					m0 := it.Method(0)
					if mset.Lookup(m0.Pkg(), m0.Name()) == nil || !types.Implements(t, it) {
						continue
					}
					for i := 0; i < it.NumMethods(); i++ {
						m := it.Method(i)
						if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
							out[key(sel.Obj())] = true
						}
					}
				}
			}
		}
	}
	return out
}

// scanTests type-checks the program's test files and maps the key of each
// symbol they refer to to the packages whose tests refer to it. The keys
// that a checked example refers to (go/doc's reading of the file: the
// example's body, or its whole file when that is the example) are marked
// in used.
func scanTests(prog *load.Program, used map[string]bool) (map[string]map[string]bool, error) {
	tests, err := prog.CheckTests()
	if err != nil {
		return nil, err
	}
	t := make(map[string]map[string]bool)
	for _, p := range tests {
		owner := p.List.ImportPath
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] != nil {
					if k := key(p.Info.Uses[id]); k != "" {
						if t[k] == nil {
							t[k] = make(map[string]bool)
						}
						t[k][owner] = true
					}
				}
				return true
			})
			for _, ex := range doc.Examples(f) {
				if ex.Output == "" && !ex.EmptyOutput {
					continue // compiled but never run
				}
				ast.Inspect(ex.Code, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] != nil {
						if k := key(p.Info.Uses[id]); k != "" {
							used[k] = true
						}
					}
					return true
				})
			}
		}
	}
	return t, nil
}
