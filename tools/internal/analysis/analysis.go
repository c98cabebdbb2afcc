// Package analysis is a dependency-free reimplementation of the
// golang.org/x/tools/go/analysis surface that the lashvet analyzers are
// written against. The build environment for this repository forbids
// external module requirements (the root module has zero and the tools
// module keeps zero), so instead of importing x/tools we mirror the small
// slice of its API the suite needs: Analyzer, Pass, Diagnostic, and a
// driver-side suppression filter for `//lashvet:ignore` directives. The
// analyzers themselves are plain Run(*Pass) functions over go/ast +
// go/types, so they would port to the real go/analysis framework by
// swapping this import. The one addition is RunProgram, for an analyzer
// that needs every package at once (testonly).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"lash/tools/internal/analysis/load"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//lashvet:ignore <name> <reason>` suppression directives.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run applies the analyzer to one type-checked package.
	Run func(*Pass) error
	// RunProgram, set in place of Run, applies the analyzer once to the
	// whole loaded program, for a contract no single package can decide.
	RunProgram func(*ProgramPass) error
}

// Pass carries one type-checked package through an analyzer run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver applies suppression
	// directives after the pass completes.
	Report func(Diagnostic)
}

// ProgramPass carries a whole loaded program through an analyzer run.
type ProgramPass struct {
	Prog   *load.Program
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position and a message.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// WalkStack traverses every node of every file, calling fn with the
// ancestor stack (stack[len(stack)-1] is the current node). Returning
// false prunes the subtree.
func WalkStack(files []*ast.File, fn func(stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if !fn(stack) {
				stack = stack[:len(stack)-1] // Inspect will not send the pop
				return false
			}
			return true
		})
	}
}

// IgnorePrefix is the suppression directive marker. A directive has the
// form
//
//	//lashvet:ignore <analyzer>[,<analyzer>...] <reason>
//
// and suppresses the named analyzers' diagnostics on the directive's line
// and on the line immediately below it (so it can sit on its own line
// above the flagged statement or trail the statement itself). The reason
// is mandatory: a directive without one is itself reported by the driver.
const IgnorePrefix = "//lashvet:ignore"

// Directive is one parsed //lashvet:ignore comment.
type Directive struct {
	Pos       token.Pos
	Line      int // line the directive sits on
	Analyzers []string
	Reason    string
}

// ParseDirectives extracts every //lashvet:ignore directive from the
// files' comments. Malformed directives (no analyzer list or no reason)
// are returned in bad.
func ParseDirectives(fset *token.FileSet, files []*ast.File) (dirs []Directive, bad []Diagnostic) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, IgnorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, IgnorePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lashvet:ignorefoo — not ours
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:     c.Pos(),
						Message: "malformed lashvet:ignore directive: want `//lashvet:ignore <analyzer> <reason>`",
					})
					continue
				}
				dirs = append(dirs, Directive{
					Pos:       c.Pos(),
					Line:      fset.Position(c.Pos()).Line,
					Analyzers: strings.Split(fields[0], ","),
					Reason:    strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return dirs, bad
}

// Suppressed reports whether a diagnostic of the named analyzer at pos is
// covered by one of the directives: same file line, or the line directly
// above the diagnostic.
func Suppressed(fset *token.FileSet, dirs []Directive, name string, pos token.Pos) bool {
	if len(dirs) == 0 {
		return false
	}
	p := fset.Position(pos)
	for _, d := range dirs {
		dp := fset.Position(d.Pos)
		if dp.Filename != p.Filename {
			continue
		}
		if d.Line != p.Line && d.Line != p.Line-1 {
			continue
		}
		for _, a := range d.Analyzers {
			if a == name {
				return true
			}
		}
	}
	return false
}

// PathHasElement reports whether the slash-separated import path contains
// elem as a whole element ("lash/internal/obs" has "internal").
func PathHasElement(path, elem string) bool {
	for _, e := range strings.Split(path, "/") {
		if e == elem {
			return true
		}
	}
	return false
}

// PathBase returns the last element of an import path.
func PathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// NamedOf unwraps pointers and aliases down to the named type, or nil.
func NamedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// TypeFromPkg reports whether t (after unwrapping pointers) is the named
// type pkgBase.typeName, where pkgBase matches the defining package's
// import-path base — so "obs.Registry" matches both the real
// lash/internal/obs and a testdata stub package imported as plain "obs".
func TypeFromPkg(t types.Type, pkgBase, typeName string) bool {
	named := NamedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Name() != typeName || obj.Pkg() == nil {
		return false
	}
	return PathBase(obj.Pkg().Path()) == pkgBase
}

// CalleeFunc resolves the *types.Func a call expression invokes (static
// calls and method calls), or nil for calls through function values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation: Run[I, K, V, R](...)
		switch x := ast.Unparen(fun.X).(type) {
		case *ast.Ident:
			id = x
		case *ast.SelectorExpr:
			id = x.Sel
		}
	case *ast.IndexListExpr:
		switch x := ast.Unparen(fun.X).(type) {
		case *ast.Ident:
			id = x
		case *ast.SelectorExpr:
			id = x.Sel
		}
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
