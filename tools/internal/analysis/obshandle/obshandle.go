// Package obshandle enforces the repository's hot-path handle contract
// (internal/obs package doc; PR 6's zero-alloc requirement): obs Registry
// registration/lookup calls — Counter, Gauge, Histogram, OnScrape — hash
// names and take the registry lock, so they belong in constructors and
// init, never in loops and never anywhere in the map/reduce/mine hot
// packages. Record-time code must use pre-bound handles (Counter.Add,
// Gauge.Set, ...), which are one or two atomics each.
//
// The analyzer reports a Registry registration/lookup call that is
//
//  1. anywhere inside a hot package (by default any package whose
//     import-path base is mapreduce, miner, core, or gsm — the layers
//     reachable from the mining inner loops), or
//  2. inside a for/range loop, or
//  3. in a function that is not a constructor: allowed are init, main,
//     New*/new* functions, Register*/register*/instrument* helpers, and
//     package-level variable initializers.
//
// The package that defines Registry is exempt — its method bodies are the
// implementation being wrapped, not a use site.
//
// It also keeps each event's record single in the packages that count into
// a run's own record (mapreduce and miner): any struct field or variable
// there whose type is an obs Counter, Gauge or Histogram, or a bundle of
// them — PipelineMetrics, JobPhases — (or a pointer to one) is reported.
// Those packages count into the run's obs.RunCounters, which
// obs.PipelineMetrics.AddRun adds to the process-wide families once, when
// the run ends; a handle held beside it would count the same event twice.
// A handle passed in as a parameter is not held and is not reported.
package obshandle

import (
	"go/ast"
	"go/types"

	"lash/tools/internal/analysis"
)

// Config tunes the analyzer.
type Config struct {
	// HotPackages are import-path bases in which any registration/lookup
	// call is reported regardless of position.
	HotPackages []string
}

// DefaultConfig matches this repository's hot layers.
func DefaultConfig() Config {
	return Config{HotPackages: []string{"mapreduce", "miner", "core", "gsm"}}
}

// runRecordPackages are the import-path bases of the packages that count
// into a run's own record, in which no field or variable may hold a handle.
var runRecordPackages = []string{"mapreduce", "miner"}

// handleTypes are the obs metric handle types and the bundles of them.
var handleTypes = []string{"Counter", "Gauge", "Histogram", "PipelineMetrics", "JobPhases"}

// registryMethods are the obs.Registry methods that hash and lock.
var registryMethods = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
	"OnScrape":  true,
}

// NewAnalyzer returns an obshandle analyzer with the given configuration.
func NewAnalyzer(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "obshandle",
		Doc:  "obs Registry registration/lookup only in constructors/init — never in loops or hot-path packages; record through pre-bound handles, and hold none in the packages that count into a run's own record",
		Run:  func(pass *analysis.Pass) error { return run(pass, cfg) },
	}
}

// Analyzer is obshandle with DefaultConfig.
var Analyzer = NewAnalyzer(DefaultConfig())

func run(pass *analysis.Pass, cfg Config) error {
	// The defining package's own method bodies are the implementation.
	if pass.Pkg.Scope().Lookup("Registry") != nil && analysis.PathBase(pass.Pkg.Path()) == "obs" {
		return nil
	}
	hot := false
	for _, h := range cfg.HotPackages {
		if analysis.PathBase(pass.Pkg.Path()) == h {
			hot = true
		}
	}
	for _, p := range runRecordPackages {
		if analysis.PathBase(pass.Pkg.Path()) == p {
			reportHeldHandles(pass)
		}
	}

	analysis.WalkStack(pass.Files, func(stack []ast.Node) bool {
		call, ok := stack[len(stack)-1].(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := registryMethodCall(pass, call)
		if !ok {
			return true
		}
		switch {
		case hot:
			pass.Reportf(call.Pos(),
				"obs Registry.%s call in hot package %s; register once at construction and pass the handle in",
				name, pass.Pkg.Path())
		case inLoop(stack):
			pass.Reportf(call.Pos(),
				"obs Registry.%s call inside a loop; registration hashes and locks — hoist to a constructor and reuse the handle",
				name)
		case !inConstructor(stack):
			pass.Reportf(call.Pos(),
				"obs Registry.%s call outside a constructor/init (in %s); register once and record through the pre-bound handle",
				name, enclosingFuncName(stack))
		}
		return true
	})
	return nil
}

// reportHeldHandles reports every struct field and variable of the package
// whose type is an obs metric handle; parameters and results are skipped.
func reportHeldHandles(pass *analysis.Pass) {
	params := map[*ast.Ident]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ft, ok := n.(*ast.FuncType); ok {
				for _, fl := range []*ast.FieldList{ft.Params, ft.Results} {
					if fl == nil {
						continue
					}
					for _, field := range fl.List {
						for _, name := range field.Names {
							params[name] = true
						}
					}
				}
			}
			return true
		})
	}
	for id, obj := range pass.TypesInfo.Defs {
		v, ok := obj.(*types.Var)
		if !ok || params[id] {
			continue
		}
		for _, name := range handleTypes {
			if analysis.TypeFromPkg(v.Type(), "obs", name) {
				pass.Reportf(id.Pos(),
					"obs.%s handle %s held in %s; count into the run's obs.RunCounters, which are added to the process-wide families once, when the run ends",
					name, id.Name, pass.Pkg.Path())
			}
		}
	}
}

// registryMethodCall reports whether call invokes a registration/lookup
// method on an obs.Registry receiver, returning the method name.
func registryMethodCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !registryMethods[sel.Sel.Name] {
		return "", false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || !analysis.TypeFromPkg(tv.Type, "obs", "Registry") {
		return "", false
	}
	return sel.Sel.Name, true
}

// inLoop reports whether the innermost enclosing statement context within
// the current function is a for or range loop.
func inLoop(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncDecl:
			return false
			// A func literal inside a loop still runs per iteration when
			// called there, so keep scanning past *ast.FuncLit.
		}
	}
	return false
}

// inConstructor reports whether the call sits in a function whose job is
// one-time wiring: init, main, New*/new*, Register*/register*,
// instrument*, or a package-level variable initializer (no enclosing
// function at all).
func inConstructor(stack []ast.Node) bool {
	name := enclosingFuncName(stack)
	if name == "" {
		return true // package-level var initializer
	}
	switch {
	case name == "init" || name == "main":
		return true
	case hasPrefix(name, "New") || hasPrefix(name, "new"):
		return true
	case hasPrefix(name, "Register") || hasPrefix(name, "register"):
		return true
	case hasPrefix(name, "instrument") || hasPrefix(name, "Instrument"):
		return true
	}
	return false
}

// enclosingFuncName names the innermost FuncDecl on the stack, or "" at
// package level.
func enclosingFuncName(stack []ast.Node) string {
	for i := len(stack) - 2; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd.Name.Name
		}
	}
	return ""
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}
