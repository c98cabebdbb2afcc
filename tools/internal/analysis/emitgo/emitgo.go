// Package emitgo enforces the serialized-emit contract (internal/mapreduce
// package doc): emit/progress callbacks handed to Map and Reduce
// functions — and the callbacks callers pass into mapreduce.RunAgg and
// lash.Options.Progress — are invoked serially by
// the framework and are only valid for the duration of the call. User code
// must therefore never invoke such a callback from a `go` statement, hand
// it to a goroutine, store it in a struct field, global, map, slice, or
// channel for later use, or return it.
//
// Mechanically, the analyzer treats every function-typed parameter named
// `emit`, `progress`, or `onEmit` as a serialized callback (those are the
// contract-bearing names throughout the mapreduce/core/miner layers), plus
// any local alias of one (x := emit). Inside the owning function it
// reports:
//
//   - any use of the callback anywhere inside a `go` statement — direct
//     call, capture by the spawned literal, or passing as an argument;
//   - assignments that let the callback outlive the call: stores to
//     struct fields, globals, map/slice elements, composite literals,
//     channel sends, and returns.
//
// Synchronous uses — calling the callback, passing it to an ordinary
// (non-go) call, aliasing it to a local — are allowed.
package emitgo

import (
	"go/ast"
	"go/types"

	"lash/tools/internal/analysis"
)

// Config tunes the analyzer.
type Config struct {
	// Names are parameter names that mark a function-typed parameter as a
	// serialized callback.
	Names []string
}

// DefaultConfig matches the repository's callback naming contract.
func DefaultConfig() Config {
	return Config{Names: []string{"emit", "progress", "onEmit"}}
}

// NewAnalyzer returns an emitgo analyzer with the given configuration.
func NewAnalyzer(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "emitgo",
		Doc:  "emit/progress callbacks are serialized: never invoke them from go statements or store them for later goroutine use",
		Run:  func(pass *analysis.Pass) error { return run(pass, cfg) },
	}
}

// Analyzer is emitgo with DefaultConfig.
var Analyzer = NewAnalyzer(DefaultConfig())

func run(pass *analysis.Pass, cfg Config) error {
	names := make(map[string]bool, len(cfg.Names))
	for _, n := range cfg.Names {
		names[n] = true
	}
	analysis.WalkStack(pass.Files, func(stack []ast.Node) bool {
		var ft *ast.FuncType
		var body *ast.BlockStmt
		switch n := stack[len(stack)-1].(type) {
		case *ast.FuncDecl:
			ft, body = n.Type, n.Body
		case *ast.FuncLit:
			ft, body = n.Type, n.Body
		default:
			return true
		}
		if body == nil || ft.Params == nil {
			return true
		}
		tracked := serializedParams(pass.TypesInfo, ft, names)
		if len(tracked) > 0 {
			checkBody(pass, body, tracked)
		}
		return true
	})
	return nil
}

// serializedParams collects the parameter objects of ft whose name is a
// contract-bearing callback name and whose type is a function type.
func serializedParams(info *types.Info, ft *ast.FuncType, names map[string]bool) map[types.Object]bool {
	tracked := make(map[types.Object]bool)
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if !names[name.Name] {
				continue
			}
			obj := info.Defs[name]
			if obj == nil {
				continue
			}
			if _, ok := obj.Type().Underlying().(*types.Signature); ok {
				tracked[obj] = true
			}
		}
	}
	return tracked
}

// checkBody reports contract violations for the tracked callbacks within
// one function body. Nested function literals that declare their own
// serialized params are handled by their own run() visit; here, nested
// literals matter only insofar as they capture *this* function's params,
// which object-identity tracking resolves naturally.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt, tracked map[types.Object]bool) {
	collectAliases(pass.TypesInfo, body, tracked)

	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch node := n.(type) {
		case *ast.GoStmt:
			if id := firstTrackedIdent(pass.TypesInfo, node, tracked); id != nil {
				pass.Reportf(node.Pos(),
					"serialized callback %s used inside a go statement; the emit contract requires synchronous invocation from the calling goroutine",
					id.Name)
				stack = stack[:len(stack)-1]
				return false // one report per go statement
			}
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[node]; obj != nil && tracked[obj] {
				checkEscape(pass, stack, node)
			}
		}
		return true
	})
}

// collectAliases adds local variables directly bound to a tracked callback
// (x := emit; var y = x) to the tracked set, iterating to a small fixpoint
// for alias-of-alias chains.
func collectAliases(info *types.Info, body *ast.BlockStmt, tracked map[types.Object]bool) {
	for range 4 {
		added := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.AssignStmt:
				if len(node.Lhs) != len(node.Rhs) {
					return true
				}
				for i, rhs := range node.Rhs {
					id, ok := ast.Unparen(rhs).(*ast.Ident)
					if !ok || info.Uses[id] == nil || !tracked[info.Uses[id]] {
						continue
					}
					lhs, ok := ast.Unparen(node.Lhs[i]).(*ast.Ident)
					if !ok {
						continue
					}
					if obj := info.Defs[lhs]; obj != nil && !tracked[obj] {
						tracked[obj] = true
						added = true
					}
				}
			case *ast.ValueSpec:
				for i, v := range node.Values {
					if i >= len(node.Names) {
						break
					}
					id, ok := ast.Unparen(v).(*ast.Ident)
					if !ok || info.Uses[id] == nil || !tracked[info.Uses[id]] {
						continue
					}
					if obj := info.Defs[node.Names[i]]; obj != nil && !tracked[obj] {
						tracked[obj] = true
						added = true
					}
				}
			}
			return true
		})
		if !added {
			return
		}
	}
}

// firstTrackedIdent returns the first identifier under n that uses a
// tracked callback, or nil.
func firstTrackedIdent(info *types.Info, n ast.Node, tracked map[types.Object]bool) *ast.Ident {
	var found *ast.Ident
	ast.Inspect(n, func(m ast.Node) bool {
		if found != nil {
			return false
		}
		if id, ok := m.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && tracked[obj] {
				found = id
				return false
			}
		}
		return true
	})
	return found
}

// checkEscape reports uses of a tracked callback ident that let it outlive
// the owning call: non-local assignment targets, composite literals,
// channel sends, and returns.
func checkEscape(pass *analysis.Pass, stack []ast.Node, id *ast.Ident) {
	if len(stack) < 2 {
		return
	}
	for i := len(stack) - 2; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.AssignStmt:
			// Only RHS occurrences can escape; locate the paired LHS.
			for j, rhs := range parent.Rhs {
				if !contains(rhs, id) {
					continue
				}
				if j < len(parent.Lhs) && len(parent.Lhs) == len(parent.Rhs) {
					if lhs, ok := ast.Unparen(parent.Lhs[j]).(*ast.Ident); ok {
						if lhs.Name == "_" {
							return // discarded, cannot escape
						}
						if obj := pass.TypesInfo.Defs[lhs]; obj != nil {
							return // alias declaration, tracked separately
						}
						if obj := pass.TypesInfo.Uses[lhs]; obj != nil && isLocalVar(pass, obj) {
							return // reassignment of a local, still tracked
						}
					}
				}
				pass.Reportf(id.Pos(),
					"serialized callback %s stored outside the call (assignment target is not a local variable); it must not outlive the Run/Mine/Stream call",
					id.Name)
				return
			}
			return
		case *ast.CompositeLit:
			pass.Reportf(id.Pos(),
				"serialized callback %s stored in a composite literal; it must not outlive the Run/Mine/Stream call", id.Name)
			return
		case *ast.SendStmt:
			if contains(parent.Value, id) {
				pass.Reportf(id.Pos(),
					"serialized callback %s sent on a channel; it must not outlive the Run/Mine/Stream call", id.Name)
			}
			return
		case *ast.ReturnStmt:
			pass.Reportf(id.Pos(),
				"serialized callback %s returned from the function; it must not outlive the Run/Mine/Stream call", id.Name)
			return
		case *ast.CallExpr, *ast.ExprStmt, *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.CaseClause, *ast.FuncLit, *ast.FuncDecl:
			// Calling it, passing it synchronously, or plain statement
			// context: allowed. Stop climbing at expression/statement
			// boundaries that cannot smuggle the value out.
			return
		}
	}
}

// contains reports whether id occurs within expr.
func contains(expr ast.Node, id *ast.Ident) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if n == id {
			found = true
		}
		return !found
	})
	return found
}

// isLocalVar reports whether obj is a function-local variable (not a
// field, not package-level).
func isLocalVar(pass *analysis.Pass, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return v.Parent() != pass.Pkg.Scope() && v.Parent() != nil
}
