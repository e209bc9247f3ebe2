// Package wsalias flags results that alias pooled workspace memory escaping
// past the workspace's release.
//
// A *result.Result produced by a workspace-backed run (core.Run, reached
// through engine.Run and the facade's RunWorkspace) shares its
// Roles/CoreClusterID/NonCore backing arrays with the engine.Workspace that
// computed it. Once the workspace goes back to the pool (Pool.Release /
// Pool.Put), the next Acquire scribbles over those arrays — so any result
// that is returned, cached, or stored after the release must first be
// detached with Clone(). This analyzer is the static twin of the
// reflection-based Clone completeness test in internal/result.
package wsalias

import (
	"go/ast"
	"go/token"
	"go/types"

	"ppscan/internal/lint/framework"
)

// Analyzer is the wsalias analyzer.
var Analyzer = &framework.Analyzer{
	Name:      "wsalias",
	Directive: "wsalias",
	Doc: "flags a *result.Result obtained from a workspace-backed run that is returned, " +
		"cached or stored after the workspace's Pool.Release/Put without an intervening " +
		"Clone(); suppress deliberate aliasing with //lint:wsalias <reason>",
	Run: run,
}

const (
	enginePath = "ppscan/internal/engine"
	resultPath = "ppscan/internal/result"
)

// sinkMethods are call names that durably store their arguments (caches,
// maps, registries).
var sinkMethods = map[string]bool{
	"add": true, "Add": true,
	"put": true, "Put": true,
	"set": true, "Set": true,
	"store": true, "Store": true,
	"cache": true, "Cache": true,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

// checkFunc applies a position-ordered, flow-insensitive escape check
// inside one function: it only fires in functions that actually release a
// workspace, and within those, flags tainted result variables reaching a
// sink positioned after the first release with no Clone() reassignment
// before the sink.
func checkFunc(pass *framework.Pass, fn *ast.FuncDecl) {
	releasePos := token.Pos(-1)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := framework.CalleeName(call)
		if (name == "Release" || name == "Put") && receiverIsPool(pass, call) {
			if releasePos == token.Pos(-1) || call.Pos() < releasePos {
				releasePos = call.Pos()
			}
		}
		return true
	})
	if releasePos == token.Pos(-1) {
		return
	}

	tainted := map[types.Object]token.Pos{} // result var -> taint position
	cloned := map[types.Object][]token.Pos{}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil || !framework.IsNamed(obj.Type(), resultPath, "Result") {
				continue
			}
			if rhs := matchingRHS(as, i); rhs != nil {
				if isCloneCall(rhs) {
					cloned[obj] = append(cloned[obj], as.Pos())
				} else if isWorkspaceRun(pass, rhs) {
					tainted[obj] = as.Pos()
				}
			}
		}
		return true
	})
	if len(tainted) == 0 {
		return
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if obj := resultVar(pass, res, tainted); obj != nil {
					report(pass, n.Pos(), obj, releasePos, cloned, "returned")
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				switch ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					if rhs := matchingRHS(n, i); rhs != nil {
						if obj := resultVar(pass, rhs, tainted); obj != nil {
							report(pass, n.Pos(), obj, releasePos, cloned, "stored")
						}
					}
				}
			}
		case *ast.CallExpr:
			if !sinkMethods[framework.CalleeName(n)] {
				return true
			}
			for _, arg := range n.Args {
				if obj := resultVar(pass, arg, tainted); obj != nil {
					report(pass, n.Pos(), obj, releasePos, cloned, "cached")
				}
			}
		}
		return true
	})
}

func report(pass *framework.Pass, pos token.Pos, obj types.Object, releasePos token.Pos, cloned map[types.Object][]token.Pos, how string) {
	if pos < releasePos {
		return // sink happens while the workspace is still owned
	}
	for _, cp := range cloned[obj] {
		if cp < pos {
			return // detached before reaching the sink
		}
	}
	pass.Reportf(pos, "workspace-backed result %q %s after Pool release without Clone(); it aliases pooled workspace memory", obj.Name(), how)
}

// matchingRHS maps the i-th LHS of an assignment to its RHS expression,
// handling both 1:1 and tuple (multi-value call) forms.
func matchingRHS(as *ast.AssignStmt, i int) ast.Expr {
	if len(as.Lhs) == len(as.Rhs) {
		return as.Rhs[i]
	}
	if len(as.Rhs) == 1 {
		return as.Rhs[0]
	}
	return nil
}

func isCloneCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && framework.CalleeName(call) == "Clone"
}

// isWorkspaceRun reports whether e is a call that takes a *engine.Workspace
// argument and produces a *result.Result — the shape of every
// workspace-backed run entry point (core.Run, engine.Run, facade
// RunWorkspace, server runFn).
func isWorkspaceRun(pass *framework.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	hasWS := false
	for _, arg := range call.Args {
		if framework.IsNamed(pass.TypesInfo.TypeOf(arg), enginePath, "Workspace") {
			hasWS = true
			break
		}
	}
	if !hasWS {
		return false
	}
	switch t := pass.TypesInfo.TypeOf(call).(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if framework.IsNamed(t.At(i).Type(), resultPath, "Result") {
				return true
			}
		}
	default:
		return framework.IsNamed(t, resultPath, "Result")
	}
	return false
}

// resultVar resolves e to a tainted result variable, if it is one.
func resultVar(pass *framework.Pass, e ast.Expr, tainted map[types.Object]token.Pos) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return nil
	}
	if _, ok := tainted[obj]; !ok {
		return nil
	}
	return obj
}

// receiverIsPool requires the Release/Put receiver to be (or contain) the
// engine pool type, so unrelated Release methods (e.g. sync primitives in
// other packages) don't arm the check.
func receiverIsPool(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return framework.IsNamed(pass.TypesInfo.TypeOf(sel.X), enginePath, "Pool")
}
