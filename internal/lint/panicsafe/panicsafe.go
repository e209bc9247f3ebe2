// Package panicsafe keeps the serving stack's goroutines contained: a
// panic on a goroutine with no recover in scope kills the whole process,
// no matter how careful every other layer is. The fault-containment work
// routed every worker panic into *result.WorkerPanicError precisely so a
// poisoned request cannot take the server down; a new `go` statement in a
// serving package without a reachable recover() silently reopens that
// hole.
//
// The analyzer checks every go statement in the serving packages (sched,
// server, engine, shard). The spawned function must reach a recover()
// call — directly, in a deferred closure, or through functions declared in
// the same package (so `defer c.recoverTask(w)` counts) — or carry a
// //lint:panicsafe <reason> annotation arguing the body cannot panic.
// recover() inside a nested go statement does not count: it protects the
// nested goroutine, not this one.
package panicsafe

import (
	"go/ast"
	"go/types"

	"ppscan/internal/lint/framework"
)

// servingPackages are the import paths whose goroutines must be
// panic-contained: they run on behalf of HTTP requests, where one
// poisoned input must cost one 500, never the process. The fixture
// package is listed so the analyzer's own tests exercise the real
// code path.
var servingPackages = map[string]bool{
	"ppscan/internal/sched":  true,
	"ppscan/internal/server": true,
	"ppscan/internal/engine": true,
	"ppscan/internal/shard":  true,
	"panicfix":               true, // test fixture
}

// Analyzer is the panicsafe analyzer.
var Analyzer = &framework.Analyzer{
	Name:      "panicsafe",
	Directive: "panicsafe",
	Doc: "flags go statements in serving packages (sched/server/engine/shard) whose " +
		"goroutine has no reachable recover() — a panic there kills the process; contain it " +
		"or annotate //lint:panicsafe <reason> for bodies that provably cannot panic",
	Run: run,
}

func run(pass *framework.Pass) error {
	if !servingPackages[pass.ImportPath] {
		return nil
	}
	r := &resolver{
		pass:  pass,
		decls: make(map[types.Object]*ast.FuncDecl),
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj := pass.TypesInfo.Defs[fn.Name]; obj != nil {
				r.decls[obj] = fn
			}
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !r.callRecovers(g.Call) {
				pass.Reportf(g.Pos(), "goroutine in serving package has no reachable recover(): a panic here kills the process; add a deferred recovery or annotate //lint:panicsafe <reason>")
			}
			return true
		})
	}
	return nil
}

// resolver answers "does this call reach recover()?" by walking function
// bodies, following calls to functions declared in the same package.
type resolver struct {
	pass  *framework.Pass
	decls map[types.Object]*ast.FuncDecl
}

// callRecovers reports whether the goroutine spawned by call reaches a
// recover() call.
func (r *resolver) callRecovers(call *ast.CallExpr) bool {
	visited := make(map[types.Object]bool)
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return r.bodyRecovers(lit.Body, visited)
	}
	if decl := r.callee(call); decl != nil {
		return r.bodyRecovers(decl.Body, visited)
	}
	// The goroutine entry is a function from another package (or a
	// function value): its body is out of reach, so containment cannot be
	// verified — require an annotation.
	return false
}

// callee resolves a call to a function or method declared in this package.
func (r *resolver) callee(call *ast.CallExpr) *ast.FuncDecl {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	obj := r.pass.TypesInfo.Uses[id]
	if obj == nil {
		return nil
	}
	return r.decls[obj]
}

// bodyRecovers reports whether body contains a reachable recover(): a
// direct call, one inside a (deferred) function literal, or one inside an
// in-package function the body calls. Nested go statements are skipped —
// their recover protects a different goroutine. visited breaks recursion
// cycles.
func (r *resolver) bodyRecovers(body ast.Node, visited map[types.Object]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if isRecover(r.pass, n) {
				found = true
				return false
			}
			if decl := r.callee(n); decl != nil {
				obj := r.pass.TypesInfo.Uses[calleeIdent(n)]
				if obj != nil && !visited[obj] {
					visited[obj] = true
					if r.bodyRecovers(decl.Body, visited) {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

// calleeIdent returns the identifier naming a call's callee, nil for
// indirect calls.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn
	case *ast.SelectorExpr:
		return fn.Sel
	}
	return nil
}

// isRecover reports whether call invokes the recover builtin.
func isRecover(pass *framework.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "recover"
}
