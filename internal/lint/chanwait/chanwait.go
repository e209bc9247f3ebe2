// Package chanwait pins a cancellation discipline on blocking waits: every
// blocking channel receive and WaitGroup.Wait in the serving packages must
// be paired with a cancellation arm. The bug class this pins is a request
// goroutine parked forever on a channel whose sender died, with no
// ctx.Done() arm and no bound. The waits that remain unarmed are bounded
// by construction and say why where they stand: the shard coordinator's
// superstep joins (MaxAttempts deadlined RPCs) and sched.Crew's phase
// join, to which every task reports Done.
//
// Three waiting constructs are checked:
//
//   - a naked receive (`<-ch` outside any select) blocks unboundedly unless
//     the channel is a timer (<-chan time.Time, bounded by the clock), is
//     ctx.Done() itself (blocking until cancellation IS the point), or is
//     closed somewhere in the same package (whether every path of that
//     function reaches the close is not checked; package-local close is
//     the proxy for "provably reached").
//   - a select with no default case must carry at least one cancellation
//     arm: a ctx.Done() receive, a timer receive, or a receive from a
//     package-closed channel.
//   - sync.WaitGroup.Wait has no cancellation variant at all, so every call
//     needs an annotation arguing the waited-on goroutines are bounded.
//
// Blocking sends are deliberately out of scope (the issue tracks receives;
// send-side backpressure is the semaphore pattern's job). Annotate provably
// bounded waits with //lint:chanwait <reason>.
package chanwait

import (
	"go/ast"
	"go/token"
	"go/types"

	"ppscan/internal/lint/framework"
)

// servingPackages mirrors panicsafe: waits on a request-serving goroutine
// must be cancellable, or a slow peer turns into a stuck handler pool.
var servingPackages = map[string]bool{
	"ppscan/internal/sched":  true,
	"ppscan/internal/server": true,
	"ppscan/internal/engine": true,
	"ppscan/internal/shard":  true,
	"chanfix":                true, // test fixture
}

// Analyzer is the chanwait analyzer.
var Analyzer = &framework.Analyzer{
	Name:      "chanwait",
	Directive: "chanwait",
	Doc: "flags blocking channel receives, cancel-less selects and WaitGroup.Wait in serving " +
		"packages that have no cancellation arm (ctx.Done() case, timer, or package-local close) — " +
		"the PR 7 unbounded-flight-wait class; annotate //lint:chanwait <reason> for provably " +
		"bounded waits",
	Run: run,
}

func run(pass *framework.Pass) error {
	if !servingPackages[pass.ImportPath] {
		return nil
	}
	closed := closedObjects(pass)
	for _, file := range pass.Files {
		// selectComms collects the receive expressions that appear as a
		// select communication — those are judged at the select level, not
		// as naked receives.
		selectComms := map[ast.Expr]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok {
				return true
			}
			for _, cc := range sel.Body.List {
				clause := cc.(*ast.CommClause)
				for _, rv := range clauseReceives(clause) {
					selectComms[rv] = true
				}
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectStmt:
				checkSelect(pass, n, closed)
			case *ast.UnaryExpr:
				if isReceive(pass, n) && !selectComms[n] && !receiveExempt(pass, n, closed) {
					pass.Reportf(n.Pos(), "blocking receive from %s has no cancellation arm; select on it together with ctx.Done() (or close it in this package), or annotate //lint:chanwait <reason>", exprText(n.X))
				}
			case *ast.CallExpr:
				if isWaitGroupWait(pass, n) {
					pass.Reportf(n.Pos(), "WaitGroup.Wait() blocks with no cancellation arm; bound the waited-on goroutines and annotate //lint:chanwait <reason>, or wait via a closed channel in a select")
				}
			}
			return true
		})
	}
	return nil
}

// checkSelect flags a blocking select (no default) that has receive arms
// but no cancellation arm.
func checkSelect(pass *framework.Pass, sel *ast.SelectStmt, closed map[types.Object]bool) {
	hasDefault := false
	hasRecv := false
	hasCancelArm := false
	for _, cc := range sel.Body.List {
		clause := cc.(*ast.CommClause)
		if clause.Comm == nil {
			hasDefault = true
			continue
		}
		for _, rv := range clauseReceives(clause) {
			hasRecv = true
			if receiveExempt(pass, rv, closed) {
				hasCancelArm = true
			}
		}
	}
	if hasDefault || !hasRecv || hasCancelArm {
		return
	}
	pass.Reportf(sel.Pos(), "select blocks with no cancellation arm (no default, no ctx.Done()/timer case, no channel closed in this package); add one or annotate //lint:chanwait <reason>")
}

// clauseReceives returns the receive expressions of one select comm clause.
func clauseReceives(clause *ast.CommClause) []*ast.UnaryExpr {
	var out []*ast.UnaryExpr
	collect := func(e ast.Expr) {
		if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			out = append(out, u)
		}
	}
	switch c := clause.Comm.(type) {
	case *ast.ExprStmt:
		collect(c.X)
	case *ast.AssignStmt:
		for _, r := range c.Rhs {
			collect(r)
		}
	}
	return out
}

// receiveExempt reports whether a receive is allowed to block: ctx.Done(),
// a timer channel, or a channel closed somewhere in this package.
func receiveExempt(pass *framework.Pass, recv *ast.UnaryExpr, closed map[types.Object]bool) bool {
	op := ast.Unparen(recv.X)
	// <-ctx.Done(): blocking until cancellation is the intended behavior.
	if call, ok := op.(*ast.CallExpr); ok && framework.CalleeName(call) == "Done" {
		return true
	}
	// <-timer.C / <-time.After(d): the clock bounds the wait.
	if tv, ok := pass.TypesInfo.Types[recv.X]; ok && tv.Type != nil {
		// recv.X's type is the channel; the receive's element type is
		// what we want, so inspect the channel's element.
		if ch, ok := tv.Type.Underlying().(*types.Chan); ok {
			if framework.IsNamed(ch.Elem(), "time", "Time") {
				return true
			}
		}
	}
	// A close() of the same channel variable/field in this package is the
	// proxy for a provably-reached close.
	if obj := rootObject(pass, op); obj != nil && closed[obj] {
		return true
	}
	return false
}

// closedObjects collects the objects (locals and struct fields) passed to
// the close builtin anywhere in the package.
func closedObjects(pass *framework.Pass) map[types.Object]bool {
	closed := map[types.Object]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "close" {
				return true
			}
			if len(call.Args) != 1 {
				return true
			}
			if obj := rootObject(pass, ast.Unparen(call.Args[0])); obj != nil {
				closed[obj] = true
			}
			return true
		})
	}
	return closed
}

// rootObject resolves a channel expression to the object of its final
// identifier: a local/parameter for `done`, the struct field for `f.done`.
// Field identity is shared across instances — a deliberate over-
// approximation in the safe direction for closedObjects (a field closed
// anywhere in the package exempts receives on that field).
func rootObject(pass *framework.Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[e]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Defs[e]
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[e]; ok {
			return sel.Obj()
		}
		return pass.TypesInfo.Uses[e.Sel]
	}
	return nil
}

func isReceive(pass *framework.Pass, u *ast.UnaryExpr) bool {
	if u.Op != token.ARROW {
		return false
	}
	tv, ok := pass.TypesInfo.Types[u.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

func isWaitGroupWait(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return framework.IsNamed(t, "sync", "WaitGroup")
}

func exprText(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprText(e.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprText(e.X) + "[...]"
	}
	return "channel"
}
