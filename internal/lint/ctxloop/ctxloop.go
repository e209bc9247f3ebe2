// Package ctxloop keeps cancellation responsive: any loop in a
// context-accepting function must hit a cancellation checkpoint. PR 2
// threaded context.Context through the hot path with the P1–P7 phase
// checkpoints (core) and per-round checks (shard); a new loop added to one
// of those functions without a ctx.Err()/Done()/Canceled() poll — or
// a call that forwards the context onward — silently reopens the unbounded-
// latency window the checkpoints closed.
//
// Function literals are out of scope: the scheduler's worker closures run
// per-task bodies whose granularity is already bounded by the task size, and
// their cancellation is the enclosing pool's responsibility
// (sched.ForEachVertexCtx polls Canceled() in the master loop).
package ctxloop

import (
	"go/ast"
	"go/token"
	"go/types"

	"ppscan/internal/lint/framework"
)

// Analyzer is the ctxloop analyzer.
var Analyzer = &framework.Analyzer{
	Name:      "ctxloop",
	Directive: "ctxok",
	Doc: "flags loops in context-accepting functions without a cancellation checkpoint " +
		"(ctx.Err/Done/Canceled poll or a call forwarding the context); annotate bounded " +
		"loops with //lint:ctxok <reason>",
	Run: run,
}

// checkpointCalls are callee names treated as cancellation checkpoints even
// without a context argument: ctx.Err/Done, the scheduler pool's lock-free
// Canceled/quiesced flags (quiesced is canceled-or-failed, the
// fault-containment generalization), and the core state's stop helpers.
var checkpointCalls = map[string]bool{
	"Err":      true,
	"Done":     true,
	"Canceled": true,
	"quiesced": true,
	"stop":     true,
	"stopped":  true,
	"fnStop":   true,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !acceptsContext(pass, fn) {
				continue
			}
			checkBody(pass, fn.Body)
		}
	}
	return nil
}

// acceptsContext reports whether fn has a context.Context parameter.
func acceptsContext(pass *framework.Pass, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		if isContext(pass.TypesInfo.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

func isContext(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkBody walks statements outside function literals, flagging loops
// without checkpoints.
func checkBody(pass *framework.Pass, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if !hasCheckpoint(pass, n.Body) {
				pass.Reportf(n.Pos(), "loop in context-accepting function has no cancellation checkpoint (poll ctx or forward it into the body)")
			}
		case *ast.RangeStmt:
			if !hasCheckpoint(pass, n.Body) {
				pass.Reportf(n.Pos(), "range loop in context-accepting function has no cancellation checkpoint (poll ctx or forward it into the body)")
			}
		}
		return true
	})
}

// hasCheckpoint reports whether the loop body contains a cancellation
// checkpoint: a checkpoint-named call, a call passing a context.Context, or
// a receive from a channel (covers <-ctx.Done()). Checkpoints inside nested
// function literals don't count — they execute on other goroutines.
func hasCheckpoint(pass *framework.Pass, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			// A channel receive is either <-ctx.Done() itself or a
			// synchronization point with something that watches ctx.
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.SelectStmt:
			found = true // select statements are how ctx.Done() is consumed
		case *ast.CallExpr:
			if checkpointCalls[framework.CalleeName(n)] {
				found = true
				return false
			}
			for _, arg := range n.Args {
				if isContext(pass.TypesInfo.TypeOf(arg)) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}
