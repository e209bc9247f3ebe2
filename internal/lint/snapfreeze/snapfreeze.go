// Package snapfreeze pins the invariant the whole serving stack is built
// on: a published graph snapshot is immutable. Readers resolve the current
// epoch's *graph.Graph and *gsindex.Index through an atomic pointer and
// then walk the CSR arrays with NO synchronization — the paper's
// index-as-serving-artifact framing (and PR 8's copy-on-write commits)
// only hold if nothing ever writes Off/Dst/at or a published index's runs
// (cn/nbr within its extent, at) after publication. Tests can't see a stray write that races one request
// in a million; this analyzer sees it at compile time.
//
// Flagged, anywhere in the repo:
//
//   - stores into frozen fields: g.Dst[i] = v, g.Off = x, g.at[u] = o, g.epoch++, g.id = x,
//     ix.cn[e] = c, ix.at[u] = o, copy(g.Dst, …), sort.Slice(g.Dst[lo:hi], …)
//   - stores through graph-aliased locals: a slice obtained from a frozen
//     field (row := g.Dst[lo:hi]) or from Neighbors() aliases the CSR
//     arrays, so row[i] = v and copy(row, …) are writes to the graph.
//
// Construction sites that build the arrays in locals and publish them via
// a composite literal (&Graph{Off: off, Dst: dst}) are clean by
// construction and need no annotation. The handful of legitimate
// pre-publication mutators (graph builders normalizing adjacency,
// Store.Commit stamping the epoch and placing runs, gsindex.ApplyBatch
// writing runs into a fresh arena or the tail it claimed) carry //lint:snapfreeze <reason> annotations — the
// whitelist lives in the code as reviewable directives, not in the
// analyzer, so deleting an exemption makes `make check` fail.
package snapfreeze

import (
	"go/ast"
	"go/types"

	"ppscan/internal/lint/framework"
)

// frozenFields maps (package path, type name) to the set of fields that
// must never be written after publication. The snapfix entries mirror the
// real types so the fixture suite exercises the same code path.
var frozenFields = map[[2]string]map[string]bool{
	{"ppscan/graph", "Graph"}:            {"Off": true, "Dst": true, "at": true, "arena": true, "epoch": true, "id": true},
	{"ppscan/internal/gsindex", "Index"}: {"cn": true, "nbr": true, "at": true, "arena": true},
	{"snapfix", "Graph"}:                 {"Off": true, "Dst": true, "at": true, "epoch": true},
	{"snapfix", "Index"}:                 {"cn": true, "nbr": true, "at": true, "arena": true},
}

// aliasMethods are methods of frozen types whose return value aliases a
// frozen array (graph.Neighbors returns g.Dst[off:off+deg]).
var aliasMethods = map[string]bool{"Neighbors": true}

// Analyzer is the snapfreeze analyzer.
var Analyzer = &framework.Analyzer{
	Name:      "snapfreeze",
	Directive: "snapfreeze",
	Doc: "flags writes to published graph/index state — Graph.Off/Dst/at/arena/epoch/id and Index.cn/nbr/at/arena " +
		"element or field stores, including through slices aliased from them (Neighbors, " +
		"g.Dst[lo:hi]) — readers walk these arrays lock-free, so any post-publication write is " +
		"a data race; pre-publication construction sites annotate //lint:snapfreeze <reason>",
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkBody(pass, fn.Body)
		}
	}
	return nil
}

// checkBody flags frozen writes in one function body. Function literals
// inside it share the enclosing alias scope, so the walk descends into
// them — a goroutine writing through a captured alias is still a write.
func checkBody(pass *framework.Pass, body *ast.BlockStmt) {
	aliases := collectAliases(pass, body)
	report := func(pos ast.Node, desc string) {
		pass.Reportf(pos.Pos(), "write to %s: published CSR/index arrays are read lock-free, so "+
			"post-publication writes race readers; mutate before publication or annotate "+
			"//lint:snapfreeze <reason>", desc)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if desc, ok := writeTarget(pass, aliases, lhs); ok {
					report(lhs, desc)
				}
			}
		case *ast.IncDecStmt:
			if desc, ok := writeTarget(pass, aliases, n.X); ok {
				report(n.X, desc)
			}
		case *ast.CallExpr:
			if arg, ok := mutatingCallArg(pass, n); ok {
				if desc, ok := rootDesc(pass, aliases, arg); ok {
					report(n, desc)
				}
			}
		}
		return true
	})
}

// writeTarget classifies an assignment left-hand side as a frozen write:
// either rooted at a frozen field (g.Dst[i], g.Off, ix.cn[e]) or an
// element/range store through a graph-aliased local (row[i] = v). A bare
// aliased identifier on the LHS is a rebind of the local, not a write.
func writeTarget(pass *framework.Pass, aliases map[types.Object]string, lhs ast.Expr) (string, bool) {
	if _, isIdent := ast.Unparen(lhs).(*ast.Ident); isIdent {
		return "", false
	}
	return rootDesc(pass, aliases, lhs)
}

// rootDesc unwraps index/slice expressions and reports whether the root is
// a frozen field or a graph-aliased local, with a display description.
func rootDesc(pass *framework.Pass, aliases map[types.Object]string, e ast.Expr) (string, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			if desc, ok := frozenField(pass, x); ok {
				return desc, true
			}
			return "", false
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = pass.TypesInfo.Defs[x]
			}
			if obj != nil {
				if src, ok := aliases[obj]; ok {
					return x.Name + " (aliases " + src + ")", true
				}
			}
			return "", false
		default:
			return "", false
		}
	}
}

// frozenField reports whether a selector resolves to a frozen struct field
// and returns its Type.Field description.
func frozenField(pass *framework.Pass, sel *ast.SelectorExpr) (string, bool) {
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return "", false
	}
	recv := selection.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	key := [2]string{named.Obj().Pkg().Path(), named.Obj().Name()}
	fields, ok := frozenFields[key]
	if !ok || !fields[sel.Sel.Name] {
		return "", false
	}
	return named.Obj().Name() + "." + sel.Sel.Name, true
}

// mutatingCallArg returns the argument a call mutates: copy's destination,
// sort.Slice/sort.SliceStable's slice, clear's argument.
func mutatingCallArg(pass *framework.Pass, call *ast.CallExpr) (ast.Expr, bool) {
	if len(call.Args) == 0 {
		return nil, false
	}
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := pass.TypesInfo.Uses[fn].(*types.Builtin); ok {
			if b.Name() == "copy" || b.Name() == "clear" {
				return call.Args[0], true
			}
		}
	case *ast.SelectorExpr:
		if pkg, ok := ast.Unparen(fn.X).(*ast.Ident); ok && pkg.Name == "sort" {
			if fn.Sel.Name == "Slice" || fn.Sel.Name == "SliceStable" || fn.Sel.Name == "Sort" {
				return call.Args[0], true
			}
		}
	}
	return nil, false
}

// collectAliases finds locals that alias frozen arrays: assigned from a
// frozen field (possibly sliced) or from an alias method (Neighbors), or
// re-sliced from another alias. Flow-insensitive: once a name aliases the
// graph anywhere in the body, writes through it are flagged everywhere.
func collectAliases(pass *framework.Pass, body *ast.BlockStmt) map[types.Object]string {
	aliases := map[types.Object]string{}
	aliasSource := func(e ast.Expr) (string, bool) {
		// A frozen-field root (g.Dst, g.Dst[lo:hi]) or existing alias.
		if desc, ok := rootDesc(pass, aliases, e); ok {
			return desc, true
		}
		// Neighbors() and friends on a frozen type.
		if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && aliasMethods[sel.Sel.Name] {
				if tv, ok := pass.TypesInfo.Types[sel.X]; ok && isFrozenType(tv.Type) {
					return typeName(tv.Type) + "." + sel.Sel.Name + "()", true
				}
			}
		}
		return "", false
	}
	// Iterate to a fixpoint so chains (row := g.Dst[a:b]; sub := row[1:])
	// resolve regardless of declaration order quirks.
	for {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
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
				if obj == nil {
					continue
				}
				if _, seen := aliases[obj]; seen {
					continue
				}
				if src, ok := aliasSource(as.Rhs[i]); ok {
					aliases[obj] = src
					changed = true
				}
			}
			return true
		})
		if !changed {
			return aliases
		}
	}
}

func isFrozenType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	_, frozen := frozenFields[[2]string{named.Obj().Pkg().Path(), named.Obj().Name()}]
	return frozen
}

func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
