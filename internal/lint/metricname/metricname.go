// Package metricname keeps metric recorders and readers in lockstep: every
// name passed to an obsv.Registry instrument constructor must come from the
// canonical constants in internal/obsv/names.go. A literal string drifts
// silently — the recorder emits a key no /metrics reader, experiment script
// or dashboard knows about — so literals are flagged unless the expression
// also references an obsv constant (prefix-constant + dynamic suffix is the
// sanctioned pattern for per-endpoint and per-round families).
package metricname

import (
	"go/ast"
	"go/token"
	"go/types"

	"ppscan/internal/lint/framework"
)

// Analyzer is the metricname analyzer.
var Analyzer = &framework.Analyzer{
	Name:      "metricname",
	Directive: "metricname",
	Doc: "flags string literals passed to obsv.Registry instrument calls " +
		"(Counter/Gauge/Histogram) instead of constants from internal/obsv/names.go",
	Run: run,
}

const obsvPath = "ppscan/internal/obsv"

// instrumentMethods are the *obsv.Registry methods whose first argument is a
// metric name.
var instrumentMethods = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !instrumentMethods[sel.Sel.Name] || len(call.Args) == 0 {
				return true
			}
			if !framework.IsNamed(pass.TypesInfo.TypeOf(sel.X), obsvPath, "Registry") {
				return true
			}
			arg := call.Args[0]
			if (hasStringLiteral(arg) || referencesForeignConst(pass, arg)) && !referencesObsvConst(pass, arg) {
				pass.Reportf(arg.Pos(), "metric name passed to Registry.%s is not a constant from %s/names.go", sel.Sel.Name, obsvPath)
			}
			return true
		})
	}
	return nil
}

// hasStringLiteral reports whether any string literal appears inside e.
func hasStringLiteral(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			found = true
		}
		return !found
	})
	return found
}

// referencesForeignConst reports whether e mentions a string constant
// declared outside the obsv package — a shadow name table that would drift
// from names.go just as silently as a literal.
func referencesForeignConst(pass *framework.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return !found
		}
		if c, ok := pass.TypesInfo.Uses[id].(*types.Const); ok {
			if b, ok := c.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				if c.Pkg() == nil || c.Pkg().Path() != obsvPath {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// referencesObsvConst reports whether e mentions any constant declared in
// the obsv package itself. obsv's own names.go declarations qualify via
// Defs as well as Uses, so the rule applies uniformly inside and outside
// the package.
func referencesObsvConst(pass *framework.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return !found
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = pass.TypesInfo.Defs[id]
		}
		if c, ok := obj.(*types.Const); ok && c.Pkg() != nil && c.Pkg().Path() == obsvPath {
			found = true
		}
		return !found
	})
	return found
}
