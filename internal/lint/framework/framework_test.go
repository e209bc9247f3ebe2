package framework

import (
	"go/ast"
	"strings"
	"testing"
)

// toyAnalyzer flags every call to a function named flagme; it exists to
// exercise the directive/suppression machinery without dragging in a real
// analyzer's semantics.
var toyAnalyzer = &Analyzer{
	Name:      "toy",
	Directive: "toy",
	Doc:       "flags calls to flagme",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if ok && CalleeName(call) == "flagme" {
					pass.Reportf(call.Pos(), "call to flagme")
				}
				return true
			})
		}
		return nil
	},
}

func TestDirectiveSuppression(t *testing.T) {
	pkg, err := loadFixture("testdata/src/directives", "directives")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := Run(pkg, []*Analyzer{toyAnalyzer})
	if err != nil {
		t.Fatal(err)
	}

	// The bare //lint:toy cannot carry a // want (the text would become its
	// reason), so it is counted here; every other finding, the unknown
	// //lint:nosuch included, is matched against the fixture's expectations.
	var wanted, bare []Diagnostic
	for _, d := range diags {
		switch {
		case d.Analyzer == "lintdirective" && strings.Contains(d.Message, "missing a reason"):
			bare = append(bare, d)
		case d.Analyzer == "toy" || d.Analyzer == "lintdirective":
			wanted = append(wanted, d)
		default:
			t.Errorf("unexpected analyzer %q in %s", d.Analyzer, d)
		}
	}
	checkExpectations(t, pkg, wanted)
	if len(bare) != 1 {
		t.Fatalf("got %d missing-reason findings, want 1 (the bare //lint:toy): %v", len(bare), bare)
	}
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text         string
		name, reason string
		ok           bool
	}{
		{"//lint:snapfreeze unpublished copy", "snapfreeze", "unpublished copy", true},
		{"//lint:atomicok", "atomicok", "", true},
		{"// regular comment", "", "", false},
		{"//lint:", "", "", false},
		{"//nolint:something", "", "", false},
	}
	for _, c := range cases {
		name, reason, ok := parseDirective(c.text)
		if name != c.name || reason != c.reason || ok != c.ok {
			t.Errorf("parseDirective(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.text, name, reason, ok, c.name, c.reason, c.ok)
		}
	}
}

// TestLoadMultiPackage drives the loader with several patterns at once —
// a recursive import-path pattern plus a single package — the shape `make
// scanlint` uses on ./... . One go list -deps -export run must cover the
// union, and every matched package must come back fully type-checked.
func TestLoadMultiPackage(t *testing.T) {
	pkgs, err := Load(".", "ppscan/internal/lint/...", "ppscan/graph")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	seen := map[string]*Package{}
	for _, p := range pkgs {
		if seen[p.ImportPath] != nil {
			t.Errorf("package %s loaded twice", p.ImportPath)
		}
		seen[p.ImportPath] = p
		if len(p.Files) == 0 || p.Types == nil || len(p.TypesInfo.Defs) == 0 {
			t.Errorf("incomplete package %s: files=%d types=%v defs=%d",
				p.ImportPath, len(p.Files), p.Types != nil, len(p.TypesInfo.Defs))
		}
	}
	for _, want := range []string{
		"ppscan/internal/lint",
		"ppscan/internal/lint/framework",
		"ppscan/internal/lint/snapfreeze",
		"ppscan/graph",
	} {
		if seen[want] == nil {
			t.Errorf("pattern union did not load %s (got %d packages)", want, len(pkgs))
		}
	}
	if len(pkgs) < 9 {
		t.Errorf("got %d packages, want at least 9 (lint + framework + six analyzers + graph)", len(pkgs))
	}
	// Cross-package type identity: the aggregator's view of framework's
	// types must come through the export-data importer, not a re-parse.
	if lint, fw := seen["ppscan/internal/lint"], seen["ppscan/internal/lint/framework"]; lint != nil && fw != nil {
		var imported bool
		for _, imp := range lint.Types.Imports() {
			if imp.Path() == "ppscan/internal/lint/framework" {
				imported = true
			}
		}
		if !imported {
			t.Errorf("ppscan/internal/lint does not record its framework import")
		}
	}

	// Multiple relative patterns resolve against dir, like the CLI's
	// positional arguments.
	rel, err := Load("../..", "./lint/framework", "./lint/wsalias")
	if err != nil {
		t.Fatalf("Load with relative patterns: %v", err)
	}
	if len(rel) != 2 {
		t.Fatalf("got %d packages from two relative patterns, want 2", len(rel))
	}
}

// TestLoadSelf loads this very package through the production loader,
// proving the go list -export + gc-importer pipeline produces a complete
// types.Info offline.
func TestLoadSelf(t *testing.T) {
	pkgs, err := Load(".", ".")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.ImportPath != "ppscan/internal/lint/framework" {
		t.Errorf("ImportPath = %q", pkg.ImportPath)
	}
	if len(pkg.Files) == 0 || pkg.Types == nil || len(pkg.TypesInfo.Uses) == 0 {
		t.Errorf("incomplete package: files=%d types=%v uses=%d",
			len(pkg.Files), pkg.Types != nil, len(pkg.TypesInfo.Uses))
	}
	// Test files must not be analyzed: they are not part of the shipped
	// package and routinely allocate.
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			t.Errorf("loader included test file %s", name)
		}
	}
}
