package framework

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// AnalysisTest runs one analyzer over fixture packages and compares its
// findings against `// want` expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under testdata/src/<pkg>/ relative to the test. Every line
// expected to be flagged carries a trailing comment of the form
//
//	code() // want `regexp matching the message`
//
// Multiple backquoted regexps on one line expect multiple diagnostics. A
// comment that is itself the flagged line carries its expectation after
// its own text (//lint:nosuch reason // want `...`).
// Fixture files may import stdlib and ppscan packages; types resolve through
// the same export-data importer the real loader uses.
func AnalysisTest(t *testing.T, testdata string, a *Analyzer, fixturePkgs ...string) {
	t.Helper()
	for _, name := range fixturePkgs {
		dir := filepath.Join(testdata, "src", name)
		pkg, err := loadFixture(dir, name)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", name, err)
		}
		got, err := Run(pkg, []*Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on fixture %s: %v", a.Name, name, err)
		}
		checkExpectations(t, pkg, got)
	}
}

// moduleRoot and fixture export data are computed once per test binary: the
// `go list -deps -export ./...` closure of the repo covers everything the
// fixtures import (they import repo packages and stdlib only); anything
// novel falls back to an on-demand go list in exportLookup.
var (
	fixtureOnce   sync.Once
	fixtureLookup *exportLookup
	fixtureErr    error
)

func fixtureImporterSetup() {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		fixtureErr = fmt.Errorf("go env GOMOD: %v", err)
		return
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		fixtureErr = fmt.Errorf("not inside a module (go env GOMOD = %q)", gomod)
		return
	}
	root := filepath.Dir(gomod)
	pkgs, err := goList(root, "-deps", "-export", "./...")
	if err != nil {
		fixtureErr = err
		return
	}
	fixtureLookup = &exportLookup{dir: root, exports: make(map[string]string, len(pkgs))}
	for _, p := range pkgs {
		if p.Export != "" {
			fixtureLookup.exports[p.ImportPath] = p.Export
		}
	}
}

// loadFixture parses and type-checks every .go file in dir as a single
// package whose import path is the fixture name.
func loadFixture(dir, name string) (*Package, error) {
	fixtureOnce.Do(fixtureImporterSetup)
	if fixtureErr != nil {
		return nil, fixtureErr
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	sort.Strings(goFiles)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", fixtureLookup.lookup)
	return checkPackage(fset, imp, name, dir, goFiles)
}

var wantRE = regexp.MustCompile("`([^`]*)`")

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// checkExpectations compares diagnostics against // want comments.
func checkExpectations(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	want := make(map[lineKey][]*expectation)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, trimmed, ok := strings.Cut(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := lineKey{pos.Filename, pos.Line}
				for _, m := range wantRE.FindAllStringSubmatch(trimmed, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					want[k] = append(want[k], &expectation{re: re})
				}
			}
		}
	}
	for _, d := range diags {
		k := lineKey{d.Pos.Filename, d.Pos.Line}
		exps := want[k]
		found := false
		for _, e := range exps {
			if !e.matched && e.re.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s (%s)", d.Pos, d.Message, d.Analyzer)
		}
	}
	var keys []lineKey
	for k := range want {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, e := range want[k] {
			if !e.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, e.re)
			}
		}
	}
}

// Node/type helpers shared by the analyzers.

// IsNamed reports whether typ (after pointer indirection) is the named type
// pkgPath.name, resolving through aliases.
func IsNamed(typ types.Type, pkgPath, name string) bool {
	if typ == nil {
		return false
	}
	if ptr, ok := typ.Underlying().(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named, ok := types.Unalias(typ).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// CalleeName returns the syntactic name of a call's callee: "pkg.Fn" /
// "recv.Method" selectors report the final identifier.
func CalleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}
