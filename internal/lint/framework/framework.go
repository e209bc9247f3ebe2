// Package framework is a deliberately small, dependency-free analogue of
// golang.org/x/tools/go/analysis: enough structure to write project-specific
// analyzers (Analyzer/Pass/Diagnostic), load fully type-checked packages
// offline (load.go), and test analyzers against fixtures with // want
// expectations (analysistest.go).
//
// The container this repo builds in has no module proxy access and an empty
// module cache, so x/tools cannot be vendored or fetched; the standard
// library's go/{ast,parser,types,importer} plus `go list -export` provide
// everything the scanlint analyzers need.
//
// # Directives
//
// Analyzers are suppressed with line directives of the form
//
//	//lint:<directive> <reason>
//
// (e.g. //lint:snapfreeze unpublished copy). A directive suppresses
// matching diagnostics on its own line and on the line directly below it; a
// directive inside a function's doc comment suppresses for the whole
// function. The <reason> is mandatory: a bare directive is itself reported,
// so every exemption in the tree documents why it is safe. So is a
// directive that names no analyzer of the run: a typo, or the leftover of a
// deleted analyzer, would otherwise sit in the tree suppressing nothing.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in output.
	Name string

	// Doc is a one-paragraph description of the invariant the analyzer pins.
	Doc string

	// Directive is the //lint:<Directive> suppression keyword honored by
	// this analyzer (e.g. "atomicok" for atomicmix). Empty means the
	// analyzer cannot be suppressed.
	Directive string

	// Run reports diagnostics for one package via pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// ImportPath is the package's import path as reported by go list (for
	// fixture packages, the fixture directory name).
	ImportPath string

	diags      []Diagnostic
	directives *fileDirectives
}

// A Diagnostic is one finding, attributed to the analyzer that produced it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos unless a matching //lint: directive
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.directives.suppresses(p.Analyzer.Directive, position) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over a loaded package and returns their
// findings in file/line order. Malformed directives — a missing reason, or
// a name that is the Directive of none of analyzers — are reported as
// findings of the pseudo-analyzer "lintdirective".
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		if a.Directive != "" {
			known[a.Directive] = true
		}
	}
	dirs := collectDirectives(pkg.Fset, pkg.Files, known)
	var diags []Diagnostic
	diags = append(diags, dirs.malformed...)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.TypesInfo,
			ImportPath: pkg.ImportPath,
			directives: dirs,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
		}
		diags = append(diags, pass.diags...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags, nil
}

// directivePrefix introduces every suppression comment.
const directivePrefix = "//lint:"

type lineKey struct {
	file string
	line int
}

type funcDirective struct {
	file      string
	startLine int
	endLine   int
	name      string
}

type fileDirectives struct {
	// byLine maps a (file, line) to the set of directive names present on
	// that source line.
	byLine map[lineKey]map[string]bool
	// funcScoped holds directives placed in function doc comments; they
	// cover the function's whole line range.
	funcScoped []funcDirective
	malformed  []Diagnostic
}

func collectDirectives(fset *token.FileSet, files []*ast.File, known map[string]bool) *fileDirectives {
	d := &fileDirectives{byLine: make(map[lineKey]map[string]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, reason, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				var problem string
				switch {
				case !known[name]:
					problem = fmt.Sprintf("//lint:%s names no analyzer (scanlint -list prints the directives); fix the name or delete the comment", name)
				case reason == "":
					problem = fmt.Sprintf("//lint:%s directive is missing a reason; write //lint:%s <why this is safe>", name, name)
				}
				if problem != "" {
					d.malformed = append(d.malformed, Diagnostic{Analyzer: "lintdirective", Pos: pos, Message: problem})
					continue
				}
				k := lineKey{file: pos.Filename, line: pos.Line}
				if d.byLine[k] == nil {
					d.byLine[k] = make(map[string]bool)
				}
				d.byLine[k][name] = true
			}
		}
		// Function-doc directives suppress for the entire function body.
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				name, reason, ok := parseDirective(c.Text)
				if !ok || reason == "" {
					continue
				}
				start := fset.Position(fn.Pos())
				end := fset.Position(fn.End())
				d.funcScoped = append(d.funcScoped, funcDirective{
					file:      start.Filename,
					startLine: start.Line,
					endLine:   end.Line,
					name:      name,
				})
			}
		}
	}
	return d
}

func parseDirective(text string) (name, reason string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	name, reason, _ = strings.Cut(rest, " ")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", "", false
	}
	return name, strings.TrimSpace(reason), true
}

// suppresses reports whether a directive named name covers the given
// position: same line, the line above, or a containing function's doc.
func (d *fileDirectives) suppresses(name string, pos token.Position) bool {
	if name == "" {
		return false
	}
	if d.byLine[lineKey{pos.Filename, pos.Line}][name] {
		return true
	}
	if d.byLine[lineKey{pos.Filename, pos.Line - 1}][name] {
		return true
	}
	for _, fd := range d.funcScoped {
		if fd.name == name && fd.file == pos.Filename && fd.startLine <= pos.Line && pos.Line <= fd.endLine {
			return true
		}
	}
	return false
}
