// Command scanlint runs the project's custom analyzers (internal/lint) over
// Go packages, multichecker-style. It is built from source by `make
// scanlint` — no network, no external dependencies — and is part of `make
// check` and CI.
//
// Usage:
//
//	scanlint [-list] [packages]
//
// Packages default to ./... . Every analyzer always runs: they are
// syntactic and the whole tree takes about a second, so there is nothing
// to select. -list prints the analyzers and exits (cmd/docscheck diffs it
// against OPERATIONS.md §9). Exit status is 0 when clean, 1 when findings
// were reported, 2 on a load or usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ppscan/internal/lint"
	"ppscan/internal/lint/framework"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("scanlint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			suppress := "not suppressible"
			if a.Directive != "" {
				suppress = "suppress with //lint:" + a.Directive + " <reason>"
			}
			fmt.Fprintf(stdout, "%-12s %s\n%14s[%s]\n", a.Name, a.Doc, "", suppress)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scanlint:", err)
		return 2
	}
	pkgs, err := framework.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scanlint:", err)
		return 2
	}

	findings := 0
	for _, pkg := range pkgs {
		diags, err := framework.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scanlint:", err)
			return 2
		}
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		findings += len(diags)
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "scanlint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}
