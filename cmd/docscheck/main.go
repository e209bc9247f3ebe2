// Command docscheck keeps the operator documentation honest: it diffs
// each CLI binary's actual -help output against OPERATIONS.md and the
// server's registered HTTP routes against the README API reference, and
// fails when either document has drifted behind the code.
//
// Usage (normally via `make docs-check`):
//
//	docscheck -ops OPERATIONS.md -readme README.md \
//	    bin/scanserver bin/scanshard bin/ppscan
//
// Each positional argument is a built binary; docscheck runs it with -h,
// extracts every registered flag name from the usage listing, and
// requires a backticked `-flag` mention in OPERATIONS.md. In the other
// direction, every row of the flag table under the binary's own
// "## … <binary> flags" or "### <binary> flags" heading must name a flag
// the binary registers. Every path from
// server.Routes() must appear in README.md. With -scanlint PATH, the
// OPERATIONS.md §9 analyzer table is additionally diffed against that
// binary's -list output: every analyzer needs a table row, every row must
// name a live analyzer, and each row's suppression directive must match
// the code. Each document in lineCeilings, read from the directory that
// holds OPERATIONS.md, must be no longer than its committed ceiling.
// Exit status: 0 = docs match, 1 = drift (each missing item is listed),
// 2 = usage or I/O error.
package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"

	"ppscan/internal/server"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, w io.Writer) int {
	opsPath, readmePath, scanlintBin := "OPERATIONS.md", "README.md", ""
	var bins []string
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-ops":
			i++
			if i >= len(args) {
				fmt.Fprintln(w, "docscheck: -ops needs a path")
				return 2
			}
			opsPath = args[i]
		case "-readme":
			i++
			if i >= len(args) {
				fmt.Fprintln(w, "docscheck: -readme needs a path")
				return 2
			}
			readmePath = args[i]
		case "-scanlint":
			i++
			if i >= len(args) {
				fmt.Fprintln(w, "docscheck: -scanlint needs a binary path")
				return 2
			}
			scanlintBin = args[i]
		default:
			bins = append(bins, args[i])
		}
	}

	ops, err := os.ReadFile(opsPath)
	if err != nil {
		fmt.Fprintf(w, "docscheck: %v\n", err)
		return 2
	}
	readme, err := os.ReadFile(readmePath)
	if err != nil {
		fmt.Fprintf(w, "docscheck: %v\n", err)
		return 2
	}

	drift := 0
	tables := flagTables(string(ops))
	for _, bin := range bins {
		help, err := helpOutput(bin)
		if err != nil {
			fmt.Fprintf(w, "docscheck: %s: %v\n", bin, err)
			return 2
		}
		name := filepath.Base(bin)
		flags := parseHelpFlags(help)
		for _, missing := range checkFlags(string(ops), flags) {
			fmt.Fprintf(w, "docscheck: %s flag -%s is not documented in %s\n", name, missing, opsPath)
			drift++
		}
		for _, stale := range staleFlags(tables[name], flags) {
			fmt.Fprintf(w, "docscheck: %s documents %s flag -%s, which the binary does not register\n", opsPath, name, stale)
			drift++
		}
	}
	for _, missing := range checkRoutes(string(readme), server.Routes()) {
		fmt.Fprintf(w, "docscheck: route %s is not documented in %s\n", missing, readmePath)
		drift++
	}
	if scanlintBin != "" {
		analyzers, err := scanlintList(scanlintBin)
		if err != nil {
			fmt.Fprintf(w, "docscheck: %s: %v\n", scanlintBin, err)
			return 2
		}
		for _, d := range checkAnalyzerTable(string(ops), analyzers) {
			fmt.Fprintf(w, "docscheck: %s (in %s §9 analyzer table)\n", d, opsPath)
			drift++
		}
	}
	docs := map[string]string{}
	for name := range lineCeilings {
		b, err := os.ReadFile(filepath.Join(filepath.Dir(opsPath), name))
		if err != nil {
			fmt.Fprintf(w, "docscheck: %v\n", err)
			return 2
		}
		docs[name] = string(b)
	}
	for _, d := range overCeiling(docs, lineCeilings) {
		fmt.Fprintf(w, "docscheck: %s\n", d)
		drift++
	}
	if drift > 0 {
		fmt.Fprintf(w, "docscheck: %d drifted item(s) — update the docs or the code\n", drift)
		return 1
	}
	fmt.Fprintf(w, "docscheck: %d binarie(s) and %d routes match the docs\n", len(bins), len(server.Routes()))
	return 0
}

// lineCeilings is the prose ratchet: the most lines each document may
// have, set to its length when the ceiling last moved. Prose only falls; a
// change that must add lines raises the ceiling in the same diff and says
// why in CHANGES.md.
var lineCeilings = map[string]int{
	"README.md":           531,
	"DESIGN.md":           765,
	"OPERATIONS.md":       866,
	"EXPERIMENTS.md":      386,
	"benchmark/README.md": 312,
}

// overCeiling returns one drift line, in name order, for every document
// with more lines than its ceiling.
func overCeiling(docs map[string]string, ceilings map[string]int) []string {
	names := make([]string, 0, len(ceilings))
	for name := range ceilings {
		names = append(names, name)
	}
	sort.Strings(names)
	var drift []string
	for _, name := range names {
		if n := strings.Count(docs[name], "\n"); n > ceilings[name] {
			drift = append(drift, fmt.Sprintf("%s has %d lines, over its ceiling of %d", name, n, ceilings[name]))
		}
	}
	return drift
}

// scanlintList runs bin -list and returns analyzer name → suppression
// directive ("" when not suppressible). The -list format is two lines per
// analyzer: "name  doc" flush left, then an indented "[suppress with
// //lint:dir <reason>]" or "[not suppressible]" bracket line.
func scanlintList(bin string) (map[string]string, error) {
	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("running -list: %w\n%s", err, out)
	}
	analyzers := map[string]string{}
	var last string
	for _, line := range strings.Split(string(out), "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, " ") {
			last = strings.Fields(line)[0]
			analyzers[last] = ""
			continue
		}
		if m := listDirectiveRe.FindStringSubmatch(line); m != nil && last != "" {
			analyzers[last] = m[1]
		}
	}
	if len(analyzers) == 0 {
		return nil, fmt.Errorf("-list output had no analyzers:\n%s", out)
	}
	return analyzers, nil
}

var listDirectiveRe = regexp.MustCompile(`\[suppress with //lint:([A-Za-z0-9]+) <reason>\]`)

// analyzerRowRe matches the OPERATIONS.md §9 table rows: first cell a
// backticked analyzer name, second cell its backticked //lint: directive
// (or "—" for not-suppressible). Requiring both cell shapes keeps other
// tables in the document from parsing as analyzer rows.
var analyzerRowRe = regexp.MustCompile("(?m)^\\|\\s*`([A-Za-z0-9]+)`\\s*\\|\\s*(?:`//lint:([A-Za-z0-9]+)`|—)\\s*\\|")

// checkAnalyzerTable diffs the documented analyzer table against the
// analyzers registered in the scanlint binary, in both directions, plus
// the per-row suppression directive.
func checkAnalyzerTable(doc string, analyzers map[string]string) []string {
	var drift []string
	rows := map[string]string{}
	for _, m := range analyzerRowRe.FindAllStringSubmatch(doc, -1) {
		rows[m[1]] = m[2]
	}
	names := make([]string, 0, len(analyzers))
	for name := range analyzers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dir, ok := rows[name]
		if !ok {
			drift = append(drift, fmt.Sprintf("analyzer %s has no table row", name))
			continue
		}
		if dir != analyzers[name] {
			drift = append(drift, fmt.Sprintf("analyzer %s row documents directive %q, code says %q",
				name, dir, analyzers[name]))
		}
	}
	rowNames := make([]string, 0, len(rows))
	for name := range rows {
		rowNames = append(rowNames, name)
	}
	sort.Strings(rowNames)
	for _, name := range rowNames {
		if _, ok := analyzers[name]; !ok {
			drift = append(drift, fmt.Sprintf("table row %s names no registered analyzer", name))
		}
	}
	return drift
}

// helpOutput runs bin -h and returns the combined usage text. The flag
// package exits 2 after printing usage, so a non-zero status with output
// is the expected success shape.
func helpOutput(bin string) (string, error) {
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if len(out) == 0 && err != nil {
		return "", fmt.Errorf("no usage output: %w", err)
	}
	return string(out), nil
}

// helpFlagRe matches the flag-definition lines the flag package prints:
// two spaces, a dash, the name ("  -addr string", "  -index").
var helpFlagRe = regexp.MustCompile(`(?m)^\s\s-([A-Za-z0-9][-A-Za-z0-9]*)\b`)

// parseHelpFlags extracts the registered flag names from -h output.
func parseHelpFlags(help string) []string {
	var names []string
	seen := map[string]bool{}
	for _, m := range helpFlagRe.FindAllStringSubmatch(help, -1) {
		if !seen[m[1]] {
			seen[m[1]] = true
			names = append(names, m[1])
		}
	}
	return names
}

// checkFlags returns the flags with no backticked `-flag` mention in the
// document — the form every OPERATIONS.md flag table uses.
func checkFlags(doc string, flags []string) []string {
	var missing []string
	for _, f := range flags {
		// `-flag` alone or `-flag value` / `-flag=value` inside the ticks.
		re := regexp.MustCompile("`-" + regexp.QuoteMeta(f) + "[` =]")
		if !re.MatchString(doc) {
			missing = append(missing, f)
		}
	}
	return missing
}

// flagHeadingRe matches a flag-table heading, "## 1. scanserver flags" or
// "### scanshard flags", capturing the binary's name.
var flagHeadingRe = regexp.MustCompile(`^#{2,3} (?:.* )?([A-Za-z0-9_-]+) flags\s*$`)

// flagRowRe matches a flag-table row, capturing the flag its first cell
// names: "| `-addr host:port` | …", "| `-index` | …".
var flagRowRe = regexp.MustCompile("^\\|\\s*`-([A-Za-z0-9][-A-Za-z0-9]*)[` =]")

// flagTables maps each binary with a flag-table heading in the document to
// the flags its table's rows name, in order. A table runs to the next
// heading.
func flagTables(doc string) map[string][]string {
	tables := map[string][]string{}
	bin := ""
	for _, line := range strings.Split(doc, "\n") {
		if m := flagHeadingRe.FindStringSubmatch(line); m != nil {
			bin = m[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			bin = ""
		} else if m := flagRowRe.FindStringSubmatch(line); m != nil && bin != "" {
			tables[bin] = append(tables[bin], m[1])
		}
	}
	return tables
}

// staleFlags returns the documented rows whose flag is not among the
// registered ones.
func staleFlags(rows, registered []string) []string {
	var stale []string
	for _, f := range rows {
		if !slices.Contains(registered, f) {
			stale = append(stale, f)
		}
	}
	return stale
}

// checkRoutes returns the registered HTTP paths the document never
// mentions.
func checkRoutes(doc string, routes []string) []string {
	var missing []string
	for _, r := range routes {
		if !strings.Contains(doc, r) {
			missing = append(missing, r)
		}
	}
	return missing
}
