// Package clitest smoke-tests the command-line tools end to end: each
// binary is compiled once per test run and exercised on small inputs.
package clitest

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// build compiles one command into dir and returns the binary path.
func build(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "ppscan/cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func runExpectError(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v: expected failure, got success\n%s", filepath.Base(bin), args, out)
	}
	return string(out)
}

func TestCLITools(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration tests skipped in -short")
	}
	dir := t.TempDir()

	t.Run("graphgen+ppscan", func(t *testing.T) {
		graphgen := build(t, dir, "graphgen")
		ppscanBin := build(t, dir, "ppscan")

		gpath := filepath.Join(dir, "g.bin")
		out := run(t, graphgen, "-n", "200", "-deg", "8", "-o", gpath)
		if !strings.Contains(out, "|V|=200") {
			t.Errorf("graphgen stats missing: %q", out)
		}

		// Cluster the generated file with two algorithms; outputs must be
		// identical files.
		res1 := filepath.Join(dir, "r1.txt")
		res2 := filepath.Join(dir, "r2.txt")
		out = run(t, ppscanBin, "-graph", gpath, "-eps", "0.3", "-mu", "3",
			"-algo", "ppscan", "-stats", "-o", res1)
		// A clustering with memberships, so the comparison is not trivial.
		if !strings.Contains(out, "9 clusters, 75 non-core memberships") {
			t.Errorf("ppscan summary unexpected: %q", out)
		}
		run(t, ppscanBin, "-graph", gpath, "-eps", "0.3", "-mu", "3",
			"-algo", "scan", "-o", res2)
		b1, err := os.ReadFile(res1)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := os.ReadFile(res2)
		if err != nil {
			t.Fatal(err)
		}
		if string(b1) != string(b2) {
			t.Errorf("ppscan and scan CLI outputs differ")
		}

		// Error paths.
		runExpectError(t, ppscanBin, "-graph", gpath, "-eps", "2", "-mu", "3")
		runExpectError(t, ppscanBin, "-eps", "0.5", "-mu", "3") // no input
		runExpectError(t, graphgen, "-n", "10")                 // no -o
	})

	t.Run("ppscan-clusters-hubs", func(t *testing.T) {
		ppscanBin := build(t, dir, "ppscan")
		out := run(t, ppscanBin, "-dataset", "ROLL-d40", "-scale", "0.02",
			"-eps", "0.3", "-mu", "3", "-clusters", "-hubs", "-q")
		if !strings.Contains(out, "cluster ") || !strings.Contains(out, "hubs (") {
			t.Errorf("cluster/hub listing missing: %q", out)
		}
	})

	t.Run("ppscan-algo-all", func(t *testing.T) {
		ppscanBin := build(t, dir, "ppscan")
		out := run(t, ppscanBin, "-dataset", "ROLL-d40", "-scale", "0.02",
			"-eps", "0.3", "-mu", "3", "-algo", "all")
		if !strings.Contains(out, "identical clusterings") {
			t.Errorf("cross-check verdict missing: %q", out)
		}
		for _, algo := range []string{"ppscan", "pscan", "scan-xp"} {
			if !strings.Contains(out, algo) {
				t.Errorf("algorithm %s missing from table: %q", algo, out)
			}
		}
	})

	t.Run("ppscan-json", func(t *testing.T) {
		ppscanBin := build(t, dir, "ppscan")
		out := run(t, ppscanBin, "-dataset", "ROLL-d40", "-scale", "0.02",
			"-eps", "0.3", "-mu", "3", "-json")
		var rep map[string]any
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatalf("invalid JSON report: %v\n%s", err, out)
		}
		for _, field := range []string{"algorithm", "clusters", "coverage", "compSimCalls"} {
			if _, ok := rep[field]; !ok {
				t.Errorf("report missing %q: %s", field, out)
			}
		}
		// Determinism across invocations (pins the generator fix).
		out2 := run(t, ppscanBin, "-dataset", "ROLL-d40", "-scale", "0.02",
			"-eps", "0.3", "-mu", "3", "-json")
		var rep2 map[string]any
		if err := json.Unmarshal([]byte(out2), &rep2); err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"cores", "clusters", "memberships"} {
			if rep[field] != rep2[field] {
				t.Errorf("%s differs across runs: %v vs %v", field, rep[field], rep2[field])
			}
		}
	})

	t.Run("experiments-csv", func(t *testing.T) {
		experiments := build(t, dir, "experiments")
		csvDir := filepath.Join(dir, "csv")
		out := run(t, experiments, "-run", "table2", "-scale", "0.02", "-csv", csvDir)
		data, err := os.ReadFile(filepath.Join(csvDir, "table2.csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "ROLL-d40") {
			t.Errorf("CSV content unexpected: %s", data)
		}
		// -csv writes the rows in addition to printing them: one run, the
		// same rows in both.
		csvRows := strings.Count(string(data), "\nROLL-")
		if textRows := strings.Count(out, "\nROLL-"); textRows != csvRows || csvRows != 4 {
			t.Errorf("stdout has %d ROLL rows, table2.csv %d, want 4 in each:\n%s", textRows, csvRows, out)
		}
	})

	t.Run("experiments", func(t *testing.T) {
		experiments := build(t, dir, "experiments")
		out := run(t, experiments, "-list")
		for _, id := range []string{"table1", "fig1", "fig8"} {
			if !strings.Contains(out, id) {
				t.Errorf("experiment list missing %s: %q", id, out)
			}
		}
		out = run(t, experiments, "-run", "table2", "-scale", "0.02")
		if !strings.Contains(out, "ROLL-d160") {
			t.Errorf("table2 run output unexpected: %q", out)
		}
		// One provenance line per run, before the first table.
		if !strings.HasPrefix(out, "# go") || !strings.Contains(strings.SplitN(out, "\n", 2)[0], "GOMAXPROCS=") {
			t.Errorf("table2 run does not open with the provenance line: %q", out)
		}
		out = run(t, experiments, "-run", "fig4", "-scale", "0.02", "-quick")
		if !strings.Contains(out, "ppscan_norm") {
			t.Errorf("fig4 run output unexpected: %q", out)
		}
		runExpectError(t, experiments, "-run", "fig99")
		runExpectError(t, experiments, "-charts")
	})

	t.Run("scanlint-list", func(t *testing.T) {
		scanlint := build(t, dir, "scanlint")
		out := run(t, scanlint, "-list")
		for _, name := range []string{"wsalias", "metricname", "atomicmix",
			"panicsafe", "snapfreeze", "chanwait"} {
			if !strings.Contains(out, name) {
				t.Errorf("-list missing %s: %q", name, out)
			}
		}
		// -list is the only flag: there is nothing to select among six
		// syntactic analyzers.
		runExpectError(t, scanlint, "-enable", "wsalias")
	})
}
