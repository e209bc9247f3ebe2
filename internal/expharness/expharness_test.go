package expharness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ppscan/internal/dataset"
	"ppscan/internal/engine"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
)

// quickCfg keeps harness tests fast: tiny datasets, reduced grids.
func quickCfg() Config {
	return Config{Scale: 0.03, Workers: 2, Quick: true}
}

// column returns the cells of the named column.
func column[T any](t *testing.T, tab Table, name string) []T {
	t.Helper()
	for i, c := range tab.Columns {
		if c.Name == name {
			out := make([]T, len(tab.Rows))
			for j, r := range tab.Rows {
				out[j] = r[i].(T)
			}
			return out
		}
	}
	t.Fatalf("%s: no column %q", tab.Title, name)
	return nil
}

// text renders tab through the text writer.
func text(t *testing.T, tab Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// checkAnswerSize checks the cores / clusters columns of the figures that
// carry the size of ppSCAN's answer.
func checkAnswerSize(t *testing.T, tab Table) {
	t.Helper()
	cores, clusters := column[int64](t, tab, "cores"), column[int64](t, tab, "clusters")
	for i := range tab.Rows {
		if cores[i] < 0 || clusters[i] < 0 || clusters[i] > cores[i] {
			t.Errorf("%s row %d: %d clusters from %d cores", tab.Title, i, clusters[i], cores[i])
		}
	}
}

func TestTables(t *testing.T) {
	cfg := quickCfg()
	t1 := Table1(cfg)
	if len(t1.Rows) != 4 {
		t.Fatalf("Table1 rows = %d", len(t1.Rows))
	}
	t2 := Table2(cfg)
	if len(t2.Rows) != 4 {
		t.Fatalf("Table2 rows = %d", len(t2.Rows))
	}
	out := text(t, t1) + text(t, t2)
	for _, want := range []string{"orkut-sim", "ROLL-d160", "max_degree"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed stats missing %q", want)
		}
	}
}

func TestFig1Breakdown(t *testing.T) {
	tab := Fig1(quickCfg())
	// 3 datasets x 2 algorithms x 2 eps (quick grid).
	if len(tab.Rows) != 12 {
		t.Fatalf("Fig1 rows = %d, want 12", len(tab.Rows))
	}
	algo := column[string](t, tab, "algorithm")
	sim := column[time.Duration](t, tab, "similarity")
	red := column[time.Duration](t, tab, "reduction")
	total := column[time.Duration](t, tab, "total")
	for i, r := range tab.Rows {
		if total[i] <= 0 {
			t.Errorf("%v: zero total", r)
		}
		if sim[i]+red[i] > total[i] {
			t.Errorf("%v: breakdown exceeds total", r)
		}
		if algo[i] == "SCAN" && red[i] != 0 {
			t.Errorf("SCAN should have no reduction component")
		}
	}
	if !strings.Contains(text(t, tab), "similarity") {
		t.Errorf("Fig1 print missing header")
	}
}

func TestOverallComparison(t *testing.T) {
	tab := Fig3(quickCfg())
	// 4 datasets x 2 eps x 5 algorithms.
	if len(tab.Rows) != 40 {
		t.Fatalf("Fig3 rows = %d, want 40", len(tab.Rows))
	}
	algo := column[string](t, tab, "algorithm")
	runtime := column[time.Duration](t, tab, "runtime")
	speedup := column[float64](t, tab, "speedup_vs_pscan")
	// pSCAN rows must have speedup exactly 1.
	pscanRows := 0
	for i, r := range tab.Rows {
		if algo[i] == "pSCAN" {
			pscanRows++
			if speedup[i] < 0.999 || speedup[i] > 1.001 {
				t.Errorf("pSCAN self-speedup = %f", speedup[i])
			}
		}
		if runtime[i] <= 0 {
			t.Errorf("%v: zero runtime", r)
		}
	}
	if pscanRows != 8 {
		t.Errorf("%d pSCAN rows, want 8", pscanRows)
	}
	if !strings.Contains(text(t, tab), "Figure 3") {
		t.Errorf("print missing title")
	}
}

func TestFig4Invocations(t *testing.T) {
	tab := Fig4(quickCfg())
	if len(tab.Rows) != 8 { // 4 datasets x 2 eps
		t.Fatalf("Fig4 rows = %d", len(tab.Rows))
	}
	ps := column[float64](t, tab, "pscan_norm")
	pp := column[float64](t, tab, "ppscan_norm")
	for i, r := range tab.Rows {
		// Both prune-based algorithms compute each edge at most once.
		if ps[i] > 1.0001 || pp[i] > 1.0001 {
			t.Errorf("%v: normalized invocations exceed 1", r)
		}
		// "Similar amount of work": within a factor 2 plus slack for tiny
		// graphs.
		if lo, hi := ps[i]*0.4-0.05, ps[i]*2.5+0.05; pp[i] < lo || pp[i] > hi {
			t.Errorf("%v: ppSCAN %.3f far from pSCAN %.3f", r, pp[i], ps[i])
		}
	}
	checkAnswerSize(t, tab)
}

func TestFig5Vectorization(t *testing.T) {
	tab := Fig5(quickCfg())
	if len(tab.Rows) != 16 { // 2 profiles x 4 datasets x 2 eps
		t.Fatalf("Fig5 rows = %d", len(tab.Rows))
	}
	scalar := column[time.Duration](t, tab, "scalar")
	vec := column[time.Duration](t, tab, "vectorized")
	for i := range tab.Rows {
		if scalar[i] < 0 || vec[i] < 0 {
			t.Errorf("negative stage time")
		}
	}
}

func TestFig6Scalability(t *testing.T) {
	tab := Fig6(quickCfg())
	if len(tab.Rows) != 8 { // 4 datasets x 2 worker counts (quick grid)
		t.Fatalf("Fig6 rows = %d", len(tab.Rows))
	}
	workers := column[int64](t, tab, "workers")
	speedup := column[float64](t, tab, "self_speedup")
	total := column[time.Duration](t, tab, "total")
	sum := make([]time.Duration, len(tab.Rows))
	for _, phase := range []string{"pruning", "check_core", "cluster_core", "cluster_noncore"} {
		for i, d := range column[time.Duration](t, tab, phase) {
			sum[i] += d
		}
	}
	for i, r := range tab.Rows {
		if workers[i] == 1 && (speedup[i] < 0.999 || speedup[i] > 1.001) {
			t.Errorf("1-worker self-speedup = %f", speedup[i])
		}
		if sum[i] <= 0 || sum[i] > 2*total[i]+time.Millisecond {
			t.Errorf("%v: phase sum %v vs total %v", r, sum[i], total[i])
		}
	}
}

func TestFig7Robustness(t *testing.T) {
	tab := Fig7(quickCfg())
	if len(tab.Rows) != 16 { // 4 datasets x 2 mus x 2 eps
		t.Fatalf("Fig7 rows = %d", len(tab.Rows))
	}
	checkAnswerSize(t, tab)
}

func TestFig8Roll(t *testing.T) {
	tab := Fig8(quickCfg())
	if len(tab.Rows) != 8 { // 1 profile (quick) x 4 datasets x 2 eps
		t.Fatalf("Fig8 rows = %d", len(tab.Rows))
	}
	for i, sp := range column[float64](t, tab, "self_speedup") {
		if sp <= 0 {
			t.Errorf("%v: non-positive self speedup", tab.Rows[i])
		}
	}
	checkAnswerSize(t, tab)
}

func TestRegistryCoversEverything(t *testing.T) {
	exps := Experiments()
	if len(exps) != 11 {
		t.Fatalf("registry has %d experiments, want 11 (2 tables + 8 figures + ablations)", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Description == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, err := Lookup("fig4"); err != nil {
		t.Errorf("Lookup(fig4): %v", err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Errorf("Lookup(nope) should fail")
	}
}

func TestRegistryRunsSmoke(t *testing.T) {
	// Every registered experiment must run end-to-end at tiny scale and
	// print a titled series with one line per row.
	if testing.Short() {
		t.Skip("smoke run of all experiments skipped in -short")
	}
	cfg := Config{Scale: 0.02, Workers: 2, Quick: true, Repeats: 1}
	for _, e := range Experiments() {
		tab := e.Run(cfg)
		out := text(t, tab)
		if !strings.HasPrefix(out, "== "+tab.Title+" ==\n") {
			t.Errorf("%s: series does not open with its title: %q", e.ID, out)
		}
		if got := strings.Count(out, "\n"); len(tab.Rows) == 0 || got != len(tab.Rows)+2 {
			t.Errorf("%s: %d lines for %d rows", e.ID, got, len(tab.Rows))
		}
	}
}

func TestAblations(t *testing.T) {
	tab := Ablations(quickCfg())
	if len(tab.Rows) != 19 {
		t.Fatalf("ablation rows = %d, want 19", len(tab.Rows))
	}
	runtime := column[time.Duration](t, tab, "runtime")
	groups := map[string]int{}
	for i, g := range column[string](t, tab, "group") {
		groups[g]++
		if runtime[i] <= 0 {
			t.Errorf("%v: zero runtime", tab.Rows[i])
		}
	}
	want := map[string]int{"scheduler": 2, "task-threshold": 3, "pscan-order": 3, "ppscan-kernel": 7, "dist-partitions": 4}
	for g, n := range want {
		if groups[g] != n {
			t.Errorf("group %s has %d rows, want %d", g, groups[g], n)
		}
	}
	if !strings.Contains(text(t, tab), "scheduler") {
		t.Errorf("ablation print missing group")
	}
}

// TestRunIsObserved: the harness reaches engines through the dispatcher, so
// `experiments -metrics` shows an engine.run_ns.* histogram for each one it
// ran.
func TestRunIsObserved(t *testing.T) {
	runs := obsv.Default().Histogram(obsv.MetricEngineRunPrefix + "pscan")
	before := runs.Count()
	run("pscan", "", dataset.MustLoad("webbase-sim", 0.03), mustTh("0.4", DefaultMu), engine.Options{})
	if got := runs.Count() - before; got != 1 {
		t.Errorf("run(pscan) moved %spscan by %d, want 1", obsv.MetricEngineRunPrefix, got)
	}
}

func TestBestOfPicksMinimum(t *testing.T) {
	cfg := Config{Repeats: 3}.norm()
	i := 0
	durations := []time.Duration{30, 10, 20}
	r := cfg.bestOf(func() *result.Result {
		res := &result.Result{}
		res.Stats.Total = durations[i]
		i++
		return res
	})
	if r.Stats.Total != 10 {
		t.Errorf("bestOf picked %v", r.Stats.Total)
	}
}

func TestConfigNorm(t *testing.T) {
	c := Config{}.norm()
	if c.Scale != 1.0 || c.Workers < 1 || c.Repeats != 1 {
		t.Errorf("norm = %+v", c)
	}
}

func TestProfileString(t *testing.T) {
	if !strings.Contains(ProfileCPU.String(), "AVX2") || !strings.Contains(ProfileKNL.String(), "AVX512") {
		t.Errorf("profile names wrong")
	}
}
