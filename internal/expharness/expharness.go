// Package expharness regenerates every table and figure of the paper's
// evaluation section (§6) on the surrogate datasets. Each experiment is a
// func(Config) Table: a loop over datasets and parameters that states its
// columns once and appends one row per measured cell; table.go renders any
// Table as the aligned text series or as CSV. cmd/experiments is the only
// command that runs them.
//
// Experiment index (see DESIGN.md §4 for the module mapping):
//
//	table1 — real-world graph statistics (Table 1)
//	table2 — ROLL graph statistics (Table 2)
//	fig1   — SCAN vs pSCAN time breakdown (Figure 1)
//	fig2   — overall comparison, CPU/AVX2 profile (Figure 2)
//	fig3   — overall comparison, KNL/AVX512 profile (Figure 3)
//	fig4   — set-intersection invocation reduction (Figure 4)
//	fig5   — vectorized kernel core-checking speedup (Figure 5)
//	fig6   — scalability and stage breakdown vs threads (Figure 6)
//	fig7   — robustness across µ and ε (Figure 7)
//	fig8   — ROLL graphs runtime and self-speedup (Figure 8)
//	ablations — design-choice alternatives (scheduler, threshold, order,
//	            kernels; see ablation.go)
package expharness

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"ppscan/graph"
	_ "ppscan/internal/anyscan" // registers the anyscan engine
	_ "ppscan/internal/core"    // registers the ppscan and ppscan-no engines
	"ppscan/internal/dataset"
	"ppscan/internal/engine"
	"ppscan/internal/intersect"
	"ppscan/internal/pscan"
	"ppscan/internal/result"
	"ppscan/internal/scan"
	_ "ppscan/internal/scanxp" // registers the scan-xp engine
	"ppscan/internal/simdef"
)

// Config controls experiment size.
type Config struct {
	// Scale multiplies dataset sizes (1.0 = default surrogate size).
	Scale float64
	// Workers is the worker count for parallel algorithms; < 1 means
	// GOMAXPROCS.
	Workers int
	// Repeats is the number of runs per measurement; the best (minimum)
	// time is reported, as in the paper (§6.1). < 1 means 1.
	Repeats int
	// Quick shrinks parameter grids for smoke tests.
	Quick bool
}

func (c Config) norm() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Repeats < 1 {
		c.Repeats = 1
	}
	return c
}

// EpsGrid is the ε sweep used throughout the evaluation (µ fixed to 5).
var EpsGrid = []string{"0.2", "0.4", "0.6", "0.8"}

// MuGrid is Figure 7's µ sweep.
var MuGrid = []int32{2, 5, 10, 15}

// DefaultMu is the µ used by every experiment except Figure 7 (§6: "we fix
// µ = 5").
const DefaultMu = int32(5)

func (c Config) epsGrid() []string {
	if c.Quick {
		return []string{"0.2", "0.6"}
	}
	return EpsGrid
}

func mustTh(eps string, mu int32) simdef.Threshold {
	th, err := simdef.NewThreshold(eps, mu)
	if err != nil {
		panic(err)
	}
	return th
}

// bestOf runs f Repeats times and returns the result whose Stats.Total is
// minimal.
func (c Config) bestOf(f func() *result.Result) *result.Result {
	var best *result.Result
	for i := 0; i < c.Repeats; i++ {
		r := f()
		if best == nil || r.Stats.Total < best.Stats.Total {
			best = r
		}
	}
	return best
}

// run executes the named engine once on a transient workspace through the
// dispatcher, the way the facade reaches it. An empty kernel is the engine's
// paper-faithful default. The harness arms no faults and no deadline, so a
// failed run is a bug worth the loud exit.
func run(name, kernel string, g *graph.Graph, th simdef.Threshold, opt engine.Options) *result.Result {
	r, err := engine.Run(context.Background(), name, kernel, g, th, opt, nil)
	if err != nil {
		panic(fmt.Sprintf("expharness: %s run failed: %v", name, err))
	}
	return r
}

// best is the best of Repeats runs of the named engine.
func (c Config) best(name, kernel string, g *graph.Graph, th simdef.Threshold, opt engine.Options) *result.Result {
	return c.bestOf(func() *result.Result { return run(name, kernel, g, th, opt) })
}

// ratio is num/den, or 0 where the denominator was too fast to time.
func ratio(num, den time.Duration) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// ---------------------------------------------------------------------------
// Tables 1 and 2
// ---------------------------------------------------------------------------

// TableStats computes the statistics rows for the named datasets.
func TableStats(cfg Config, title string, names []string) Table {
	cfg = cfg.norm()
	t := Table{Title: title, Columns: []Column{
		{"name", String}, {"vertices", Int}, {"directed_edges", Int}, {"avg_degree", Ratio}, {"max_degree", Int},
	}}
	for _, ds := range names {
		st := graph.ComputeStats(ds, dataset.MustLoad(ds, cfg.Scale))
		t.add(st.Name, int64(st.NumVertices), st.NumEdges, st.AvgDegree, int64(st.MaxDegree))
	}
	return t
}

// Table1 regenerates Table 1 (real-world surrogates).
func Table1(cfg Config) Table {
	return TableStats(cfg, "Table 1: real-world graph statistics (surrogates)", dataset.RealWorld())
}

// Table2 regenerates Table 2 (ROLL family).
func Table2(cfg Config) Table {
	return TableStats(cfg, "Table 2: synthetic ROLL graph statistics", dataset.RollFamily())
}

// ---------------------------------------------------------------------------
// Figure 1: SCAN vs pSCAN time breakdown
// ---------------------------------------------------------------------------

// Fig1 regenerates Figure 1: the time breakdown of SCAN and pSCAN with
// µ = 5 across ε on the breakdown datasets. The Breakdown timers are a
// per-package knob, so these two call the packages' entry points directly.
func Fig1(cfg Config) Table {
	cfg = cfg.norm()
	t := Table{Title: "Figure 1: time breakdown of SCAN and pSCAN (mu=5)", Columns: []Column{
		{"dataset", String}, {"algorithm", String}, {"eps", String},
		{"similarity", Duration}, {"reduction", Duration}, {"other", Duration}, {"total", Duration},
	}}
	for _, ds := range dataset.Breakdown() {
		g := dataset.MustLoad(ds, cfg.Scale)
		for _, algo := range []string{"SCAN", "pSCAN"} {
			for _, eps := range cfg.epsGrid() {
				th := mustTh(eps, DefaultMu)
				st := cfg.bestOf(func() *result.Result {
					if algo == "SCAN" {
						return scan.Run(g, th, engine.Options{Kernel: intersect.Merge}, scan.Options{Breakdown: true}, nil)
					}
					return pscan.Run(g, th, engine.Options{Kernel: intersect.MergeEarly}, pscan.Options{Breakdown: true}, nil)
				}).Stats
				other := max(st.Total-st.SimilarityTime-st.ReductionTime, 0)
				t.add(ds, st.Algorithm, eps, st.SimilarityTime, st.ReductionTime, other, st.Total)
			}
		}
	}
	return t
}

// ---------------------------------------------------------------------------
// Figures 2 and 3: overall comparison
// ---------------------------------------------------------------------------

// Profile names the machine of one of the paper's figures by the body of
// ppSCAN's block-merge kernel that stands in for its vector unit: the CPU
// runs AVX2, the KNL AVX-512. A profile runs only on a host that has its
// body (hostProfiles), never on another body under its label.
type Profile int

// Profiles.
const (
	ProfileCPU Profile = iota
	ProfileKNL
)

func (p Profile) String() string {
	if p == ProfileKNL {
		return "KNL(AVX512)"
	}
	return "CPU(AVX2)"
}

// force makes ppSCAN's kernel run the profile's body until restore is
// called; ok is false, and nothing changes, on a host without it.
func (p Profile) force() (restore func(), ok bool) {
	return intersect.ForceBody([...]string{"avx2", "avx512"}[p])
}

// hostProfiles lists the profiles this host can run, CPU first.
func hostProfiles() []Profile {
	var ps []Profile
	for _, p := range []Profile{ProfileCPU, ProfileKNL} {
		if restore, ok := p.force(); ok {
			restore()
			ps = append(ps, p)
		}
	}
	return ps
}

// OverallComparison runs the Figure 2/3 experiment for one profile: every
// algorithm with its default kernel, ppSCAN's on the profile's body.
// speedup_vs_pscan is pSCAN's runtime divided by the row's on the same
// (dataset, eps) — the paper's headline ratios. On a host without the
// profile's body the table has no rows.
func OverallComparison(cfg Config, profile Profile) Table {
	cfg = cfg.norm()
	t := Table{
		Title: fmt.Sprintf("Figure %d: comparison with existing algorithms (%s, mu=5)", 2+int(profile), profile),
		Columns: []Column{
			{"dataset", String}, {"algorithm", String}, {"eps", String}, {"runtime", Duration}, {"speedup_vs_pscan", Ratio},
		},
	}
	restore, ok := profile.force()
	if !ok {
		return t
	}
	defer restore()
	engines := []string{"scan", "pscan", "anyscan", "scan-xp", "ppscan"}
	for _, ds := range dataset.RealWorld() {
		g := dataset.MustLoad(ds, cfg.Scale)
		for _, eps := range cfg.epsGrid() {
			th := mustTh(eps, DefaultMu)
			stats := make([]result.Stats, len(engines))
			var pscanTotal time.Duration
			for i, name := range engines {
				stats[i] = cfg.best(name, "", g, th, engine.Options{Workers: cfg.Workers}).Stats
				if name == "pscan" {
					pscanTotal = stats[i].Total
				}
			}
			for _, st := range stats {
				t.add(ds, st.Algorithm, eps, st.Total, ratio(pscanTotal, st.Total))
			}
		}
	}
	return t
}

// Fig2 regenerates Figure 2 (CPU profile).
func Fig2(cfg Config) Table { return OverallComparison(cfg, ProfileCPU) }

// Fig3 regenerates Figure 3 (KNL profile).
func Fig3(cfg Config) Table { return OverallComparison(cfg, ProfileKNL) }

// ---------------------------------------------------------------------------
// Figure 4: invocation reduction
// ---------------------------------------------------------------------------

// Fig4 regenerates Figure 4: the CompSim invocation counts of pSCAN and
// ppSCAN, µ = 5, raw and normalized by the undirected edge count. cores and
// clusters (here and in Figures 7 and 8) are the size of ppSCAN's answer: a
// cell where both are 0 measured pruning alone.
func Fig4(cfg Config) Table {
	cfg = cfg.norm()
	t := Table{Title: "Figure 4: set-intersection invocation reduction (mu=5)", Columns: []Column{
		{"dataset", String}, {"eps", String}, {"edges", Int}, {"pscan_calls", Int}, {"ppscan_calls", Int},
		{"pscan_norm", Ratio}, {"ppscan_norm", Ratio}, {"cores", Int}, {"clusters", Int},
	}}
	for _, ds := range dataset.RealWorld() {
		g := dataset.MustLoad(ds, cfg.Scale)
		edges := g.NumEdges()
		for _, eps := range cfg.epsGrid() {
			th := mustTh(eps, DefaultMu)
			ps := run("pscan", "", g, th, engine.Options{}).Stats.CompSimCalls
			pp := run("ppscan", "", g, th, engine.Options{Workers: cfg.Workers})
			t.add(ds, eps, edges, ps, pp.Stats.CompSimCalls,
				float64(ps)/float64(edges), float64(pp.Stats.CompSimCalls)/float64(edges),
				int64(pp.NumCores()), int64(pp.NumClusters()))
		}
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 5: vectorization improvement
// ---------------------------------------------------------------------------

// Fig5 regenerates Figure 5: the core-checking stage time of ppSCAN-NO
// (ppSCAN on pSCAN's scalar merge-early kernel) against ppSCAN on a vector
// kernel, and their quotient. Each (dataset, eps) has one row for
// Algorithm 6 as the paper writes it (pivot-block16) and one for ppSCAN's
// block-merge on each profile's body the host has.
func Fig5(cfg Config) Table {
	cfg = cfg.norm()
	t := Table{Title: "Figure 5: vectorized set-intersection core-checking speedup (mu=5)", Columns: []Column{
		{"dataset", String}, {"eps", String}, {"kernel", String},
		{"scalar", Duration}, {"vectorized", Duration}, {"speedup", Ratio},
	}}
	opt := engine.Options{Workers: cfg.Workers}
	for _, ds := range dataset.RealWorld() {
		g := dataset.MustLoad(ds, cfg.Scale)
		for _, eps := range cfg.epsGrid() {
			th := mustTh(eps, DefaultMu)
			checkCore := func(name, kernel string) time.Duration {
				return cfg.best(name, kernel, g, th, opt).Stats.PhaseTimes[result.PhaseCheckCore]
			}
			no := checkCore("ppscan-no", "")
			row := func(kernel string, vec time.Duration) { t.add(ds, eps, kernel, no, vec, ratio(no, vec)) }
			row(intersect.PivotBlock16.String(), checkCore("ppscan", intersect.PivotBlock16.String()))
			for _, p := range hostProfiles() {
				restore, _ := p.force()
				vec := checkCore("ppscan", "")
				restore()
				row(intersect.BlockMerge.String()+" "+p.String(), vec)
			}
		}
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 6: scalability
// ---------------------------------------------------------------------------

// WorkerGrid returns the thread counts of Figure 6 ({1..256} by powers of
// two, reduced under Quick).
func (c Config) WorkerGrid() []int {
	if c.Quick {
		return []int{1, 4}
	}
	return []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
}

// Fig6 regenerates Figure 6: per-stage time breakdown of ppSCAN vs the
// number of workers, ε = 0.2, µ = 5. self_speedup is the total at 1 worker
// divided by the row's total.
func Fig6(cfg Config) Table {
	cfg = cfg.norm()
	t := Table{Title: "Figure 6: scalability, stage breakdown vs workers (eps=0.2, mu=5)", Columns: []Column{
		{"dataset", String}, {"workers", Int},
		{"pruning", Duration}, {"check_core", Duration}, {"cluster_core", Duration}, {"cluster_noncore", Duration},
		{"total", Duration}, {"self_speedup", Ratio},
	}}
	th := mustTh("0.2", DefaultMu)
	for _, ds := range dataset.RealWorld() {
		g := dataset.MustLoad(ds, cfg.Scale)
		var base time.Duration
		for _, w := range cfg.WorkerGrid() {
			st := cfg.best("ppscan", "", g, th, engine.Options{Workers: w}).Stats
			if w == 1 {
				base = st.Total
			}
			t.add(ds, int64(w),
				st.PhaseTimes[result.PhasePruning], st.PhaseTimes[result.PhaseCheckCore],
				st.PhaseTimes[result.PhaseClusterCore], st.PhaseTimes[result.PhaseClusterNonCore],
				st.Total, ratio(base, st.Total))
		}
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 7: robustness across µ and ε
// ---------------------------------------------------------------------------

// Fig7 regenerates Figure 7: ppSCAN runtime across µ ∈ {2,5,10,15} and ε.
func Fig7(cfg Config) Table {
	cfg = cfg.norm()
	t := Table{Title: "Figure 7: robustness of ppSCAN across mu and eps", Columns: []Column{
		{"dataset", String}, {"eps", String}, {"mu", Int}, {"runtime", Duration}, {"cores", Int}, {"clusters", Int},
	}}
	mus := MuGrid
	if cfg.Quick {
		mus = []int32{2, 5}
	}
	for _, ds := range dataset.RealWorld() {
		g := dataset.MustLoad(ds, cfg.Scale)
		for _, mu := range mus {
			for _, eps := range cfg.epsGrid() {
				r := cfg.best("ppscan", "", g, mustTh(eps, mu), engine.Options{Workers: cfg.Workers})
				t.add(ds, eps, int64(mu), r.Stats.Total, int64(r.NumCores()), int64(r.NumClusters()))
			}
		}
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 8: ROLL graphs
// ---------------------------------------------------------------------------

// Fig8 regenerates Figure 8: ppSCAN runtime on the ROLL family, µ = 5, on
// each profile the host has (under Quick, only the last), and its
// self-speedup over the 1-worker run at the same (dataset, eps).
func Fig8(cfg Config) Table {
	cfg = cfg.norm()
	t := Table{Title: "Figure 8: ppSCAN on ROLL graphs (mu=5)", Columns: []Column{
		{"dataset", String}, {"eps", String}, {"profile", String}, {"runtime", Duration}, {"self_speedup", Ratio},
		{"cores", Int}, {"clusters", Int},
	}}
	profiles := hostProfiles()
	if cfg.Quick && len(profiles) > 1 {
		profiles = profiles[len(profiles)-1:]
	}
	for _, profile := range profiles {
		restore, _ := profile.force()
		for _, ds := range dataset.RollFamily() {
			g := dataset.MustLoad(ds, cfg.Scale)
			for _, eps := range cfg.epsGrid() {
				th := mustTh(eps, DefaultMu)
				one := cfg.best("ppscan", "", g, th, engine.Options{Workers: 1})
				par := cfg.best("ppscan", "", g, th, engine.Options{Workers: cfg.Workers})
				t.add(ds, eps, profile.String(), par.Stats.Total, ratio(one.Stats.Total, par.Stats.Total),
					int64(par.NumCores()), int64(par.NumClusters()))
			}
		}
		restore()
	}
	return t
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

// Experiment is a registry entry binding an id to the loop that produces
// its Table.
type Experiment struct {
	ID          string
	Description string
	Run         func(cfg Config) Table
}

// Experiments returns the full registry in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: real-world graph statistics", Table1},
		{"table2", "Table 2: synthetic ROLL graph statistics", Table2},
		{"fig1", "Figure 1: SCAN vs pSCAN time breakdown", Fig1},
		{"fig2", "Figure 2: overall comparison (CPU profile)", Fig2},
		{"fig3", "Figure 3: overall comparison (KNL profile)", Fig3},
		{"fig4", "Figure 4: set-intersection invocation reduction", Fig4},
		{"fig5", "Figure 5: vectorization improvement", Fig5},
		{"fig6", "Figure 6: scalability to number of threads", Fig6},
		{"fig7", "Figure 7: robustness across mu and eps", Fig7},
		{"fig8", "Figure 8: ROLL graphs runtime and self-speedup", Fig8},
		{"ablations", "Ablations: scheduler, task threshold, order, kernels", Ablations},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("expharness: unknown experiment %q (known: %v)", id, ids)
}
