// Package expharness regenerates every table and figure of the paper's
// evaluation section (§6) on the surrogate datasets, printing the same
// rows/series the paper reports and returning them as structured values for
// benchmarks and tests.
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
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"ppscan/graph"
	"ppscan/internal/anyscan"
	"ppscan/internal/core"
	"ppscan/internal/dataset"
	"ppscan/internal/intersect"
	"ppscan/internal/pscan"
	"ppscan/internal/result"
	"ppscan/internal/scan"
	"ppscan/internal/scanxp"
	"ppscan/internal/simdef"
)

// Config controls experiment size and output.
type Config struct {
	// Scale multiplies dataset sizes (1.0 = default surrogate size).
	Scale float64
	// Workers is the worker count for parallel algorithms; < 1 means
	// GOMAXPROCS.
	Workers int
	// Repeats is the number of runs per measurement; the best (minimum)
	// time is reported, as in the paper (§6.1). < 1 means 1.
	Repeats int
	// Out receives the printed series; nil means os.Stdout.
	Out io.Writer
	// Quick shrinks parameter grids for smoke tests.
	Quick bool
	// Charts additionally renders terminal bar charts for the figure
	// experiments that have a natural bar form (fig1, fig2, fig3, fig6).
	Charts bool
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
	if c.Out == nil {
		c.Out = os.Stdout
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

// ---------------------------------------------------------------------------
// Tables 1 and 2
// ---------------------------------------------------------------------------

// TableStats computes the statistics rows for the given dataset specs.
func TableStats(cfg Config, specs []dataset.Spec) []graph.Stats {
	cfg = cfg.norm()
	out := make([]graph.Stats, 0, len(specs))
	for _, s := range specs {
		g := dataset.MustLoad(s.Name, cfg.Scale)
		out = append(out, graph.ComputeStats(s.Name, g))
	}
	return out
}

// Table1 regenerates Table 1 (real-world surrogates).
func Table1(cfg Config) []graph.Stats { return TableStats(cfg, dataset.RealWorld()) }

// Table2 regenerates Table 2 (ROLL family).
func Table2(cfg Config) []graph.Stats { return TableStats(cfg, dataset.RollFamily()) }

// PrintStats prints a Table 1/2-shaped statistics table.
func PrintStats(cfg Config, title string, rows []graph.Stats) {
	cfg = cfg.norm()
	fmt.Fprintf(cfg.Out, "== %s ==\n", title)
	fmt.Fprintf(cfg.Out, "%-18s %12s %14s %8s %10s\n", "Name", "|V|", "|E|", "d", "max d")
	for _, r := range rows {
		fmt.Fprintf(cfg.Out, "%-18s %12d %14d %8.1f %10d\n",
			r.Name, r.NumVertices, r.NumEdges, r.AvgDegree, r.MaxDegree)
	}
}

// ---------------------------------------------------------------------------
// Figure 1: SCAN vs pSCAN time breakdown
// ---------------------------------------------------------------------------

// BreakdownPoint is one bar of Figure 1.
type BreakdownPoint struct {
	Dataset    string
	Algorithm  string
	Eps        string
	Similarity time.Duration // similarity evaluation
	Reduction  time.Duration // workload reduction computation
	Other      time.Duration // everything else
	Total      time.Duration
}

// Fig1 regenerates Figure 1: the time breakdown of SCAN and pSCAN with
// µ = 5 across ε on the breakdown datasets.
func Fig1(cfg Config) []BreakdownPoint {
	cfg = cfg.norm()
	var out []BreakdownPoint
	for _, spec := range dataset.Breakdown() {
		g := dataset.MustLoad(spec.Name, cfg.Scale)
		for _, algo := range []Algo{AlgoSCAN, AlgoPSCAN} {
			for _, eps := range cfg.epsGrid() {
				th := mustTh(eps, DefaultMu)
				r := cfg.bestOf(func() *result.Result {
					if algo == AlgoSCAN {
						return scan.Run(g, th, scan.Options{Kernel: intersect.Merge, Breakdown: true})
					}
					return pscan.Run(g, th, pscan.Options{Kernel: intersect.MergeEarly, Breakdown: true})
				})
				other := r.Stats.Total - r.Stats.SimilarityTime - r.Stats.ReductionTime
				if other < 0 {
					other = 0
				}
				out = append(out, BreakdownPoint{
					Dataset:    spec.Name,
					Algorithm:  r.Stats.Algorithm,
					Eps:        eps,
					Similarity: r.Stats.SimilarityTime,
					Reduction:  r.Stats.ReductionTime,
					Other:      other,
					Total:      r.Stats.Total,
				})
			}
		}
	}
	return out
}

// PrintFig1 prints the breakdown series.
func PrintFig1(cfg Config, rows []BreakdownPoint) {
	cfg = cfg.norm()
	fmt.Fprintln(cfg.Out, "== Figure 1: time breakdown of SCAN and pSCAN (mu=5) ==")
	fmt.Fprintf(cfg.Out, "%-18s %-6s %-5s %12s %12s %12s %12s\n",
		"dataset", "algo", "eps", "similarity", "reduction", "other", "total")
	for _, r := range rows {
		fmt.Fprintf(cfg.Out, "%-18s %-6s %-5s %12s %12s %12s %12s\n",
			r.Dataset, r.Algorithm, r.Eps,
			rd(r.Similarity), rd(r.Reduction), rd(r.Other), rd(r.Total))
	}
}

// ---------------------------------------------------------------------------
// Figures 2 and 3: overall comparison
// ---------------------------------------------------------------------------

// Algo names an algorithm configuration used by the harness.
type Algo string

// Harness algorithm configurations.
const (
	AlgoSCAN     Algo = "SCAN"
	AlgoPSCAN    Algo = "pSCAN"
	AlgoAnySCAN  Algo = "anySCAN"
	AlgoSCANXP   Algo = "SCAN-XP"
	AlgoPPSCAN   Algo = "ppSCAN"
	AlgoPPSCANNO Algo = "ppSCAN-NO"
)

// OverallPoint is one bar of Figures 2/3.
type OverallPoint struct {
	Dataset string
	Algo    Algo
	Eps     string
	Runtime time.Duration
	// SpeedupVsPSCAN is pSCAN's runtime divided by this algorithm's on the
	// same (dataset, eps); the paper's headline ratios.
	SpeedupVsPSCAN float64
}

// Profile selects the instruction-set profile: the CPU profile uses 8-lane
// blocks (AVX2) for vectorized kernels, the KNL profile 16-lane (AVX512).
type Profile int

// Profiles.
const (
	ProfileCPU Profile = iota
	ProfileKNL
)

func (p Profile) String() string {
	if p == ProfileKNL {
		return "KNL(AVX512/16-lane)"
	}
	return "CPU(AVX2/8-lane)"
}

func (p Profile) blockKernel() intersect.Kind {
	if p == ProfileKNL {
		return intersect.PivotBlock16
	}
	return intersect.PivotBlock8
}

// OverallComparison runs the Figure 2/3 experiment for one profile.
func OverallComparison(cfg Config, profile Profile) []OverallPoint {
	cfg = cfg.norm()
	algos := []Algo{AlgoSCAN, AlgoPSCAN, AlgoAnySCAN, AlgoSCANXP, AlgoPPSCAN}
	var out []OverallPoint
	for _, spec := range dataset.RealWorld() {
		g := dataset.MustLoad(spec.Name, cfg.Scale)
		for _, eps := range cfg.epsGrid() {
			th := mustTh(eps, DefaultMu)
			times := map[Algo]time.Duration{}
			for _, algo := range algos {
				r := cfg.bestOf(func() *result.Result {
					return runAlgoProfile(algo, g, th, cfg.Workers, profile)
				})
				times[algo] = r.Stats.Total
			}
			for _, algo := range algos {
				sp := 0.0
				if times[algo] > 0 {
					sp = float64(times[AlgoPSCAN]) / float64(times[algo])
				}
				out = append(out, OverallPoint{
					Dataset:        spec.Name,
					Algo:           algo,
					Eps:            eps,
					Runtime:        times[algo],
					SpeedupVsPSCAN: sp,
				})
			}
		}
	}
	return out
}

// Fig2 regenerates Figure 2 (CPU profile).
func Fig2(cfg Config) []OverallPoint { return OverallComparison(cfg, ProfileCPU) }

// Fig3 regenerates Figure 3 (KNL profile).
func Fig3(cfg Config) []OverallPoint { return OverallComparison(cfg, ProfileKNL) }

// PrintOverall prints a Figure 2/3 series.
func PrintOverall(cfg Config, profile Profile, rows []OverallPoint) {
	cfg = cfg.norm()
	fmt.Fprintf(cfg.Out, "== Figure %d: comparison with existing algorithms (%s, mu=5) ==\n",
		2+int(profile), profile)
	fmt.Fprintf(cfg.Out, "%-18s %-5s %-10s %12s %14s\n", "dataset", "eps", "algo", "runtime", "vs pSCAN")
	for _, r := range rows {
		fmt.Fprintf(cfg.Out, "%-18s %-5s %-10s %12s %13.2fx\n",
			r.Dataset, r.Eps, r.Algo, rd(r.Runtime), r.SpeedupVsPSCAN)
	}
}

// ---------------------------------------------------------------------------
// Figure 4: invocation reduction
// ---------------------------------------------------------------------------

// InvocationPoint is one pair of bars of Figure 4.
type InvocationPoint struct {
	Dataset string
	Eps     string
	// Edges is the undirected edge count used for normalization.
	Edges int64
	// PSCANCalls / PPSCANCalls are the CompSim invocation counts.
	PSCANCalls, PPSCANCalls int64
}

// NormalizedPSCAN returns pSCAN's invocations divided by |E|.
func (p InvocationPoint) NormalizedPSCAN() float64 {
	return float64(p.PSCANCalls) / float64(p.Edges)
}

// NormalizedPPSCAN returns ppSCAN's invocations divided by |E|.
func (p InvocationPoint) NormalizedPPSCAN() float64 {
	return float64(p.PPSCANCalls) / float64(p.Edges)
}

// Fig4 regenerates Figure 4: normalized set-intersection invocation counts
// of pSCAN and ppSCAN, µ = 5.
func Fig4(cfg Config) []InvocationPoint {
	cfg = cfg.norm()
	var out []InvocationPoint
	for _, spec := range dataset.RealWorld() {
		g := dataset.MustLoad(spec.Name, cfg.Scale)
		for _, eps := range cfg.epsGrid() {
			th := mustTh(eps, DefaultMu)
			ps := runAlgo(AlgoPSCAN, g, th, 1)
			pp := runAlgo(AlgoPPSCAN, g, th, cfg.Workers)
			out = append(out, InvocationPoint{
				Dataset:     spec.Name,
				Eps:         eps,
				Edges:       g.NumEdges(),
				PSCANCalls:  ps.Stats.CompSimCalls,
				PPSCANCalls: pp.Stats.CompSimCalls,
			})
		}
	}
	return out
}

// PrintFig4 prints the invocation-reduction series.
func PrintFig4(cfg Config, rows []InvocationPoint) {
	cfg = cfg.norm()
	fmt.Fprintln(cfg.Out, "== Figure 4: set-intersection invocation reduction (mu=5) ==")
	fmt.Fprintf(cfg.Out, "%-18s %-5s %14s %14s %10s %10s\n",
		"dataset", "eps", "pSCAN calls", "ppSCAN calls", "pSCAN/|E|", "ppSCAN/|E|")
	for _, r := range rows {
		fmt.Fprintf(cfg.Out, "%-18s %-5s %14d %14d %10.3f %10.3f\n",
			r.Dataset, r.Eps, r.PSCANCalls, r.PPSCANCalls,
			r.NormalizedPSCAN(), r.NormalizedPPSCAN())
	}
}

// ---------------------------------------------------------------------------
// Figure 5: vectorization improvement
// ---------------------------------------------------------------------------

// VecPoint is one bar of Figure 5.
type VecPoint struct {
	Dataset string
	Eps     string
	Profile Profile
	// CheckCoreNO / CheckCoreVec are the core-checking stage times of
	// ppSCAN-NO and ppSCAN.
	CheckCoreNO, CheckCoreVec time.Duration
}

// Speedup is the core-checking speedup of the vectorized kernel.
func (p VecPoint) Speedup() float64 {
	if p.CheckCoreVec <= 0 {
		return 0
	}
	return float64(p.CheckCoreNO) / float64(p.CheckCoreVec)
}

// Fig5 regenerates Figure 5: core-checking speedup of the pivot-based
// block-vectorized kernel over the scalar kernel, on both profiles.
func Fig5(cfg Config) []VecPoint {
	cfg = cfg.norm()
	var out []VecPoint
	for _, profile := range []Profile{ProfileCPU, ProfileKNL} {
		for _, spec := range dataset.RealWorld() {
			g := dataset.MustLoad(spec.Name, cfg.Scale)
			for _, eps := range cfg.epsGrid() {
				th := mustTh(eps, DefaultMu)
				no := cfg.bestOf(func() *result.Result {
					return core.Run(g, th, core.Options{Kernel: intersect.MergeEarly, Workers: cfg.Workers})
				})
				vec := cfg.bestOf(func() *result.Result {
					return core.Run(g, th, core.Options{Kernel: profile.blockKernel(), Workers: cfg.Workers})
				})
				out = append(out, VecPoint{
					Dataset:      spec.Name,
					Eps:          eps,
					Profile:      profile,
					CheckCoreNO:  no.Stats.PhaseTimes[result.PhaseCheckCore],
					CheckCoreVec: vec.Stats.PhaseTimes[result.PhaseCheckCore],
				})
			}
		}
	}
	return out
}

// PrintFig5 prints the vectorization series.
func PrintFig5(cfg Config, rows []VecPoint) {
	cfg = cfg.norm()
	fmt.Fprintln(cfg.Out, "== Figure 5: vectorized set-intersection core-checking speedup (mu=5) ==")
	fmt.Fprintf(cfg.Out, "%-18s %-5s %-20s %14s %14s %9s\n",
		"dataset", "eps", "profile", "scalar", "vectorized", "speedup")
	for _, r := range rows {
		fmt.Fprintf(cfg.Out, "%-18s %-5s %-20s %14s %14s %8.2fx\n",
			r.Dataset, r.Eps, r.Profile, rd(r.CheckCoreNO), rd(r.CheckCoreVec), r.Speedup())
	}
}

// ---------------------------------------------------------------------------
// Figure 6: scalability
// ---------------------------------------------------------------------------

// ScalePoint is one x-position of Figure 6 for one dataset.
type ScalePoint struct {
	Dataset string
	Workers int
	Phases  [result.NumPhases]time.Duration
	Total   time.Duration
	// SelfSpeedup is total time at 1 worker divided by total time here.
	SelfSpeedup float64
}

// WorkerGrid returns the thread counts of Figure 6 ({1..256} by powers of
// two, reduced under Quick).
func (c Config) WorkerGrid() []int {
	if c.Quick {
		return []int{1, 4}
	}
	return []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
}

// Fig6 regenerates Figure 6: per-stage time breakdown of ppSCAN vs the
// number of workers, ε = 0.2, µ = 5.
func Fig6(cfg Config) []ScalePoint {
	cfg = cfg.norm()
	th := mustTh("0.2", DefaultMu)
	var out []ScalePoint
	for _, spec := range dataset.RealWorld() {
		g := dataset.MustLoad(spec.Name, cfg.Scale)
		var base time.Duration
		for _, w := range cfg.WorkerGrid() {
			r := cfg.bestOf(func() *result.Result {
				return core.Run(g, th, core.Options{Kernel: intersect.PivotBlock16, Workers: w})
			})
			if w == 1 {
				base = r.Stats.Total
			}
			sp := 0.0
			if r.Stats.Total > 0 && base > 0 {
				sp = float64(base) / float64(r.Stats.Total)
			}
			out = append(out, ScalePoint{
				Dataset:     spec.Name,
				Workers:     w,
				Phases:      r.Stats.PhaseTimes,
				Total:       r.Stats.Total,
				SelfSpeedup: sp,
			})
		}
	}
	return out
}

// PrintFig6 prints the scalability series.
func PrintFig6(cfg Config, rows []ScalePoint) {
	cfg = cfg.norm()
	fmt.Fprintln(cfg.Out, "== Figure 6: scalability, stage breakdown vs workers (eps=0.2, mu=5) ==")
	fmt.Fprintf(cfg.Out, "%-18s %8s %12s %12s %12s %12s %12s %9s\n",
		"dataset", "workers", "pruning", "check-core", "cluster-core", "noncore", "total", "speedup")
	for _, r := range rows {
		fmt.Fprintf(cfg.Out, "%-18s %8d %12s %12s %12s %12s %12s %8.2fx\n",
			r.Dataset, r.Workers,
			rd(r.Phases[result.PhasePruning]), rd(r.Phases[result.PhaseCheckCore]),
			rd(r.Phases[result.PhaseClusterCore]), rd(r.Phases[result.PhaseClusterNonCore]),
			rd(r.Total), r.SelfSpeedup)
	}
}

// ---------------------------------------------------------------------------
// Figure 7: robustness across µ and ε
// ---------------------------------------------------------------------------

// RobustPoint is one line point of Figure 7.
type RobustPoint struct {
	Dataset string
	Eps     string
	Mu      int32
	Runtime time.Duration
}

// Fig7 regenerates Figure 7: ppSCAN runtime across µ ∈ {2,5,10,15} and ε.
func Fig7(cfg Config) []RobustPoint {
	cfg = cfg.norm()
	mus := MuGrid
	if cfg.Quick {
		mus = []int32{2, 5}
	}
	var out []RobustPoint
	for _, spec := range dataset.RealWorld() {
		g := dataset.MustLoad(spec.Name, cfg.Scale)
		for _, mu := range mus {
			for _, eps := range cfg.epsGrid() {
				r := cfg.bestOf(func() *result.Result {
					return core.Run(g, mustTh(eps, mu), core.Options{Kernel: intersect.PivotBlock16, Workers: cfg.Workers})
				})
				out = append(out, RobustPoint{Dataset: spec.Name, Eps: eps, Mu: mu, Runtime: r.Stats.Total})
			}
		}
	}
	return out
}

// PrintFig7 prints the robustness series.
func PrintFig7(cfg Config, rows []RobustPoint) {
	cfg = cfg.norm()
	fmt.Fprintln(cfg.Out, "== Figure 7: robustness of ppSCAN across mu and eps ==")
	fmt.Fprintf(cfg.Out, "%-18s %-5s %4s %12s\n", "dataset", "eps", "mu", "runtime")
	for _, r := range rows {
		fmt.Fprintf(cfg.Out, "%-18s %-5s %4d %12s\n", r.Dataset, r.Eps, r.Mu, rd(r.Runtime))
	}
}

// ---------------------------------------------------------------------------
// Figure 8: ROLL graphs
// ---------------------------------------------------------------------------

// RollPoint is one line point of Figure 8.
type RollPoint struct {
	Dataset     string
	Eps         string
	Profile     Profile
	Runtime     time.Duration
	SelfSpeedup float64 // over the 1-worker run at the same (dataset, eps)
}

// Fig8 regenerates Figure 8: ppSCAN runtime and self-speedup on the ROLL
// family, µ = 5, both profiles.
func Fig8(cfg Config) []RollPoint {
	cfg = cfg.norm()
	var out []RollPoint
	profiles := []Profile{ProfileCPU, ProfileKNL}
	if cfg.Quick {
		profiles = []Profile{ProfileKNL}
	}
	for _, profile := range profiles {
		for _, spec := range dataset.RollFamily() {
			g := dataset.MustLoad(spec.Name, cfg.Scale)
			for _, eps := range cfg.epsGrid() {
				th := mustTh(eps, DefaultMu)
				one := cfg.bestOf(func() *result.Result {
					return core.Run(g, th, core.Options{Kernel: profile.blockKernel(), Workers: 1})
				})
				par := cfg.bestOf(func() *result.Result {
					return core.Run(g, th, core.Options{Kernel: profile.blockKernel(), Workers: cfg.Workers})
				})
				sp := 0.0
				if par.Stats.Total > 0 {
					sp = float64(one.Stats.Total) / float64(par.Stats.Total)
				}
				out = append(out, RollPoint{
					Dataset:     spec.Name,
					Eps:         eps,
					Profile:     profile,
					Runtime:     par.Stats.Total,
					SelfSpeedup: sp,
				})
			}
		}
	}
	return out
}

// PrintFig8 prints the ROLL series.
func PrintFig8(cfg Config, rows []RollPoint) {
	cfg = cfg.norm()
	fmt.Fprintln(cfg.Out, "== Figure 8: ppSCAN on ROLL graphs (mu=5) ==")
	fmt.Fprintf(cfg.Out, "%-12s %-5s %-20s %12s %13s\n", "dataset", "eps", "profile", "runtime", "self-speedup")
	for _, r := range rows {
		fmt.Fprintf(cfg.Out, "%-12s %-5s %-20s %12s %12.2fx\n",
			r.Dataset, r.Eps, r.Profile, rd(r.Runtime), r.SelfSpeedup)
	}
}

// ---------------------------------------------------------------------------
// Registry and shared runner
// ---------------------------------------------------------------------------

// runAlgo executes a harness algorithm with its paper-faithful kernel.
func runAlgo(algo Algo, g *graph.Graph, th simdef.Threshold, workers int) *result.Result {
	return runAlgoProfile(algo, g, th, workers, ProfileKNL)
}

// runAlgoProfile executes a harness algorithm, with vectorized kernels
// resolved per profile.
func runAlgoProfile(algo Algo, g *graph.Graph, th simdef.Threshold, workers int, profile Profile) *result.Result {
	switch algo {
	case AlgoSCAN:
		return scan.Run(g, th, scan.Options{Kernel: intersect.Merge})
	case AlgoPSCAN:
		return pscan.Run(g, th, pscan.Options{Kernel: intersect.MergeEarly})
	case AlgoAnySCAN:
		return mustRun(anyscan.Run(g, th, anyscan.Options{Kernel: intersect.MergeEarly, Workers: workers}))
	case AlgoSCANXP:
		return mustRun(scanxp.Run(g, th, scanxp.Options{Kernel: intersect.Merge, Workers: workers}))
	case AlgoPPSCAN:
		return core.Run(g, th, core.Options{Kernel: profile.blockKernel(), Workers: workers})
	case AlgoPPSCANNO:
		r := core.Run(g, th, core.Options{Kernel: intersect.MergeEarly, Workers: workers})
		r.Stats.Algorithm = "ppSCAN-NO"
		return r
	default:
		panic(fmt.Sprintf("expharness: unknown algorithm %q", algo))
	}
}

// mustRun unwraps a baseline's run. The harness runs without fault
// injection, so a contained worker panic here is a bug worth the loud exit.
func mustRun(r *result.Result, err error) *result.Result {
	if err != nil {
		panic(fmt.Sprintf("expharness: baseline run failed: %v", err))
	}
	return r
}

// Experiment is a registry entry binding an id to a run-and-print driver.
type Experiment struct {
	ID          string
	Description string
	Run         func(cfg Config)
}

// Experiments returns the full registry in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: real-world graph statistics", func(cfg Config) {
			PrintStats(cfg, "Table 1: real-world graph statistics (surrogates)", Table1(cfg))
		}},
		{"table2", "Table 2: synthetic ROLL graph statistics", func(cfg Config) {
			PrintStats(cfg, "Table 2: synthetic ROLL graph statistics", Table2(cfg))
		}},
		{"fig1", "Figure 1: SCAN vs pSCAN time breakdown", func(cfg Config) {
			rows := Fig1(cfg)
			PrintFig1(cfg, rows)
			if cfg.Charts {
				ChartBreakdown(cfg.norm().Out, rows)
			}
		}},
		{"fig2", "Figure 2: overall comparison (CPU profile)", func(cfg Config) {
			rows := Fig2(cfg)
			PrintOverall(cfg, ProfileCPU, rows)
			if cfg.Charts {
				ChartOverall(cfg.norm().Out, rows)
			}
		}},
		{"fig3", "Figure 3: overall comparison (KNL profile)", func(cfg Config) {
			rows := Fig3(cfg)
			PrintOverall(cfg, ProfileKNL, rows)
			if cfg.Charts {
				ChartOverall(cfg.norm().Out, rows)
			}
		}},
		{"fig4", "Figure 4: set-intersection invocation reduction", func(cfg Config) {
			PrintFig4(cfg, Fig4(cfg))
		}},
		{"fig5", "Figure 5: vectorization improvement", func(cfg Config) {
			PrintFig5(cfg, Fig5(cfg))
		}},
		{"fig6", "Figure 6: scalability to number of threads", func(cfg Config) {
			rows := Fig6(cfg)
			PrintFig6(cfg, rows)
			if cfg.Charts {
				ChartScale(cfg.norm().Out, rows)
			}
		}},
		{"fig7", "Figure 7: robustness across mu and eps", func(cfg Config) {
			PrintFig7(cfg, Fig7(cfg))
		}},
		{"fig8", "Figure 8: ROLL graphs runtime and self-speedup", func(cfg Config) {
			PrintFig8(cfg, Fig8(cfg))
		}},
		{"ablations", "Ablations: scheduler, task threshold, order, kernels", func(cfg Config) {
			PrintAblations(cfg, Ablations(cfg))
		}},
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

// rd rounds durations for display.
func rd(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}
