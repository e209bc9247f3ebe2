package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"ppscan/graph"
	"ppscan/internal/algotest"
	"ppscan/internal/engine"
	"ppscan/internal/gen"
	"ppscan/internal/intersect"
	"ppscan/internal/result"
	"ppscan/internal/scan"
	"ppscan/internal/simdef"
)

// run is Run under a Background context on a transient workspace: with no
// deadline and no fault armed it cannot fail.
func run(g *graph.Graph, th simdef.Threshold, opt engine.Options) *result.Result {
	res, _ := Run(context.Background(), g, th, opt, nil)
	return res
}

// withNonCoreBatch runs f with P7's flush threshold set to n pairs.
func withNonCoreBatch(n int, f func()) {
	defer func(old int) { nonCoreBatch = old }(nonCoreBatch)
	nonCoreBatch = n
	f()
}

func TestGroundTruthCorpus(t *testing.T) {
	for _, tc := range algotest.Corpus() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for _, th := range algotest.Params() {
				r := run(tc.G, th, engine.Options{Kernel: intersect.PivotBlock16, Workers: 4})
				if err := algotest.CheckGroundTruth(tc.G, r, th); err != nil {
					t.Fatalf("%s: %v", tc.Name, err)
				}
			}
		})
	}
}

func TestMatchesSCANCorpus(t *testing.T) {
	for _, tc := range algotest.Corpus() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for _, th := range algotest.Params() {
				want := scan.Run(tc.G, th, engine.Options{Kernel: intersect.Merge}, scan.Options{}, nil)
				got := run(tc.G, th, engine.Options{Kernel: intersect.PivotBlock16, Workers: 4})
				if err := result.Equal(want, got); err != nil {
					t.Fatalf("%s eps=%s mu=%d: %v", tc.Name, th.Eps, th.Mu, err)
				}
			}
		})
	}
}

// Worker-count independence: 1, 2, 3, 8, 64 workers must all agree.
func TestWorkerCountIndependence(t *testing.T) {
	g := algotest.RandomGraph(21)
	th, _ := simdef.NewThreshold("0.4", 3)
	base := run(g, th, engine.Options{Kernel: intersect.PivotBlock16, Workers: 1})
	for _, w := range []int{2, 3, 8, 64} {
		r := run(g, th, engine.Options{Kernel: intersect.PivotBlock16, Workers: w})
		if err := result.Equal(base, r); err != nil {
			t.Errorf("workers=%d changes output: %v", w, err)
		}
	}
}

// Kernel independence: every set-intersection kernel yields the same
// clustering.
func TestKernelIndependence(t *testing.T) {
	g := algotest.RandomGraph(23)
	th, _ := simdef.NewThreshold("0.5", 2)
	base := run(g, th, engine.Options{Kernel: intersect.MergeEarly, Workers: 4})
	for _, k := range intersect.Kinds() {
		r := run(g, th, engine.Options{Kernel: k, Workers: 4})
		if err := result.Equal(base, r); err != nil {
			t.Errorf("kernel %v changes output: %v", k, err)
		}
	}
}

// Scheduling independence: dynamic degree-based vs static block scheduling
// and different task thresholds must not affect the result.
func TestSchedulingIndependence(t *testing.T) {
	g := algotest.RandomGraph(25)
	th, _ := simdef.NewThreshold("0.3", 4)
	base := run(g, th, engine.Options{Workers: 4, Kernel: intersect.PivotBlock16})
	for _, opt := range []engine.Options{
		{Workers: 4, Kernel: intersect.PivotBlock16, StaticScheduling: true},
		{Workers: 4, Kernel: intersect.PivotBlock16, DegreeThreshold: 1},
		{Workers: 4, Kernel: intersect.PivotBlock16, DegreeThreshold: 1 << 30},
	} {
		r := run(g, th, opt)
		if err := result.Equal(base, r); err != nil {
			t.Errorf("options %+v change output: %v", opt, err)
		}
	}
	withNonCoreBatch(1, func() {
		r := run(g, th, engine.Options{Workers: 4, Kernel: intersect.PivotBlock16})
		if err := result.Equal(base, r); err != nil {
			t.Errorf("a one-pair non-core batch changes output: %v", err)
		}
	})
}

// Theorem 4.1: the similarity computation is invoked at most once per
// undirected edge, so CompSimCalls <= |E| for any configuration.
func TestTheorem41AtMostOnePerEdge(t *testing.T) {
	for _, tc := range algotest.Corpus() {
		for _, th := range algotest.Params() {
			for _, w := range []int{1, 4} {
				r := run(tc.G, th, engine.Options{Kernel: intersect.PivotBlock16, Workers: w})
				if r.Stats.CompSimCalls > tc.G.NumEdges() {
					t.Errorf("%s eps=%s mu=%d workers=%d: %d CompSim calls > |E| = %d",
						tc.Name, th.Eps, th.Mu, w, r.Stats.CompSimCalls, tc.G.NumEdges())
				}
			}
		}
	}
}

// ppSCAN's workload must stay in the same ballpark as pSCAN's (Figure 4:
// "ppSCAN and pSCAN conduct a similar amount of work"), and both stay below
// SCAN's exhaustive 2|E|.
func TestInvocationCountsComparable(t *testing.T) {
	g := algotest.RandomGraph(31)
	th, _ := simdef.NewThreshold("0.5", 5)
	pp := run(g, th, engine.Options{Kernel: intersect.PivotBlock16, Workers: 1})
	sc := scan.Run(g, th, engine.Options{Kernel: intersect.Merge}, scan.Options{}, nil)
	if pp.Stats.CompSimCalls > sc.Stats.CompSimCalls {
		t.Errorf("ppSCAN did more work than exhaustive SCAN: %d > %d",
			pp.Stats.CompSimCalls, sc.Stats.CompSimCalls)
	}
}

// Property: ppSCAN equals SCAN for random graphs, random parameters, random
// worker counts and kernels.
func TestEquivalenceQuick(t *testing.T) {
	f := func(seed int64, wRaw, kRaw uint8) bool {
		g := algotest.RandomGraph(seed)
		th := algotest.RandomThreshold(seed)
		workers := int(wRaw%8) + 1
		kernels := intersect.Kinds()
		kernel := kernels[int(kRaw)%len(kernels)]
		want := scan.Run(g, th, engine.Options{Kernel: intersect.Merge}, scan.Options{}, nil)
		got := run(g, th, engine.Options{Kernel: kernel, Workers: workers})
		return result.Equal(want, got) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCompSimByPhase(t *testing.T) {
	g := algotest.RandomGraph(97)
	th, _ := simdef.NewThreshold("0.4", 3)
	r := run(g, th, engine.Options{Kernel: intersect.PivotBlock16, Workers: 3})
	var sum int64
	for _, n := range r.Stats.CompSimByPhase {
		if n < 0 {
			t.Fatalf("negative per-phase count")
		}
		sum += n
	}
	if sum != r.Stats.CompSimCalls {
		t.Fatalf("per-phase counts sum to %d, total is %d", sum, r.Stats.CompSimCalls)
	}
	// The pruning phase never computes intersections.
	if r.Stats.CompSimByPhase[result.PhasePruning] != 0 {
		t.Errorf("pruning phase computed %d intersections", r.Stats.CompSimByPhase[result.PhasePruning])
	}
	// Core checking carries the bulk of the workload on any graph with
	// cores (Figure 6's stage-dominance observation).
	if r.NumCores() > 0 && r.Stats.CompSimCalls > 0 {
		if r.Stats.CompSimByPhase[result.PhaseCheckCore]*2 < r.Stats.CompSimCalls {
			t.Errorf("core checking carries %d of %d calls; expected the majority",
				r.Stats.CompSimByPhase[result.PhaseCheckCore], r.Stats.CompSimCalls)
		}
	}
}

func TestStatsAndPhaseTimes(t *testing.T) {
	g := algotest.RandomGraph(41)
	th, _ := simdef.NewThreshold("0.3", 2)
	r := run(g, th, engine.Options{Kernel: intersect.PivotBlock16, Workers: 2})
	if r.Stats.Algorithm != "ppSCAN" || r.Stats.Workers != 2 {
		t.Errorf("stats = %+v", r.Stats)
	}
	if r.Stats.Total <= 0 {
		t.Errorf("total time missing")
	}
	var sum int64
	for i, d := range r.Stats.PhaseTimes {
		if d < 0 {
			t.Errorf("phase %d negative duration", i)
		}
		sum += int64(d)
	}
	if sum <= 0 {
		t.Errorf("phase times all zero")
	}
	if sum > int64(r.Stats.Total)*2 {
		t.Errorf("phase times exceed total: %v vs %v", sum, r.Stats.Total)
	}
}

func TestLargeWorkerCountSmallGraph(t *testing.T) {
	// More workers than vertices must not deadlock or drop work.
	g := algotest.Corpus()[3].G // triangle
	th, _ := simdef.NewThreshold("0.5", 2)
	r := run(g, th, engine.Options{Workers: 32, Kernel: intersect.PivotBlock16})
	if err := algotest.CheckGroundTruth(g, r, th); err != nil {
		t.Fatal(err)
	}
}

// TestArcWordsFollowTheGraph: one workspace keeps its arc words between
// runs only for the graph they were built for. Two graphs with equal n and
// m but different edges, then graph literals (ID 0) over their arrays, must
// each get the SCAN answer.
func TestArcWordsFollowTheGraph(t *testing.T) {
	g1 := gen.PlantedPartition(8, 16, 0.5, 0.02, 11)
	perm := rand.New(rand.NewSource(3)).Perm(int(g1.NumVertices()))
	var edges []graph.Edge // g1's edges relabeled through perm
	for _, e := range g1.Edges() {
		edges = append(edges, graph.Edge{U: int32(perm[e.U]), V: int32(perm[e.V])})
	}
	g2, err := graph.FromEdges(g1.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	lit := &graph.Graph{Off: g1.Off, Dst: g1.Dst}
	lit2 := &graph.Graph{Off: g2.Off, Dst: g2.Dst}
	if g1.ID() == 0 || g2.ID() == 0 || g1.ID() == g2.ID() || lit.ID() != 0 || lit2.ID() != 0 {
		t.Fatalf("ids %d %d %d %d: want two distinct nonzero ids and two zeros", g1.ID(), g2.ID(), lit.ID(), lit2.ID())
	}
	ws := engine.NewWorkspace()
	defer ws.Close()
	th, _ := simdef.NewThreshold("0.5", 3)
	for i, g := range []*graph.Graph{g1, g1, g2, lit, lit2, lit, g2, g1} {
		want := scan.Run(g, th, engine.Options{Kernel: intersect.Merge}, scan.Options{}, nil)
		got, err := Run(context.Background(), g, th, engine.Options{Kernel: intersect.BlockMerge, Workers: 2}, ws)
		if err != nil {
			t.Fatal(err)
		}
		if err := result.Equal(want, got); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}
