package scan

import (
	"testing"

	"ppscan/graph"
	"ppscan/internal/algotest"
	"ppscan/internal/engine"
	"ppscan/internal/intersect"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
)

func run(t *testing.T, g *graph.Graph, eps string, mu int32) *result.Result {
	t.Helper()
	th, err := simdef.NewThreshold(eps, mu)
	if err != nil {
		t.Fatal(err)
	}
	return Run(g, th, engine.Options{Kernel: intersect.Merge}, Options{}, nil)
}

func TestTriangleAllCores(t *testing.T) {
	g, _ := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	r := run(t, g, "0.5", 2)
	for v, role := range r.Roles {
		if role != result.RoleCore {
			t.Errorf("vertex %d role = %v, want Core", v, role)
		}
	}
	if r.NumClusters() != 1 {
		t.Errorf("clusters = %d, want 1", r.NumClusters())
	}
	for v, id := range r.CoreClusterID {
		if id != 0 {
			t.Errorf("cluster id of %d = %d, want 0", v, id)
		}
	}
	if len(r.NonCore) != 0 {
		t.Errorf("unexpected non-core memberships: %v", r.NonCore)
	}
}

func TestPathCenterCore(t *testing.T) {
	// P3: 0-1-2 with eps=0.5, mu=2 (hand-worked in package result tests).
	g, _ := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	r := run(t, g, "0.5", 2)
	if r.Roles[1] != result.RoleCore {
		t.Errorf("center should be core")
	}
	if r.Roles[0] != result.RoleNonCore || r.Roles[2] != result.RoleNonCore {
		t.Errorf("endpoints should be non-core")
	}
	if r.CoreClusterID[1] != 1 {
		t.Errorf("cluster id = %d, want 1", r.CoreClusterID[1])
	}
	want := []result.Membership{{V: 0, ClusterID: 1}, {V: 2, ClusterID: 1}}
	if len(r.NonCore) != 2 || r.NonCore[0] != want[0] || r.NonCore[1] != want[1] {
		t.Errorf("memberships = %v, want %v", r.NonCore, want)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	g, _ := graph.FromEdges(0, nil)
	r := run(t, g, "0.5", 2)
	if len(r.Roles) != 0 {
		t.Errorf("empty graph roles = %v", r.Roles)
	}
	g, _ = graph.FromEdges(1, nil)
	r = run(t, g, "0.5", 1)
	if r.Roles[0] != result.RoleNonCore {
		t.Errorf("isolated vertex should be non-core")
	}
}

func TestHighMuNoCores(t *testing.T) {
	g, _ := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	r := run(t, g, "0.5", 100)
	for v, role := range r.Roles {
		if role != result.RoleNonCore {
			t.Errorf("vertex %d should be non-core at mu=100", v)
		}
	}
	if r.NumClusters() != 0 || len(r.NonCore) != 0 {
		t.Errorf("no clusters expected")
	}
}

func TestWorkloadIsExhaustive(t *testing.T) {
	// SCAN computes each directed edge exactly once: 2|E| CompSim calls.
	g := algotest.RandomGraph(99)
	r := run(t, g, "0.4", 3)
	if r.Stats.CompSimCalls != g.NumDirectedEdges() {
		t.Errorf("CompSimCalls = %d, want %d (exhaustive, per-direction)",
			r.Stats.CompSimCalls, g.NumDirectedEdges())
	}
}

func TestGroundTruthCorpus(t *testing.T) {
	for _, tc := range algotest.Corpus() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for _, th := range algotest.Params() {
				r := Run(tc.G, th, engine.Options{Kernel: intersect.Merge}, Options{}, nil)
				if err := algotest.CheckGroundTruth(tc.G, r, th); err != nil {
					t.Fatalf("%s: %v", tc.Name, err)
				}
			}
		})
	}
}

func TestKernelIndependence(t *testing.T) {
	// SCAN must produce identical output with any kernel.
	g := algotest.RandomGraph(7)
	th, _ := simdef.NewThreshold("0.5", 3)
	base := Run(g, th, engine.Options{Kernel: intersect.Merge}, Options{}, nil)
	for _, k := range intersect.Kinds() {
		r := Run(g, th, engine.Options{Kernel: k}, Options{}, nil)
		if err := result.Equal(base, r); err != nil {
			t.Errorf("kernel %v changes SCAN output: %v", k, err)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	g := algotest.RandomGraph(3)
	th, _ := simdef.NewThreshold("0.3", 2)
	r := Run(g, th, engine.Options{Kernel: intersect.Merge}, Options{}, nil)
	if r.Stats.Algorithm != "SCAN" || r.Stats.Workers != 1 {
		t.Errorf("stats = %+v", r.Stats)
	}
	if r.Stats.Total <= 0 {
		t.Errorf("total time not recorded")
	}
	if r.Eps != th.Eps.String() || r.Mu != 2 {
		t.Errorf("parameters not echoed: %s %d", r.Eps, r.Mu)
	}
}
