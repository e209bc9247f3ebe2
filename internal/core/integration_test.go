package core

// Medium-scale differential and stress tests. These complement the
// small-graph corpus: they exercise the scheduler with many tasks, deep
// union-find chains, the pipelined collector under sustained load, and the
// pruning interplay at realistic degree skews.

import (
	"testing"

	"ppscan/graph"
	"ppscan/internal/engine"
	"ppscan/internal/gen"
	"ppscan/internal/intersect"
	"ppscan/internal/pscan"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
)

func TestMediumGraphDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("medium differential skipped in -short")
	}
	graphs := map[string]func() *graph.Graph{
		"roll-30k":        func() *graph.Graph { return gen.Roll(10000, 12, 301) },
		"rmat-60k":        func() *graph.Graph { return gen.RMAT(13, 60000, 0.57, 0.19, 0.19, 302) },
		"communities-40k": func() *graph.Graph { return gen.PlantedPartition(40, 80, 0.25, 0.002, 303) },
	}
	for name, build := range graphs {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			g := build()
			for _, eps := range []string{"0.2", "0.5", "0.8"} {
				th, err := simdef.NewThreshold(eps, 5)
				if err != nil {
					t.Fatal(err)
				}
				want := pscan.Run(g, th, engine.Options{Kernel: intersect.MergeEarly}, pscan.Options{}, nil)
				for _, w := range []int{1, 4, 16} {
					got := run(g, th, engine.Options{Kernel: intersect.PivotBlock16, Workers: w})
					if err := result.Equal(want, got); err != nil {
						t.Fatalf("eps=%s workers=%d: %v", eps, w, err)
					}
					if got.Stats.CompSimCalls > g.NumEdges() {
						t.Fatalf("eps=%s workers=%d: Theorem 4.1 violated (%d > %d)",
							eps, w, got.Stats.CompSimCalls, g.NumEdges())
					}
				}
			}
		})
	}
}

func TestHighContentionUnionHeavy(t *testing.T) {
	// A graph where nearly everything lands in one giant cluster: the
	// wait-free union-find sees maximal contention and the cluster-id CAS
	// races across the whole vertex range.
	g := gen.Clique(300) // all cores, one cluster at permissive parameters
	th, _ := simdef.NewThreshold("0.2", 2)
	r := run(g, th, engine.Options{Kernel: intersect.PivotBlock16, Workers: 16, DegreeThreshold: 1})
	if r.NumClusters() != 1 {
		t.Fatalf("clique should form one cluster, got %d", r.NumClusters())
	}
	if r.NumCores() != 300 {
		t.Fatalf("all clique members should be cores, got %d", r.NumCores())
	}
	for v, id := range r.CoreClusterID {
		if id != 0 {
			t.Fatalf("vertex %d cluster id %d, want 0", v, id)
		}
	}
}

func TestManyTinyClusters(t *testing.T) {
	// The opposite extreme: thousands of independent triangles; exercises
	// cluster-id initialization over many disjoint sets.
	n := int32(2000)
	g := gen.CliqueChain(n, 3)
	// Break the chain influence with strict eps so each K3 is separate:
	// bridge endpoints have degree 3, intra-triangle similarity at the
	// bridge vertex: Γ∩Γ=3, c=ceil(0.8*sqrt(16)) = 4 for deg-3/deg-3
	// pairs... simply assert against pSCAN instead of hand-counting.
	th, _ := simdef.NewThreshold("0.8", 2)
	want := pscan.Run(g, th, engine.Options{Kernel: intersect.MergeEarly}, pscan.Options{}, nil)
	got := run(g, th, engine.Options{Kernel: intersect.PivotBlock16, Workers: 8})
	if err := result.Equal(want, got); err != nil {
		t.Fatal(err)
	}
	if got.NumClusters() < int(n)/2 {
		t.Fatalf("expected many small clusters, got %d", got.NumClusters())
	}
}

func TestExtremeParameters(t *testing.T) {
	g := gen.Roll(2000, 10, 307)
	cases := []struct {
		eps string
		mu  int32
	}{
		{"0.000000001", 1}, // everything similar
		{"1", 1},           // strictest eps
		{"0.5", 1},         // minimum mu
		{"0.5", 1 << 20},   // mu beyond any degree
	}
	for _, tc := range cases {
		th, err := simdef.NewThreshold(tc.eps, tc.mu)
		if err != nil {
			t.Fatalf("threshold %v: %v", tc, err)
		}
		want := pscan.Run(g, th, engine.Options{Kernel: intersect.MergeEarly}, pscan.Options{}, nil)
		got := run(g, th, engine.Options{Kernel: intersect.PivotBlock16, Workers: 4})
		if err := result.Equal(want, got); err != nil {
			t.Fatalf("eps=%s mu=%d: %v", tc.eps, tc.mu, err)
		}
	}
	// eps ~ 0: every adjacent pair similar; every vertex with degree >= 1
	// is a core at mu=1 -> whole connected graph clusters.
	th, _ := simdef.NewThreshold("0.000000001", 1)
	r := run(g, th, engine.Options{Kernel: intersect.PivotBlock16})
	if r.NumCores() != int(g.NumVertices()) {
		t.Errorf("eps~0 mu=1: %d cores of %d", r.NumCores(), g.NumVertices())
	}
	// mu huge: no cores at all.
	th2, _ := simdef.NewThreshold("0.5", 1<<20)
	r2 := run(g, th2, engine.Options{Kernel: intersect.PivotBlock16})
	if r2.NumCores() != 0 || r2.NumClusters() != 0 {
		t.Errorf("huge mu: %d cores, %d clusters", r2.NumCores(), r2.NumClusters())
	}
}
