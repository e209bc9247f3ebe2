package ppscan

import (
	"bytes"
	"math/rand"
	"testing"

	"ppscan/graph"
	"ppscan/internal/algotest"
	"ppscan/internal/intersect"
	"ppscan/internal/result"
)

func kiteGraph(t *testing.T) *graph.Graph {
	t.Helper()
	// Two K4s joined by one bridge.
	g, err := graph.FromEdges(8, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3},
		{U: 4, V: 5}, {U: 4, V: 6}, {U: 4, V: 7}, {U: 5, V: 6}, {U: 5, V: 7}, {U: 6, V: 7},
		{U: 3, V: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunDefaults(t *testing.T) {
	g := kiteGraph(t)
	r, err := Run(g, Options{Epsilon: "0.7", Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Algorithm != "ppSCAN" {
		t.Errorf("default algorithm = %s", r.Stats.Algorithm)
	}
	if r.NumClusters() != 2 {
		t.Errorf("clusters = %d, want 2 (two K4s)", r.NumClusters())
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	g := algotest.RandomGraph(71)
	var base *Result
	for _, algo := range Algorithms() {
		r, err := Run(g, Options{Algorithm: algo, Epsilon: "0.5", Mu: 3, Workers: 3})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if base == nil {
			base = r
			continue
		}
		if err := Equal(base, r); err != nil {
			t.Errorf("%s disagrees: %v", algo, err)
		}
	}
}

func TestRunValidation(t *testing.T) {
	g := kiteGraph(t)
	cases := []Options{
		{Epsilon: "0.5", Mu: 0},              // bad mu
		{Epsilon: "2", Mu: 2},                // bad eps
		{Epsilon: "", Mu: 2},                 // missing eps
		{Epsilon: "0.5", Mu: 2, Kernel: "x"}, // bad kernel
		{Epsilon: "0.5", Mu: 2, Algorithm: "quantum"},
	}
	for _, opt := range cases {
		if _, err := Run(g, opt); err == nil {
			t.Errorf("Options %+v should fail", opt)
		}
	}
	if _, err := Run(nil, Options{Epsilon: "0.5", Mu: 2}); err == nil {
		t.Errorf("nil graph should fail")
	}
}

// TestKernelOverride runs the facade under every kernel name -kernel
// accepts: each answer is the merge kernel's.
func TestKernelOverride(t *testing.T) {
	g := kiteGraph(t)
	want, err := Run(g, Options{Epsilon: "0.7", Mu: 2, Kernel: "merge"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range intersect.Kinds() {
		got, err := Run(g, Options{Epsilon: "0.7", Mu: 2, Kernel: k.String()})
		if err != nil {
			t.Fatalf("kernel %v: %v", k, err)
		}
		if err := Equal(want, got); err != nil {
			t.Errorf("kernel %v changed the result: %v", k, err)
		}
	}
}

func TestPPSCANNOLabel(t *testing.T) {
	g := kiteGraph(t)
	r, err := Run(g, Options{Algorithm: AlgoPPSCANNO, Epsilon: "0.7", Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Algorithm != "ppSCAN-NO" {
		t.Errorf("algorithm label = %s", r.Stats.Algorithm)
	}
}

// Clustering must be isomorphism-invariant: relabeling the graph relabels
// the clustering and nothing else.
func TestRelabelInvariance(t *testing.T) {
	g := algotest.RandomGraph(91)
	rng := rand.New(rand.NewSource(17))
	perm := make([]int32, g.NumVertices())
	for i, p := range rng.Perm(int(g.NumVertices())) {
		perm[i] = int32(p)
	}
	var edges []graph.Edge
	for _, e := range g.Edges() {
		edges = append(edges, graph.Edge{U: perm[e.U], V: perm[e.V]})
	}
	h, err := graph.FromEdges(g.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Epsilon: "0.4", Mu: 3}
	rg, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Run(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Roles map through the permutation.
	for v := int32(0); v < g.NumVertices(); v++ {
		if rg.Roles[v] != rh.Roles[perm[v]] {
			t.Fatalf("role of %d (-> %d) changed under relabeling", v, perm[v])
		}
	}
	// Core partitions map through the permutation (ids differ, grouping
	// must not).
	idMap := map[int32]int32{} // g cluster id -> h cluster id
	for v := int32(0); v < g.NumVertices(); v++ {
		gid := rg.CoreClusterID[v]
		hid := rh.CoreClusterID[perm[v]]
		if (gid < 0) != (hid < 0) {
			t.Fatalf("clustered-ness of %d changed", v)
		}
		if gid < 0 {
			continue
		}
		if prev, ok := idMap[gid]; ok && prev != hid {
			t.Fatalf("cluster %d split under relabeling", gid)
		}
		idMap[gid] = hid
	}
	if len(idMap) != rh.NumClusters() {
		t.Fatalf("cluster count changed: %d vs %d", len(idMap), rh.NumClusters())
	}
	// Memberships map through the permutation.
	type mk struct{ v, id int32 }
	hm := map[mk]bool{}
	for _, m := range rh.NonCore {
		hm[mk{m.V, m.ClusterID}] = true
	}
	if len(hm) != len(rg.NonCore) {
		t.Fatalf("membership count changed: %d vs %d", len(rg.NonCore), len(hm))
	}
	for _, m := range rg.NonCore {
		if !hm[mk{perm[m.V], idMap[m.ClusterID]}] {
			t.Fatalf("membership %+v lost under relabeling", m)
		}
	}
}

// SCAN's defining overlap semantics: a non-core vertex adjacent-and-similar
// to cores of two different clusters belongs to both. Construct such a
// bridge vertex and verify every algorithm reports both memberships.
func TestOverlappingMemberships(t *testing.T) {
	// Two K4s; vertex 8 is adjacent (and, at moderate ε, similar) to one
	// vertex of each, staying below the core threshold itself.
	g, err := graph.FromEdges(9, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3},
		{U: 4, V: 5}, {U: 4, V: 6}, {U: 4, V: 7}, {U: 5, V: 6}, {U: 5, V: 7}, {U: 6, V: 7},
		{U: 8, V: 0}, {U: 8, V: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Find a parameterization where 8 is a non-core with two memberships.
	var found *Result
	var foundEps string
	var foundMu int
	for _, eps := range []string{"0.4", "0.5", "0.6", "0.7"} {
		for mu := 2; mu <= 5; mu++ {
			r, err := Run(g, Options{Epsilon: eps, Mu: mu})
			if err != nil {
				t.Fatal(err)
			}
			if r.Roles[8] != RoleNonCore {
				continue
			}
			ids := map[int32]bool{}
			for _, m := range r.NonCore {
				if m.V == 8 {
					ids[m.ClusterID] = true
				}
			}
			if len(ids) >= 2 {
				found, foundEps, foundMu = r, eps, mu
			}
		}
	}
	if found == nil {
		t.Fatal("no parameterization produced an overlapping membership; fixture broken")
	}
	// All algorithms agree on the overlapping result.
	for _, algo := range Algorithms() {
		r, err := Run(g, Options{Algorithm: algo, Epsilon: foundEps, Mu: foundMu})
		if err != nil {
			t.Fatal(err)
		}
		if err := Equal(found, r); err != nil {
			t.Errorf("%s: %v", algo, err)
		}
	}
	// The vertex appears in both clusters' member lists.
	count := 0
	for _, members := range found.Clusters() {
		for _, v := range members {
			if v == 8 {
				count++
			}
		}
	}
	if count < 2 {
		t.Errorf("vertex 8 appears in %d clusters, want >= 2", count)
	}
}

func TestWriteReadResultFacade(t *testing.T) {
	g := kiteGraph(t)
	r, err := Run(g, Options{Epsilon: "0.7", Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := result.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Equal(r, back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

func TestBuildIndexFacade(t *testing.T) {
	g := algotest.RandomGraph(93)
	ix := BuildIndex(g, 2)
	direct, err := Run(g, Options{Epsilon: "0.5", Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	queried, err := ix.Query("0.5", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Equal(direct, queried); err != nil {
		t.Fatalf("index query differs from direct run: %v", err)
	}
}

func TestClassifyHubsOutliersFacade(t *testing.T) {
	g := kiteGraph(t)
	r, err := Run(g, Options{Epsilon: "0.95", Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	att := ClassifyHubsOutliers(g, r)
	if len(att) != int(g.NumVertices()) {
		t.Fatalf("attachment length %d", len(att))
	}
	// With eps=0.95 the bridge endpoints' similarity drops; whatever the
	// clustering, the classification must cover all vertices consistently.
	clustered := r.Clustered()
	for v, a := range att {
		if clustered[v] != (a == AttachClustered) {
			t.Errorf("vertex %d: clustered=%v but attachment=%v", v, clustered[v], a)
		}
	}
}
