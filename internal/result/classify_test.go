package result_test

import (
	"context"
	"testing"

	"ppscan/graph"
	"ppscan/internal/algotest"
	"ppscan/internal/engine"
	"ppscan/internal/gen"
	"ppscan/internal/result"
	"ppscan/internal/simdef"

	_ "ppscan/internal/core"
)

// clusterSets is the definition-level view of a result: every cluster each
// vertex belongs to.
func clusterSets(r *result.Result) []map[int32]bool {
	sets := make([]map[int32]bool, len(r.Roles))
	for v := range sets {
		sets[v] = map[int32]bool{}
		if id := r.CoreClusterID[v]; id >= 0 {
			sets[v][id] = true
		}
	}
	for _, m := range r.NonCore {
		sets[m.V][m.ClusterID] = true
	}
	return sets
}

// TestClassifyVertexMatchesDefinition: over the whole corpus, empty graph
// included, the one-vertex answer, the whole-graph answer and Definition
// 2.10 spelled out with sets agree on every vertex.
func TestClassifyVertexMatchesDefinition(t *testing.T) {
	for _, tc := range algotest.Corpus() {
		for _, th := range algotest.Params() {
			r, err := engine.Run(context.Background(), "ppscan", "", tc.G, th, engine.Options{Workers: 2}, nil)
			if err != nil {
				t.Fatal(err)
			}
			sets := clusterSets(r)
			whole := result.ClassifyHubsOutliers(tc.G, r)
			if len(whole) != int(tc.G.NumVertices()) { // the corpus includes the empty graph
				t.Fatalf("%s: %d attachments for %d vertices", tc.Name, len(whole), tc.G.NumVertices())
			}
			for u := int32(0); u < tc.G.NumVertices(); u++ {
				want := result.AttachOutlier
				if len(sets[u]) > 0 {
					want = result.AttachClustered
				} else {
					around := map[int32]bool{}
					for _, v := range tc.G.Neighbors(u) {
						for id := range sets[v] {
							around[id] = true
						}
					}
					if len(around) >= 2 {
						want = result.AttachHub
					}
				}
				if got := result.ClassifyVertex(tc.G, r, u); got != want || whole[u] != want {
					t.Fatalf("%s eps=%s mu=%d vertex %d: one-vertex %v, whole-graph %v, definition %v",
						tc.Name, th.Eps, th.Mu, u, got, whole[u], want)
				}
			}
		}
	}
}

// TestClassifyVertexAllocatesNothing: GET /vertex asks about one vertex of
// a served graph; the answer costs that vertex's adjacency and no heap.
func TestClassifyVertexAllocatesNothing(t *testing.T) {
	g := gen.Roll(20_000, 16, 5)
	th, err := simdef.NewThreshold("0.5", 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := engine.Run(context.Background(), "ppscan", "", g, th, engine.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The costliest question: an unclustered vertex walks its whole
	// adjacency, searching NonCore once per non-core neighbor.
	u := unclusteredMaxDegree(g, r)
	var sink result.Attachment
	if allocs := testing.AllocsPerRun(100, func() { sink = result.ClassifyVertex(g, r, u) }); allocs != 0 {
		t.Errorf("ClassifyVertex(%d) = %v allocates %.1f objects, want 0", u, sink, allocs)
	}
}

func unclusteredMaxDegree(g *graph.Graph, r *result.Result) int32 {
	best := int32(0)
	for u, att := range result.ClassifyHubsOutliers(g, r) {
		if att != result.AttachClustered && g.Degree(int32(u)) > g.Degree(best) {
			best = int32(u)
		}
	}
	return best
}
