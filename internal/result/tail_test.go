package result_test

import (
	"slices"
	"testing"

	"ppscan/internal/algotest"
	"ppscan/internal/intersect"
	"ppscan/internal/result"
	"ppscan/internal/shard"
	"ppscan/internal/simdef"
	"ppscan/internal/unionfind"
)

// TestArcWalksCompose: the walks every exhaustive pass shares agree with
// one another however a pass splits its work. Over the corpus × Params():
// labelling each shard.Partition range on its own gives the all-arcs array,
// and roles, core edges and memberships read range by range concatenate to
// the whole-graph ones.
func TestArcWalksCompose(t *testing.T) {
	for _, tc := range algotest.Corpus() {
		g, n := tc.G, tc.G.NumVertices()
		for _, th := range algotest.Params() {
			label := func(lo, hi int32) ([]simdef.EdgeSim, int64) {
				sim := make([]simdef.EdgeSim, g.Off[hi]-g.Off[lo])
				var calls int64
				for u := lo; u < hi; u++ {
					calls += result.LabelArcs(g, lo, sim, u, intersect.Merge, th.Eps)
				}
				return sim, calls
			}
			all, calls := label(0, n)
			if calls != g.NumDirectedEdges() {
				t.Fatalf("%s: all-arcs labelling made %d kernel calls, want 2m = %d", tc.Name, calls, g.NumDirectedEdges())
			}
			roles := make([]result.Role, n)
			for u := range roles {
				roles[u] = result.ArcRole(g, 0, all, int32(u), th.Mu)
			}
			edges := result.AppendCoreEdges(nil, g, 0, n, all, roles)
			uf := unionfind.NewSequential(n)
			for _, e := range edges {
				uf.Union(e[0], e[1])
			}
			ids := result.CoreClusterIDs(roles, uf)
			members := result.AppendNonCore(nil, g, 0, n, all, roles, ids)

			for _, p := range []int{1, 2, 5} {
				bounds := shard.Partition(g, p)
				sims := make([][]simdef.EdgeSim, p)
				for s := range sims {
					sims[s], _ = label(bounds[s], bounds[s+1])
				}
				var gotRoles []result.Role
				var gotEdges [][2]int32
				var gotMembers []result.Membership
				for s, sim := range sims {
					lo, hi := bounds[s], bounds[s+1]
					for u := lo; u < hi; u++ {
						gotRoles = append(gotRoles, result.ArcRole(g, lo, sim, u, th.Mu))
					}
					gotEdges = result.AppendCoreEdges(gotEdges, g, lo, hi, sim, roles)
					gotMembers = result.AppendNonCore(gotMembers, g, lo, hi, sim, roles, ids[lo:hi])
				}
				if !slices.Equal(slices.Concat(sims...), all) || !slices.Equal(gotRoles, roles) ||
					!slices.Equal(gotEdges, edges) || !slices.Equal(gotMembers, members) {
					t.Fatalf("%s eps=%s mu=%d p=%d: per-range walks differ from the whole graph's", tc.Name, th.Eps, th.Mu, p)
				}
			}
		}
	}
}
