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
// labelling u < v arcs with mirrors over [0, n) gives the all-arcs array at
// half the kernel calls (SCAN++ / fleet against SCAN / SCAN-XP); labelling
// each shard.Partition range on its own and then writing its out-of-range
// mirrors (the fleet's outbox → inbox) gives it too; and roles, core edges
// and memberships read range by range concatenate to the whole-graph ones.
func TestArcWalksCompose(t *testing.T) {
	for _, tc := range algotest.Corpus() {
		g, n := tc.G, tc.G.NumVertices()
		for _, th := range algotest.Params() {
			label := func(lo, hi int32, upper, mirror bool) ([]simdef.EdgeSim, int64) {
				sim := make([]simdef.EdgeSim, g.Off[hi]-g.Off[lo])
				var calls int64
				for u := lo; u < hi; u++ {
					calls += result.LabelArcs(g, lo, hi, sim, u, upper, mirror, intersect.Merge, th.Eps)
				}
				return sim, calls
			}
			all, calls := label(0, n, false, false)
			if calls != g.NumDirectedEdges() {
				t.Fatalf("%s: all-arcs labelling made %d kernel calls, want 2m = %d", tc.Name, calls, g.NumDirectedEdges())
			}
			shared, calls := label(0, n, true, true)
			if calls != g.NumEdges() || !slices.Equal(shared, all) {
				t.Fatalf("%s eps=%s: mirrored labelling (%d calls, want m = %d) differs from all-arcs", tc.Name, th.Eps, calls, g.NumEdges())
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
					sims[s], _ = label(bounds[s], bounds[s+1], true, true)
				}
				for s := range sims {
					lo, hi := bounds[s], bounds[s+1]
					for u := lo; u < hi; u++ {
						for i, v := range g.Neighbors(u) {
							if v >= hi {
								o := owner(bounds, v)
								sims[o][g.EdgeOffset(v, u)-g.Off[bounds[o]]] = sims[s][g.Off[u]-g.Off[lo]+int64(i)]
							}
						}
					}
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

func owner(bounds []int32, v int32) int {
	s := 0
	for v >= bounds[s+1] {
		s++
	}
	return s
}
