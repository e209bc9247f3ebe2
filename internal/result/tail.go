package result

import (
	"ppscan/graph"
	"ppscan/internal/intersect"
	"ppscan/internal/simdef"
)

// CoreClusterIDs is the sequential form of the paper's P6 (InitClusterId):
// given final roles and a union-find whose sets join similar cores (both
// unionfind types fit), it returns each core's cluster id — the minimum
// core id of its set — and -1 for every other vertex. One array serves as
// both the root-indexed minimum and the answer: a root's own answer is its
// set's minimum, so the projection pass rewrites roots with the value they
// already hold. The last pass clears a root that is not a core, which only
// a union the caller did not vet (a fleet worker's edge list) can produce.
func CoreClusterIDs(roles []Role, uf interface{ Find(int32) int32 }) []int32 {
	ids := make([]int32, len(roles))
	for i := range ids {
		ids[i] = -1
	}
	for u, role := range roles {
		if role == RoleCore {
			if r := uf.Find(int32(u)); ids[r] < 0 || int32(u) < ids[r] {
				ids[r] = int32(u)
			}
		}
	}
	for u, role := range roles {
		if role == RoleCore {
			ids[u] = ids[uf.Find(int32(u))]
		}
	}
	for u, role := range roles {
		if role != RoleCore {
			ids[u] = -1
		}
	}
	return ids
}

// The walks below are the exhaustive passes' loops over the similarity
// array of a vertex range [lo, hi): sim holds the arcs of that range, sim[0]
// being arc g.Off[lo]. The exhaustive passes (SCAN, SCAN-XP, SCAN++,
// anySCAN) differ only in the arguments they pass; ppSCAN's pruned phases
// walk a range in core.Range.

// LabelArcs labels u's still-Unknown arcs with the kernel kind: all of them,
// or with upper only those to v > u. With mirror, each value is also written
// into arc (v, u) when v is in range — the similarity-value reuse that
// halves Theorem 3.4's 2·Σ workload. It returns the number of kernel calls.
func LabelArcs(g *graph.Graph, lo, hi int32, sim []simdef.EdgeSim, u int32, upper, mirror bool, kind intersect.Kind, eps simdef.Epsilon) int64 {
	base := g.Off[lo]
	off := g.Off[u] - base
	nbrs := g.Neighbors(u)
	var calls int64
	for i, v := range nbrs {
		if (upper && v <= u) || sim[off+int64(i)] != simdef.Unknown {
			continue
		}
		val := intersect.Sim(kind, eps, nbrs, g.Neighbors(v), nil)
		calls++
		sim[off+int64(i)] = val
		if mirror && v >= lo && v < hi {
			// Binary search kept: SCAN++ is the only mirroring caller.
			sim[g.EdgeOffset(v, u)-base] = val
		}
	}
	return calls
}

// ArcRole is u's role from its complete labels: core iff at least mu of
// its arcs are similar (|N_ε(u)| counts u itself).
func ArcRole(g *graph.Graph, lo int32, sim []simdef.EdgeSim, u, mu int32) Role {
	off := g.Off[u] - g.Off[lo]
	var similar int32
	for _, val := range sim[off : off+int64(g.Degree(u))] {
		if val == simdef.Sim {
			similar++
		}
	}
	if similar >= mu {
		return RoleCore
	}
	return RoleNonCore
}

// AppendCoreEdges appends the similar core–core edges (u, v), u < v, whose
// smaller endpoint u is in [lo, hi): the union-find input of P5. roles is
// whole-graph.
func AppendCoreEdges(dst [][2]int32, g *graph.Graph, lo, hi int32, sim []simdef.EdgeSim, roles []Role) [][2]int32 {
	base := g.Off[lo]
	for u := lo; u < hi; u++ {
		if roles[u] != RoleCore {
			continue
		}
		off := g.Off[u] - base
		for i, v := range g.Neighbors(u) {
			if v > u && roles[v] == RoleCore && sim[off+int64(i)] == simdef.Sim {
				dst = append(dst, [2]int32{u, v})
			}
		}
	}
	return dst
}

// AppendNonCore is P7 (ClusterNonCore) over a complete similarity array:
// for every core u in [lo, hi) it appends (v, ids[u-lo]) for each non-core
// neighbor v across a similar edge. sim holds the arcs of that range —
// sim[0] is arc g.Off[lo] — and ids its cluster ids; roles is whole-graph.
// The caller Normalizes the assembled list.
func AppendNonCore(dst []Membership, g *graph.Graph, lo, hi int32, sim []simdef.EdgeSim, roles []Role, ids []int32) []Membership {
	base := g.Off[lo]
	for u := lo; u < hi; u++ {
		if roles[u] != RoleCore {
			continue
		}
		id := ids[u-lo]
		off := g.Off[u] - base
		for i, v := range g.Neighbors(u) {
			if roles[v] == RoleNonCore && sim[off+int64(i)] == simdef.Sim {
				dst = append(dst, Membership{V: v, ClusterID: id})
			}
		}
	}
	return dst
}
