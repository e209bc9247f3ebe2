// Package scanpp implements a SCAN++-style baseline (Shiokawa, Fujiwara,
// Onizuka, VLDB 2015), the other sequential comparator discussed in the
// ppSCAN paper (§1, §3.3: "SCAN++ introduces a data structure called
// Directly Two-hop-Away Reachable vertices (DTAR) and shares intermediate
// similarities within DTAR to reduce the workload. However, maintaining
// DTAR comes at a high cost." — in the paper's environment SCAN++ could
// not finish the twitter dataset within 24 hours).
//
// This implementation reproduces SCAN++'s observable characteristics
// against the other algorithms in this module:
//
//   - pivot-based traversal: vertices are core-checked in a two-hop
//     expansion order, with similarity values shared through a global edge
//     cache so each undirected edge is computed at most once (SCAN++'s
//     similarity sharing);
//   - no min-max pruning: unlike pSCAN/ppSCAN, a pivot always evaluates
//     every incident edge, so the workload stays near |E| at every ε;
//   - DTAR maintenance: the directly-two-hop-away set is materialized per
//     pivot with dynamic allocation — the overhead the ppSCAN paper calls
//     out.
//
// Results are exact and identical to every other algorithm in the module.
package scanpp

import (
	"context"
	"time"

	"ppscan/graph"
	"ppscan/internal/engine"
	"ppscan/internal/intersect"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
)

func init() { engine.Register(engine.Engine{Name: "scan++", Kernel: intersect.MergeEarly, Run: Run}) }

// Run executes the SCAN++ baseline on g; of opt it reads Kernel alone
// (default intersect.MergeEarly), and it never reads ctx. The linear scratch
// (similarity cache, sweep flags and the union-find) is drawn from a pooled
// workspace; nil ws runs on a transient one. The per-pivot DTAR maps stay
// dynamically allocated — that overhead is the documented modeled behavior
// of SCAN++. Result slices never alias ws memory.
func Run(_ context.Context, g *graph.Graph, th simdef.Threshold, opt engine.Options, ws *engine.Workspace) (*result.Result, error) {
	if ws == nil {
		ws = engine.NewWorkspace()
		defer ws.Close()
	}
	start := time.Now()
	n := g.NumVertices()
	s := &state{
		g:      g,
		th:     th,
		kernel: opt.Kernel,
		roles:  make([]result.Role, n),
		sim:    ws.EdgeSims(int(g.NumDirectedEdges())),
	}

	// Pivot sweep: expand pivots through two-hop (DTAR) frontiers.
	processed, inQueue := ws.Flags(int(n)), ws.Flags2(int(n))
	var queue []int32
	for seed := int32(0); seed < n; seed++ {
		if processed[seed] {
			continue
		}
		queue = append(queue[:0], seed)
		inQueue[seed] = true
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			inQueue[u] = false
			if processed[u] {
				continue
			}
			processed[u] = true
			s.checkCore(u)
			// DTAR(u): vertices exactly two hops away through similar
			// neighbors, materialized per pivot (dynamic allocation is the
			// documented SCAN++ overhead).
			dtar := make(map[int32]struct{})
			uOff := g.Off[u]
			for i, v := range g.Neighbors(u) {
				if s.sim[uOff+int64(i)] != simdef.Sim {
					continue
				}
				for _, w := range g.Neighbors(v) {
					if w == u || processed[w] || inQueue[w] {
						continue
					}
					if g.EdgeOffset(u, w) >= 0 {
						continue // direct neighbor, not two-hop-away
					}
					dtar[w] = struct{}{}
				}
			}
			for w := range dtar {
				queue = append(queue, w)
				inQueue[w] = true
			}
		}
	}

	// Finalization: every vertex was processed as a pivot (the sweep's
	// outer loop guarantees it), so all roles are known; cluster exactly
	// as SCAN defines.
	uf := ws.SequentialUF(n)
	for _, e := range result.AppendCoreEdges(nil, g, 0, n, s.sim, s.roles) {
		uf.Union(e[0], e[1])
	}
	res := &result.Result{
		Eps:           th.Eps.String(),
		Mu:            th.Mu,
		Roles:         s.roles,
		CoreClusterID: result.CoreClusterIDs(s.roles, uf),
	}
	res.NonCore = result.AppendNonCore(nil, g, 0, n, s.sim, s.roles, res.CoreClusterID)
	res.Normalize()
	res.Stats = result.Stats{
		Algorithm:    "SCAN++",
		Workers:      1,
		CompSimCalls: s.compSimCalls,
		Total:        time.Since(start),
	}
	return res, nil
}

type state struct {
	g            *graph.Graph
	th           simdef.Threshold
	kernel       intersect.Kind
	sim          []simdef.EdgeSim
	roles        []result.Role
	compSimCalls int64
}

// checkCore evaluates all of u's edges (computing and sharing the unknown
// ones) and assigns u's role. No early termination: SCAN++ has no min-max
// pruning.
func (s *state) checkCore(u int32) {
	n := s.g.NumVertices()
	s.compSimCalls += result.LabelArcs(s.g, 0, n, s.sim, u, false, true, s.kernel, s.th.Eps)
	s.roles[u] = result.ArcRole(s.g, 0, s.sim, u, s.th.Mu)
}
