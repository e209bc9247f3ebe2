// Package scan implements the original SCAN algorithm (Xu et al., KDD 2007;
// Algorithm 1 of the ppSCAN paper): exhaustive structural similarity
// computation with BFS cluster expansion.
//
// SCAN is the baseline of Figures 1–3. Its similarity workload is
// 2·Σ_v d[v]² comparisons (Theorem 3.4): every directed edge's similarity is
// computed once from each endpoint, with no pruning and no reuse between
// the two directions.
package scan

import (
	"context"
	"time"

	"ppscan/graph"
	"ppscan/internal/engine"
	"ppscan/internal/intersect"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
)

// Options carries the one experiment knob engine.Options has no place for.
type Options struct {
	// Breakdown enables the similarity-evaluation timer used by the
	// Figure 1 experiment (off by default to keep runs unperturbed).
	Breakdown bool
}

func init() {
	engine.Register(engine.Engine{Name: "scan", Kernel: intersect.Merge,
		Run: func(_ context.Context, g *graph.Graph, th simdef.Threshold, opt engine.Options, ws *engine.Workspace) (*result.Result, error) {
			return Run(g, th, opt, Options{}, ws), nil
		}})
}

// Run executes SCAN on g with the given threshold and returns the
// clustering result; of opt it reads Kernel alone (the faithful baseline is
// intersect.Merge: full merge, no early termination). The O(m) similarity
// cache is drawn from a pooled workspace; nil ws runs on a transient one.
// Result slices never alias ws memory.
func Run(g *graph.Graph, th simdef.Threshold, opt engine.Options, x Options, ws *engine.Workspace) *result.Result {
	if ws == nil {
		ws = engine.NewWorkspace()
		defer ws.Close()
	}
	start := time.Now()
	n := g.NumVertices()
	s := &state{
		g:         g,
		th:        th,
		kernel:    opt.Kernel,
		breakdown: x.Breakdown,
		roles:     make([]result.Role, n),
		sim:       ws.EdgeSims(int(g.NumDirectedEdges())),
	}
	res := &result.Result{
		Eps:           th.Eps.String(),
		Mu:            th.Mu,
		Roles:         s.roles,
		CoreClusterID: make([]int32, n),
	}
	for i := range res.CoreClusterID {
		res.CoreClusterID[i] = -1
	}

	// Algorithm 1 main loop: check every unvisited vertex; expand clusters
	// from cores.
	var queue []int32
	for u := int32(0); u < n; u++ {
		if s.roles[u] != result.RoleUnknown {
			continue
		}
		if s.checkCore(u) == result.RoleCore {
			s.expandCluster(u, &queue, res)
		}
	}
	res.NonCore = result.AppendNonCore(nil, g, 0, n, s.sim, s.roles, res.CoreClusterID)
	res.Normalize()
	res.Stats = result.Stats{
		Algorithm:      "SCAN",
		Workers:        1,
		CompSimCalls:   s.compSimCalls,
		Total:          time.Since(start),
		SimilarityTime: s.simTime,
	}
	return res
}

type state struct {
	g            *graph.Graph
	th           simdef.Threshold
	kernel       intersect.Kind
	breakdown    bool
	roles        []result.Role
	sim          []simdef.EdgeSim
	compSimCalls int64
	simTime      time.Duration
}

// checkCore computes sim[e(u,v)] for every neighbor of u (Definition 3.2),
// caches the values for cluster expansion, assigns and returns u's role.
func (s *state) checkCore(u int32) result.Role {
	var t0 time.Time
	if s.breakdown {
		t0 = time.Now()
	}
	s.compSimCalls += result.LabelArcs(s.g, 0, s.sim, u, s.kernel, s.th.Eps)
	if s.breakdown {
		s.simTime += time.Since(t0)
	}
	s.roles[u] = result.ArcRole(s.g, 0, s.sim, u, s.th.Mu)
	return s.roles[u]
}

// expandCluster grows the cluster seeded at core u via BFS over similar
// edges between cores (Algorithm 1, ExpandCluster), recording core
// memberships in res.CoreClusterID; the cluster id is fixed up to the
// minimum core id at the end. Non-core memberships are read off the sim
// array once every core is known.
func (s *state) expandCluster(u int32, queue *[]int32, res *result.Result) {
	g := s.g
	q := (*queue)[:0]
	q = append(q, u)
	cores := []int32{u}
	minCore := u
	res.CoreClusterID[u] = u // provisional; rewritten below
	for len(q) > 0 {
		v := q[len(q)-1]
		q = q[:len(q)-1]
		vOff := g.Off[v]
		for i, w := range g.Neighbors(v) {
			if s.sim[vOff+int64(i)] != simdef.Sim {
				continue
			}
			if s.roles[w] == result.RoleUnknown {
				s.checkCore(w)
			}
			if s.roles[w] == result.RoleCore && res.CoreClusterID[w] < 0 {
				// A new core joins the cluster and the frontier.
				res.CoreClusterID[w] = u
				minCore = min(minCore, w)
				cores = append(cores, w)
				q = append(q, w)
			}
		}
	}
	// Fix up the cluster id to the minimum core id (Definition 3.7).
	for _, c := range cores {
		res.CoreClusterID[c] = minCore
	}
	*queue = q
}
