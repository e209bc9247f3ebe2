// Package scanxp implements the SCAN-XP baseline (Takahashi et al., NDA
// 2017): a parallel structural clustering algorithm that exploits thread
// parallelism but performs *exhaustive* similarity computation — every
// directed edge's similarity is evaluated with no pruning and no reuse
// between edge directions, exactly the property that makes it 47x-204x
// slower than ppSCAN on the twitter dataset in the paper (§6.1).
//
// Structure: (1) a parallel exhaustive similarity phase over all directed
// edges, (2) a parallel role phase, (3) parallel core clustering over a
// wait-free union-find, (4) cluster-id initialization and non-core
// clustering. Phases 3-4 reuse ppSCAN's thread-safe machinery; the defining
// difference from ppSCAN is phase 1's lack of workload reduction.
package scanxp

import (
	"context"
	"runtime"
	"slices"
	"time"

	"ppscan/graph"
	"ppscan/internal/engine"
	"ppscan/internal/intersect"
	"ppscan/internal/result"
	"ppscan/internal/sched"
	"ppscan/internal/simdef"
)

func init() { engine.Register(engine.Engine{Name: "scan-xp", Kernel: intersect.Merge, Run: Run}) }

// Run executes SCAN-XP on g with opt.Kernel (SCAN-XP on KNL uses vectorized
// intersection without early termination; the faithful default is
// intersect.Merge) on opt.Workers goroutines (< 1 means GOMAXPROCS). It has
// no checkpoints and never reads ctx. The O(n+m) scratch (similarity labels
// and the concurrent union-find) is drawn from a pooled workspace; nil ws
// runs on a transient one. Result slices never alias ws memory. A contained
// worker panic is returned as a *result.WorkerPanicError.
func Run(_ context.Context, g *graph.Graph, th simdef.Threshold, opt engine.Options, ws *engine.Workspace) (*result.Result, error) {
	if ws == nil {
		ws = engine.NewWorkspace()
		defer ws.Close()
	}
	if opt.Workers < 1 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	n := g.NumVertices()
	sim := ws.EdgeSims(int(g.NumDirectedEdges()))
	roles := make([]result.Role, n)
	counts := make([]int64, opt.Workers)

	// Phase 1+2: exhaustive similarity computation and role assignment.
	// Each vertex evaluates all of its own directed edges — twice the
	// minimum work, as in SCAN-XP.
	err := sched.ForEachVertexStatic(opt.Workers, n, func(u int32, w int) {
		counts[w] += result.LabelArcs(g, 0, n, sim, u, false, false, opt.Kernel, th.Eps)
		roles[u] = result.ArcRole(g, 0, sim, u, th.Mu)
	})
	if err != nil {
		return nil, err
	}

	// Phase 3: parallel core clustering over similar core-core edges, read
	// into one reused buffer per worker.
	uf := ws.ConcurrentUF(n)
	edges := make([][][2]int32, opt.Workers)
	err = sched.ForEachVertexStatic(opt.Workers, n, func(u int32, w int) {
		edges[w] = result.AppendCoreEdges(edges[w][:0], g, u, u+1, sim[g.Off[u]:], roles)
		for _, e := range edges[w] {
			uf.Union(e[0], e[1])
		}
	})
	if err != nil {
		return nil, err
	}

	// Phase 4: cluster ids and non-core memberships, one list per worker.
	coreClusterID := result.CoreClusterIDs(roles, uf)
	members := make([][]result.Membership, opt.Workers)
	err = sched.ForEachVertexStatic(opt.Workers, n, func(u int32, w int) {
		members[w] = result.AppendNonCore(members[w], g, u, u+1, sim[g.Off[u]:], roles, coreClusterID[u:])
	})
	if err != nil {
		return nil, err
	}

	res := &result.Result{
		Eps:           th.Eps.String(),
		Mu:            th.Mu,
		Roles:         roles,
		CoreClusterID: coreClusterID,
		NonCore:       slices.Concat(members...),
	}
	res.Normalize()
	var calls int64
	for _, c := range counts {
		calls += c
	}
	res.Stats = result.Stats{
		Algorithm:    "SCAN-XP",
		Workers:      opt.Workers,
		CompSimCalls: calls,
		Total:        time.Since(start),
	}
	return res, nil
}
