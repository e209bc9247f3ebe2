package gsindex

import (
	"cmp"
	"context"
	"slices"
	"time"

	"ppscan/internal/engine"
	"ppscan/internal/result"
	"ppscan/internal/sched"
	"ppscan/internal/simdef"
	"ppscan/internal/unionfind"
)

// ctxStride is how many vertices the membership walk processes between
// cancellation polls: large enough that the poll is free, small enough
// that a sweep step aborts within microseconds of a client disconnect.
const ctxStride = 4096

// sweepScratch is the engine-private extraction state QueryWorkspace
// parks in the workspace: the grow-only membership buffer and the crew
// phases' closures, bound once so a warm extraction allocates none. ix and
// ctx are dropped on return, so an idle workspace pins no index or request.
type sweepScratch struct {
	ix      *Index
	ctx     context.Context
	th      simdef.Threshold
	roles   []result.Role
	uf      *unionfind.Concurrent
	noncore []result.Membership

	fnRole, fnUnion func(u int32, worker int)
	fnIsCore        func(int32) bool
	fnDegree        func(int32) int32
	fnStop          func() bool
}

// sweepScratchKey identifies the extraction scratch in Workspace.Scratch.
const sweepScratchKey = "gsindex.sweep"

func newSweepScratch() any {
	sc := &sweepScratch{}
	sc.fnRole, sc.fnUnion = sc.role, sc.union
	sc.fnIsCore = func(u int32) bool { return sc.roles[u] == result.RoleCore }
	sc.fnDegree = func(u int32) int32 { return sc.ix.g.Degree(u) }
	sc.fnStop = func() bool { return sc.ctx.Err() != nil }
	return sc
}

// QueryWorkspace computes the exact clustering for (eps, mu) from the
// index, drawing every scratch buffer — roles, the union-find, the
// cluster-id array and the membership list — from a pooled workspace, so
// repeated extractions (a parameter sweep, an index-served route) perform
// zero steady-state heap allocations beyond the Result header itself.
//
// Roles and core unions are two phases on the workspace's crew, run with
// the index's build worker count (Stats.Workers). The wait-free
// union-find's representative is its set's minimum, the Definition 3.7
// cluster id. Memberships come from one walk over the non-cores in vertex
// order, each scanning its own similar prefix, so NonCore is born sorted
// by (V, ClusterID) and deduplicated.
//
// Aliasing rule: the returned Result aliases workspace memory (Roles,
// CoreClusterID and NonCore are workspace buffers) and is valid only
// until the next use of ws; call Result.Clone to retain it longer. A nil
// ws allocates transient buffers via a throwaway workspace.
//
// ctx is polled once per crew task and every ctxStride vertices of the
// walk, so a sweep step aborts promptly with ctx.Err(). A worker panic
// returns its *result.WorkerPanicError and poisons ws.
func (ix *Index) QueryWorkspace(ctx context.Context, eps string, mu int32, ws *engine.Workspace) (*result.Result, error) {
	th, err := simdef.NewThreshold(eps, mu)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if ws == nil {
		ws = engine.NewWorkspace()
		defer ws.Close()
	}
	start := time.Now()
	n := ix.g.NumVertices()
	sc := ws.Scratch(sweepScratchKey, newSweepScratch).(*sweepScratch)
	sc.ix, sc.ctx, sc.th = ix, ctx, th
	defer func() { sc.ix, sc.ctx = nil, nil }()
	sc.roles, sc.uf = ws.Roles(int(n)), ws.ConcurrentUF(n)
	if err := sc.phase(ws, "index roles", nil, sc.fnRole); err != nil {
		return nil, err
	}
	if err := sc.phase(ws, "index cores", sc.fnIsCore, sc.fnUnion); err != nil {
		return nil, err
	}
	coreClusterID := ws.CoreClusterIDs(int(n))
	noncore := sc.noncore[:0]
	for v := int32(0); v < n; v++ {
		if v%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if sc.roles[v] == result.RoleCore {
			coreClusterID[v] = sc.uf.Find(v)
		} else {
			noncore = sc.appendMemberships(noncore, v)
		}
	}
	sc.noncore = noncore // keep the grown buffer for the next extraction
	return &result.Result{
		Eps:           th.Eps.String(),
		Mu:            mu,
		Roles:         sc.roles,
		CoreClusterID: coreClusterID,
		NonCore:       noncore,
		Stats:         result.Stats{Algorithm: "GS*-Index", Workers: ix.workers, Total: time.Since(start)},
	}, nil
}

// phase runs one crew phase over the vertices passing need. A contained
// worker panic poisons ws, as in a ppSCAN run; a stopped crew reports
// nothing, so ctx's error is the phase's otherwise.
func (sc *sweepScratch) phase(ws *engine.Workspace, name string, need func(int32) bool, process func(int32, int)) error {
	err := ws.Crew(sc.ix.workers).ForEachVertex(sched.Options{Phase: name},
		sc.ix.g.NumVertices(), need, sc.fnDegree, process, sc.fnStop)
	if err != nil {
		ws.Poison()
		return err
	}
	return sc.ctx.Err()
}

// role is u's role from the core-order property, O(1).
func (sc *sweepScratch) role(u int32, _ int) {
	sc.roles[u] = result.RoleNonCore
	if sc.ix.IsCore(sc.th.Eps, sc.th.Mu, u) {
		sc.roles[u] = result.RoleCore
	}
}

// union unions core u with each similar core v > u, so every similar
// core pair is unioned once.
func (sc *sweepScratch) union(u int32, _ int) {
	g := sc.ix.g
	uOff := g.Off[u]
	for _, i := range sc.ix.order[uOff : uOff+int64(g.Degree(u))] {
		pos := uOff + int64(i)
		v := g.Dst[pos]
		if !sc.ix.edgeSimGE(sc.th.Eps, u, pos, v) {
			return // neighbour order: everything after is < eps
		}
		if v > u && sc.roles[v] == result.RoleCore {
			sc.uf.Union(u, v)
		}
	}
}

// appendMemberships appends one membership of non-core v per cluster of
// its similar cores (fewer than µ of them), ascending by cluster id.
func (sc *sweepScratch) appendMemberships(dst []result.Membership, v int32) []result.Membership {
	g := sc.ix.g
	first, vOff := len(dst), g.Off[v]
	for _, i := range sc.ix.order[vOff : vOff+int64(g.Degree(v))] {
		pos := vOff + int64(i)
		u := g.Dst[pos]
		if !sc.ix.edgeSimGE(sc.th.Eps, v, pos, u) {
			break
		}
		if sc.roles[u] == result.RoleCore {
			dst = append(dst, result.Membership{V: v, ClusterID: sc.uf.Find(u)})
		}
	}
	if run := dst[first:]; len(run) > 1 {
		slices.SortFunc(run, func(a, b result.Membership) int { return cmp.Compare(a.ClusterID, b.ClusterID) })
		dst = dst[:first+len(slices.Compact(run))]
	}
	return dst
}
