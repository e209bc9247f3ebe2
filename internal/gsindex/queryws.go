package gsindex

import (
	"context"
	"time"

	"ppscan/internal/engine"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
)

// ctxStride is how many vertices each extraction loop processes between
// cancellation polls: large enough that the poll is free, small enough
// that a sweep step aborts within microseconds of a client disconnect.
const ctxStride = 4096

// sweepScratch is the engine-private extraction state QueryWorkspace
// parks in the workspace: the grow-only membership buffer that every
// generic workspace getter lacks a shape for.
type sweepScratch struct {
	noncore []result.Membership
}

// sweepScratchKey identifies the extraction scratch in Workspace.Scratch.
const sweepScratchKey = "gsindex.sweep"

// QueryWorkspace computes the exact clustering for (eps, mu) from the
// index, drawing every scratch buffer — roles, the union-find, cluster-id
// arrays and the membership list — from a pooled workspace, so repeated
// extractions (a parameter sweep, coalesced fan-out) perform zero
// steady-state heap allocations beyond the Result header itself.
//
// Aliasing rule: the returned Result aliases workspace memory (Roles,
// CoreClusterID and NonCore are workspace buffers) and is valid only
// until the next use of ws; call Result.Clone to retain it longer. A nil
// ws allocates transient buffers via a throwaway workspace.
//
// ctx is polled between vertex strides, so a sweep step aborts promptly
// on client disconnect or deadline expiry with ctx.Err().
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
	g := ix.g
	n := g.NumVertices()
	roles := ws.Roles(int(n))
	// Roles from the core-order property: O(1) per vertex.
	for u := int32(0); u < n; u++ {
		if u%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if ix.IsCore(th.Eps, mu, u) {
			roles[u] = result.RoleCore
		} else {
			roles[u] = result.RoleNonCore
		}
	}
	// Core clustering: scan each core's neighbor order while σ ≥ ε.
	uf := ws.SequentialUF(n)
	for u := int32(0); u < n; u++ {
		if u%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if roles[u] != result.RoleCore {
			continue
		}
		uOff := g.Off[u]
		deg := int64(g.Degree(u))
		for k := int64(0); k < deg; k++ {
			i := int64(ix.order[uOff+k])
			v := g.Dst[uOff+i]
			if !ix.edgeSimGE(th.Eps, u, uOff+i, v) {
				break // neighbor order: everything after is < eps
			}
			if u < v && roles[v] == result.RoleCore {
				uf.Union(u, v)
			}
		}
	}
	// Cluster ids (minimum core id per set) and non-core memberships.
	clusterID := ws.ClusterIDs(int(n))
	coreClusterID := ws.CoreClusterIDs(int(n))
	for u := int32(0); u < n; u++ {
		if u%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if roles[u] == result.RoleCore {
			r := uf.Find(u)
			if clusterID[r] < 0 || u < clusterID[r] {
				clusterID[r] = u
			}
		}
	}
	sc := ws.Scratch(sweepScratchKey, func() any { return new(sweepScratch) }).(*sweepScratch)
	noncore := sc.noncore[:0]
	for u := int32(0); u < n; u++ {
		if u%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if roles[u] != result.RoleCore {
			continue
		}
		id := clusterID[uf.Find(u)]
		coreClusterID[u] = id
		uOff := g.Off[u]
		deg := int64(g.Degree(u))
		for k := int64(0); k < deg; k++ {
			i := int64(ix.order[uOff+k])
			v := g.Dst[uOff+i]
			if !ix.edgeSimGE(th.Eps, u, uOff+i, v) {
				break
			}
			if roles[v] == result.RoleNonCore {
				noncore = append(noncore, result.Membership{V: v, ClusterID: id})
			}
		}
	}
	sc.noncore = noncore // keep the grown buffer for the next extraction
	res := &result.Result{
		Eps:           th.Eps.String(),
		Mu:            mu,
		Roles:         roles,
		CoreClusterID: coreClusterID,
		NonCore:       noncore,
	}
	res.Normalize()
	res.Stats = result.Stats{
		Algorithm: "GS*-Index",
		Workers:   1,
		Total:     time.Since(start),
	}
	return res, nil
}
