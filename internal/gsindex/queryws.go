package gsindex

import (
	"cmp"
	"context"
	"fmt"
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

// sweepScratch is the engine-private extraction state SweepWorkspace
// parks in the workspace: the grow-only per-vertex sweep state and
// membership buffer, and the crew phases' closures, bound once so a warm
// extraction allocates none. ix and ctx are dropped on return, so an idle
// workspace pins no index or request.
//
// Within one sweep, roles and uf carry from step to step, and cursor[u],
// for a core u, is the length of the similar prefix of u's neighbour order
// it has already walked. carried is set once a step is done: only then
// can old cores exist.
type sweepScratch struct {
	ix      *Index
	ctx     context.Context
	eps     simdef.Epsilon
	mu      int32
	carried bool
	roles   []result.Role
	cursor  []int32
	uf      *unionfind.Concurrent
	noncore []result.Membership

	fnRole, fnUnion     func(u int32, worker int)
	fnIsCore, fnNotCore func(int32) bool
	fnDegree            func(int32) int32
	fnStop              func() bool
}

// sweepScratchKey identifies the extraction scratch in Workspace.Scratch.
const sweepScratchKey = "gsindex.sweep"

// roleNewCore is the role the roles phase gives a vertex that becomes a
// core at this step, so that the cores phase tells new cores from old ones
// by the roles it reads anyway, with no copy of the previous step's. The
// membership walk turns it into result.RoleCore before the step is
// yielded; it is not a result.Role value and never leaves the sweep.
const roleNewCore result.Role = -1

// isCore reports whether r is a core's role at the current step.
func isCore(r result.Role) bool { return r == result.RoleCore || r == roleNewCore }

func newSweepScratch() any {
	sc := &sweepScratch{}
	sc.fnRole, sc.fnUnion = sc.role, sc.union
	sc.fnIsCore = func(u int32) bool { return isCore(sc.roles[u]) }
	sc.fnNotCore = func(u int32) bool { return sc.roles[u] != result.RoleCore }
	sc.fnDegree = func(u int32) int32 { return sc.ix.g.Degree(u) }
	sc.fnStop = func() bool { return sc.ctx.Err() != nil }
	return sc
}

// QueryWorkspace computes the exact clustering for (eps, mu) from the
// index: it is the one-step SweepWorkspace, so every scratch buffer —
// roles, the union-find, the cluster-id array and the membership list —
// comes from a pooled workspace, and repeated extractions (an
// index-served route) perform zero steady-state heap allocations beyond
// the Result header itself.
//
// Aliasing rule: the returned Result aliases workspace memory (Roles,
// CoreClusterID and NonCore are workspace buffers) and is valid only
// until the next use of ws; call Result.Clone to retain it longer. A nil
// ws allocates transient buffers via a throwaway workspace. Cancellation
// and worker panics behave as in SweepWorkspace.
func (ix *Index) QueryWorkspace(ctx context.Context, eps string, mu int32, ws *engine.Workspace) (*result.Result, error) {
	th, err := simdef.NewThreshold(eps, mu)
	if err != nil {
		return nil, err
	}
	var res *result.Result
	err = ix.SweepWorkspace(ctx, []simdef.Epsilon{th.Eps}, mu, ws, func(_ int, r *result.Result) { res = r })
	return res, err
}

// SweepWorkspace computes the exact clustering for each (epsDesc[i], mu)
// from the index, in order, and hands step i to yield(i, r). epsDesc must
// be non-increasing: at a fixed µ, lowering ε only adds similar arcs, so
// the core set only grows and clusters only merge, and each step extends
// the previous one's union-find instead of starting over. A step is exact
// after any higher ε, so a caller may leave out the gridpoints it already
// has.
//
// Each step has three stages. The roles phase re-tests only the
// non-cores. The cores phase walks each core's similar prefix: a new core
// from the start to an end it searches for from µ, with no σ test,
// unioning with every similar core v > u and every similar old core,
// since the old cores' walks skipped it; an old core from its cursor
// while σ ≥ ε, unioning with every similar core v > u. Both run on the
// workspace's crew with the index's build worker count (Stats.Workers).
// The wait-free union-find's representative is its set's minimum, the
// Definition 3.7 cluster id. Memberships come from one walk over the
// non-cores in vertex order, each scanning its own similar prefix, so
// NonCore is born sorted by (V, ClusterID) and deduplicated.
// With one step the cores phase is the plain v > u rule.
//
// r aliases workspace memory that the next step overwrites: it is valid
// only until yield returns; call Result.Clone to retain it. A nil ws
// allocates transient buffers via a throwaway workspace.
//
// ctx is polled once per crew task and every ctxStride vertices of the
// walk, so a sweep aborts promptly with ctx.Err(). A worker panic returns
// its *result.WorkerPanicError and poisons ws.
func (ix *Index) SweepWorkspace(ctx context.Context, epsDesc []simdef.Epsilon, mu int32, ws *engine.Workspace, yield func(i int, r *result.Result)) error {
	if mu < 1 {
		return fmt.Errorf("gsindex: mu = %d, want >= 1", mu)
	}
	for i := 1; i < len(epsDesc); i++ {
		if a, b := epsDesc[i-1], epsDesc[i]; a.Cmp(b) < 0 {
			return fmt.Errorf("gsindex: sweep ε %s after %s, want non-increasing", b, a)
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if ws == nil {
		ws = engine.NewWorkspace()
		defer ws.Close()
	}
	n := ix.g.NumVertices()
	sc := ws.Scratch(sweepScratchKey, newSweepScratch).(*sweepScratch)
	sc.ix, sc.ctx, sc.mu, sc.carried = ix, ctx, mu, false
	defer func() { sc.ix, sc.ctx = nil, nil }()
	sc.roles, sc.uf = ws.Roles(int(n)), ws.ConcurrentUF(n)
	sc.cursor = slices.Grow(sc.cursor[:0], int(n))[:n]
	for i, eps := range epsDesc {
		start := time.Now()
		sc.eps = eps
		need := sc.fnNotCore
		if !sc.carried {
			need = nil // the first step tests every vertex
		}
		if err := sc.phase(ws, "index roles", need, sc.fnRole); err != nil {
			return err
		}
		if err := sc.phase(ws, "index cores", sc.fnIsCore, sc.fnUnion); err != nil {
			return err
		}
		coreClusterID := ws.CoreClusterIDs(int(n))
		noncore := sc.noncore[:0]
		for v := int32(0); v < n; v++ {
			if v%ctxStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if isCore(sc.roles[v]) {
				sc.roles[v] = result.RoleCore
				coreClusterID[v] = sc.uf.Find(v)
			} else {
				noncore = sc.appendMemberships(noncore, v)
			}
		}
		sc.noncore = noncore // keep the grown buffer for the next step
		sc.carried = true
		yield(i, &result.Result{
			Eps:           eps.String(),
			Mu:            mu,
			Roles:         sc.roles,
			CoreClusterID: coreClusterID,
			NonCore:       noncore,
			Stats:         result.Stats{Algorithm: "GS*-Index", Workers: ix.workers, Total: time.Since(start)},
		})
	}
	return nil
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

// role tests non-core u from the core-order property, O(1).
func (sc *sweepScratch) role(u int32, _ int) {
	sc.roles[u] = result.RoleNonCore
	if sc.ix.IsCore(sc.eps, sc.mu, u) {
		sc.roles[u] = roleNewCore
	}
}

// union walks core u's neighbour order from its cursor to the end of the
// similar prefix, unioning u with each similar core v > u and, if u is a
// new core, with each similar old core. Every similar core pair is so
// unioned at the first step where both are cores and the arc is similar:
// by the smaller end if both are old (the arc is new to both walks) or
// both new, and by the new end otherwise.
//
// A new core's prefix end is searched for from µ — IsCore tested entry
// µ−1, so the first µ entries are similar — and the walk reads no σ. An
// old core's slice is usually a few arcs, where the search's probes cost
// more than the linear test they replace, so it tests arc by arc.
func (sc *sweepScratch) union(u int32, _ int) {
	g := sc.ix.g
	uOff := g.Off[u]
	if sc.roles[u] == result.RoleCore {
		k := sc.cursor[u]
		for _, i := range sc.ix.order[uOff+int64(k) : uOff+int64(g.Degree(u))] {
			pos := uOff + int64(i)
			v := g.Dst[pos]
			if !sc.ix.edgeSimGE(sc.eps, u, pos, v) {
				break // neighbour order: everything after is < eps
			}
			k++
			if v > u && isCore(sc.roles[v]) {
				sc.uf.Union(u, v)
			}
		}
		sc.cursor[u] = k
		return
	}
	end := sc.ix.similarEnd(sc.eps, u, sc.mu)
	for _, i := range sc.ix.order[uOff : uOff+int64(end)] {
		v := g.Dst[uOff+int64(i)]
		if v > u {
			if isCore(sc.roles[v]) {
				sc.uf.Union(u, v)
			}
		} else if sc.carried && sc.roles[v] == result.RoleCore {
			sc.uf.Union(u, v) // an old core, whose walks skipped u
		}
	}
	sc.cursor[u] = end
}

// appendMemberships appends one membership of non-core v per cluster of
// its similar cores (fewer than µ of them), ascending by cluster id.
func (sc *sweepScratch) appendMemberships(dst []result.Membership, v int32) []result.Membership {
	g := sc.ix.g
	first, vOff := len(dst), g.Off[v]
	for _, i := range sc.ix.order[vOff : vOff+int64(g.Degree(v))] {
		pos := vOff + int64(i)
		u := g.Dst[pos]
		if !sc.ix.edgeSimGE(sc.eps, v, pos, u) {
			break
		}
		if isCore(sc.roles[u]) {
			dst = append(dst, result.Membership{V: v, ClusterID: sc.uf.Find(u)})
		}
	}
	if run := dst[first:]; len(run) > 1 {
		slices.SortFunc(run, func(a, b result.Membership) int { return cmp.Compare(a.ClusterID, b.ClusterID) })
		dst = dst[:first+len(slices.Compact(run))]
	}
	return dst
}
