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

// walkBlock is the width of a membership-walk block: the walk's crew
// tasks are cut from whole blocks, and each block appends to its own
// buffer, so the buffers in block order are the walk's output in vertex
// order whatever the crew size.
const walkBlock = 1024

// sweepScratch is the engine-private extraction state SweepWorkspace
// parks in the workspace: the grow-only per-vertex sweep state and
// membership buffers, and the crew phases' closures, bound once so a warm
// extraction allocates none. ix and ctx are dropped on return, so an idle
// workspace pins no index or request.
//
// Within one sweep, roles and uf carry from step to step, and cursor[u],
// for a core u, is the length of the similar prefix of u's neighbour order
// it has already walked. carried is set once a step is done: only then
// can old cores exist.
type sweepScratch struct {
	ix            *Index
	ctx           context.Context
	eps           simdef.Epsilon
	mu            int32
	carried       bool
	roles         []result.Role
	cursor        []int32
	uf            *unionfind.Concurrent
	coreClusterID []int32
	noncore       []result.Membership
	blocks        [][]result.Membership // blocks[b]: the walk's memberships of block b

	fnRole, fnUnion, fnWalk func(u int32, worker int)
	fnIsCore, fnNotCore     func(int32) bool
	fnDegree, fnBlockDegree func(int32) int32
	fnStop                  func() bool
}

// sweepScratchKey identifies the extraction scratch in Workspace.Scratch.
const sweepScratchKey = "gsindex.sweep"

// roleNewCore is the role the roles phase gives a vertex that becomes a
// core at this step, so that the cores phase tells new cores from old ones
// by the roles it reads anyway, with no copy of the previous step's.
// SweepWorkspace turns it into result.RoleCore after the membership walk's
// barrier; it is not a result.Role value and never leaves the sweep.
const roleNewCore result.Role = -1

// isCore reports whether r is a core's role at the current step.
func isCore(r result.Role) bool { return r == result.RoleCore || r == roleNewCore }

func newSweepScratch() any {
	sc := &sweepScratch{}
	sc.fnRole, sc.fnUnion, sc.fnWalk = sc.role, sc.union, sc.walk
	sc.fnIsCore = func(u int32) bool { return isCore(sc.roles[u]) }
	sc.fnNotCore = func(u int32) bool { return sc.roles[u] != result.RoleCore }
	sc.fnDegree = func(u int32) int32 { return sc.ix.g.Degree(u) }
	sc.fnBlockDegree = func(b int32) int32 {
		g := sc.ix.g
		lo, hi := b*walkBlock, min((b+1)*walkBlock, g.NumVertices())
		return int32(min(g.Off[hi]-g.Off[lo], 1<<30))
	}
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
// Definition 3.7 cluster id. The third stage, the membership walk, is a
// crew phase over fixed vertex blocks: it reads each core's cluster id
// and scans each non-core's similar prefix into its block's buffer, and
// the buffers in block order make NonCore born sorted by (V, ClusterID)
// and deduplicated. With one step the cores phase is the plain v > u rule.
//
// r aliases workspace memory that the next step overwrites: it is valid
// only until yield returns; call Result.Clone to retain it. A nil ws
// allocates transient buffers via a throwaway workspace.
//
// ctx is polled once per crew task of each phase, so a sweep aborts
// promptly with ctx.Err(). A worker panic returns its
// *result.WorkerPanicError and poisons ws.
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
	blocks := (n + walkBlock - 1) / walkBlock
	sc := ws.Scratch(sweepScratchKey, newSweepScratch).(*sweepScratch)
	sc.ix, sc.ctx, sc.mu, sc.carried = ix, ctx, mu, false
	defer func() { sc.ix, sc.ctx = nil, nil }()
	sc.roles, sc.uf = ws.Roles(int(n)), ws.ConcurrentUF(n)
	sc.cursor = slices.Grow(sc.cursor[:0], int(n))[:n]
	if len(sc.blocks) < int(blocks) {
		sc.blocks = append(sc.blocks, make([][]result.Membership, int(blocks)-len(sc.blocks))...)
	}
	for i, eps := range epsDesc {
		start := time.Now()
		sc.eps = eps
		need := sc.fnNotCore
		if !sc.carried {
			need = nil // the first step tests every vertex
		}
		if err := sc.phase(ws, "index roles", n, need, sc.fnDegree, sc.fnRole); err != nil {
			return err
		}
		if err := sc.phase(ws, "index cores", n, sc.fnIsCore, sc.fnDegree, sc.fnUnion); err != nil {
			return err
		}
		sc.coreClusterID = ws.CoreClusterIDs(int(n))
		if err := sc.phase(ws, "index members", blocks, nil, sc.fnBlockDegree, sc.fnWalk); err != nil {
			return err
		}
		// After the barrier: no worker reads roles any more.
		for v, r := range sc.roles {
			if r == roleNewCore {
				sc.roles[v] = result.RoleCore
			}
		}
		noncore := sc.noncore[:0]
		for _, buf := range sc.blocks[:blocks] {
			noncore = append(noncore, buf...)
		}
		sc.noncore = noncore // keep the grown buffer for the next step
		sc.carried = true
		yield(i, &result.Result{
			Eps:           eps.String(),
			Mu:            mu,
			Roles:         sc.roles,
			CoreClusterID: sc.coreClusterID,
			NonCore:       noncore,
			Stats:         result.Stats{Algorithm: "GS*-Index", Workers: ix.workers, Total: time.Since(start)},
		})
	}
	return nil
}

// phase runs one crew phase over the items [0, n) passing need, cut by
// the workload estimate deg. A contained worker panic poisons ws, as in a
// ppSCAN run; a stopped crew reports nothing, so ctx's error is the
// phase's otherwise.
func (sc *sweepScratch) phase(ws *engine.Workspace, name string, n int32, need func(int32) bool, deg func(int32) int32, process func(int32, int)) error {
	err := ws.Crew(sc.ix.workers).ForEachVertex(sched.Options{Phase: name},
		n, need, deg, process, sc.fnStop)
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
// more than the linear test they replace, so it tests arc by arc. Before
// any step is done there are no old cores, so a one-step extraction's
// new-core walk has no old-core branch.
func (sc *sweepScratch) union(u int32, _ int) {
	ix := sc.ix
	off, du := ix.at[u], ix.g.Degree(u)
	if sc.roles[u] == result.RoleCore {
		du1, k := uint64(du)+1, sc.cursor[u]
		for ; k < du && ix.simGE(sc.eps, du1, off+int64(k)); k++ {
			// neighbour order: the first dissimilar entry ends the prefix
			if v := ix.nbr[off+int64(k)]; v > u && isCore(sc.roles[v]) {
				sc.uf.Union(u, v)
			}
		}
		sc.cursor[u] = k
		return
	}
	end := ix.similarEnd(sc.eps, u, sc.mu)
	sc.cursor[u] = end
	run := ix.nbr[off : off+int64(end)]
	if !sc.carried {
		for _, v := range run {
			if v > u && isCore(sc.roles[v]) {
				sc.uf.Union(u, v)
			}
		}
		return
	}
	for _, v := range run {
		if v > u && isCore(sc.roles[v]) || v < u && sc.roles[v] == result.RoleCore {
			sc.uf.Union(u, v) // a core above u, or an old core, whose walks skipped u
		}
	}
}

// walk is the membership walk of block b: each core's cluster id, and
// each non-core's memberships appended to the block's buffer. It writes
// no role: roles is read by every worker until the phase's barrier.
func (sc *sweepScratch) walk(b int32, _ int) {
	lo, hi := b*walkBlock, min((b+1)*walkBlock, sc.ix.g.NumVertices())
	dst := sc.blocks[b][:0]
	for v := lo; v < hi; v++ {
		if isCore(sc.roles[v]) {
			sc.coreClusterID[v] = sc.uf.Find(v)
		} else {
			dst = sc.appendMemberships(dst, v)
		}
	}
	sc.blocks[b] = dst
}

// appendMemberships appends one membership of non-core v per cluster of
// its similar cores (fewer than µ of them), ascending by cluster id.
func (sc *sweepScratch) appendMemberships(dst []result.Membership, v int32) []result.Membership {
	ix := sc.ix
	lo := ix.at[v]
	first, hi, dv1 := len(dst), lo+int64(ix.g.Degree(v)), uint64(ix.g.Degree(v))+1
	for e := lo; e < hi && ix.simGE(sc.eps, dv1, e); e++ {
		if u := ix.nbr[e]; isCore(sc.roles[u]) {
			dst = append(dst, result.Membership{V: v, ClusterID: sc.uf.Find(u)})
		}
	}
	if run := dst[first:]; len(run) > 1 {
		slices.SortFunc(run, func(a, b result.Membership) int { return cmp.Compare(a.ClusterID, b.ClusterID) })
		dst = dst[:first+len(slices.Compact(run))]
	}
	return dst
}
