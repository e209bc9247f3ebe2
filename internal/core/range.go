package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ppscan/graph"
	"ppscan/internal/intersect"
	"ppscan/internal/result"
	"ppscan/internal/sched"
	"ppscan/internal/simdef"
	"ppscan/internal/unionfind"
)

// Range holds ppSCAN's per-vertex phase bodies over one owned vertex range
// [lo, hi) of a snapshot. Run walks the range [0, n) and adds P6; a fleet
// worker (internal/shard) walks its partition through Roles, ClusterCores
// and NonCore. Both call the same bodies.
//
// The arc words cover the owned arcs only: arcs[0] is arc g.Off[lo]. A body
// computes any arc an owned vertex reads, its other end in range or not,
// and mirrors the value into arc (v, u) only when v is in range. An edge
// across the range boundary may therefore be computed by both owners.
// Roles and the union-find are indexed by vertex over the whole graph.
type Range struct {
	g      *graph.Graph
	lo, hi int32
	base   int64 // g.Off[lo]
	th     simdef.Threshold
	kernel intersect.Kind
	// arcs holds one word per owned arc (u, v): pos<<2 | label, with label
	// a simdef.EdgeSim and pos the position of arc (v, u) within v's run
	// when v is in range (0 otherwise). buildArcs fills the positions once
	// per graph; the phases rewrite only labels (DESIGN.md §3a).
	arcs    []int32
	roles   []result.Role // P1–P3 write the owned range; P4, P5 and P7 read any vertex
	uf      *unionfind.Concurrent
	ids     []int32 // P7: the cluster id of core u is ids[u-lo]
	workers []workerState
	// phase is the stage CompSim calls are attributed to; set between
	// phases, before workers receive tasks.
	phase result.PhaseID
	// kernelOn collects intersect.Stats per CompSim call: on for Run, off
	// in a fleet worker's Range, which reports only call counts.
	kernelOn bool

	// P7's per-worker emission buffers, flushed into collected under ncMu.
	ncMu      sync.Mutex
	ncLocal   [][]result.Membership
	collected []result.Membership

	own []result.Role // NewRange only: the roles P1–P3 write
}

// An arc word keeps its label in the low labelBits bits and the reverse
// position above them.
const (
	labelBits = 2
	labelMask = 1<<labelBits - 1
)

// MaxDegree is the first vertex degree arc words cannot hold: a reverse
// position must fit in the 29 bits above the label.
const MaxDegree = 1 << (31 - labelBits)

// DegreeError reports a vertex of degree MaxDegree or more, whose reverse
// positions an arc word cannot hold.
type DegreeError struct {
	Vertex, Degree int32
}

func (e *DegreeError) Error() string {
	return fmt.Sprintf("core: vertex %d has degree %d; ppSCAN's arc words hold degrees below %d (2^29)",
		e.Vertex, e.Degree, MaxDegree)
}

// checkDegree is the arc words' degree guard.
func checkDegree(u, d int32) error {
	if d >= MaxDegree {
		return &DegreeError{Vertex: u, Degree: d}
	}
	return nil
}

// buildArcs fills arcs, the words of [lo, hi)'s arcs, with the reverse
// positions and Unknown labels in one cursor pass. cur is scratch of
// hi-lo entries. Visiting u in ascending order, each v's run is met in
// ascending order of its neighbours u, so v's cursor, started at its first
// neighbour ≥ lo, is the position of (v, u) when u reaches it. Each edge
// with both ends in range is filled from its lower end, both arcs at once.
func buildArcs(g *graph.Graph, lo, hi int32, arcs, cur []int32) error {
	base := g.Off[lo]
	for v := lo; v < hi; v++ {
		if err := checkDegree(v, g.Degree(v)); err != nil {
			return err
		}
		j, _ := slices.BinarySearch(g.Neighbors(v), lo)
		cur[v-lo] = int32(j)
	}
	clear(arcs)
	for u := lo; u < hi; u++ {
		uOff := g.Off[u] - base
		for i, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			if v >= hi {
				break
			}
			j := cur[v-lo]
			cur[v-lo]++
			arcs[uOff+int64(i)] = j << labelBits
			arcs[g.Off[v]-base+int64(j)] = int32(i) << labelBits
		}
	}
	return nil
}

// NewRange prepares ppSCAN's phases over the owned range [lo, hi) of g at
// th, with kernel and up to workers goroutines per phase (at least one),
// building the range's arc words. It fails with a *DegreeError when a
// vertex in range has degree MaxDegree or more.
func NewRange(g *graph.Graph, lo, hi int32, th simdef.Threshold, kernel intersect.Kind, workers int) (*Range, error) {
	workers = max(workers, 1)
	r := &Range{
		g: g, lo: lo, hi: hi, base: g.Off[lo], th: th, kernel: kernel,
		arcs:    make([]int32, g.Off[hi]-g.Off[lo]),
		own:     make([]result.Role, g.NumVertices()),
		workers: make([]workerState, workers),
		ncLocal: make([][]result.Membership, workers),
	}
	if err := buildArcs(g, lo, hi, r.arcs, make([]int32, hi-lo)); err != nil {
		return nil, err
	}
	return r, nil
}

// Roles runs P1–P3 over the range from no labels: P1 rewrites every
// owned label. It returns the final roles of [lo, hi) — read-only, valid as
// long as the Range — and the CompSim calls made.
func (r *Range) Roles(ctx context.Context) ([]result.Role, int64, error) {
	r.roles = r.own
	calls, err := r.run(ctx, []rangePhase{
		{"P1 prune-sim", result.PhasePruning, nil, r.pruneSim},
		{"P2 check-core", result.PhaseCheckCore, r.roleUnknown, r.checkCore},
		{"P3 consolidate-core", result.PhaseCheckCore, r.roleUnknown, r.consolidateCore},
	})
	return r.own[r.lo:r.hi], calls, err
}

// ClusterCores runs P4 then P5 over the range's cores under roles, a
// whole-graph assignment, in a union-find that starts empty. It returns a
// spanning forest of the unions: (x, root) for each core x that is not its
// set's root. The root is the set's minimum member and every union joins an
// owned u to some v > u, so each root is owned and below its x. Arcs P1–P3
// left unknown are computed unless their ends are already joined.
func (r *Range) ClusterCores(ctx context.Context, roles []result.Role) ([][2]int32, int64, error) {
	n := r.g.NumVertices()
	if r.uf == nil {
		r.uf = unionfind.NewConcurrent(n)
	} else {
		r.uf.Reset(n)
	}
	r.roles = roles
	defer func() { r.roles = r.own }()
	calls, err := r.run(ctx, []rangePhase{
		{"P4 cluster-core", result.PhaseClusterCore, r.isCore, r.clusterCoreWithoutCompSim},
		{"P5 cluster-core-compsim", result.PhaseClusterCore, r.isCore, r.clusterCoreWithCompSim},
	})
	if err != nil {
		return nil, calls, err
	}
	var forest [][2]int32
	for x := r.lo + 1; x < n; x++ {
		if root := r.uf.Find(x); root != x {
			forest = append(forest, [2]int32{x, root})
		}
	}
	return forest, calls, nil
}

// NonCore runs P7 over the range's cores under roles, a whole-graph
// assignment, with ids[u-lo] the cluster id of core u. It returns a new
// list of the memberships (v, ids[u-lo]) for each non-core neighbour v
// across a similar arc, computing the arcs still unknown.
func (r *Range) NonCore(ctx context.Context, roles []result.Role, ids []int32) ([]result.Membership, int64, error) {
	r.roles, r.ids, r.collected = roles, ids, nil
	defer func() { r.roles, r.ids = r.own, nil }()
	calls, err := r.run(ctx, []rangePhase{
		{"P7 cluster-non-core", result.PhaseClusterNonCore, r.isCore, r.nonCoreVertex},
	})
	for w := range r.ncLocal {
		r.flushNonCore(w)
	}
	return r.collected, calls, err
}

// rangePhase is one phase a range driver runs: need and body take vertex
// ids; need nil means every vertex.
type rangePhase struct {
	name string
	id   result.PhaseID
	need func(int32) bool
	body func(u int32, worker int)
}

// run executes phases in order over [lo, hi) on a crew that lives for the
// call, cut by Algorithm 5 and stopped within one task when ctx ends. It
// returns the CompSim calls the phases made.
func (r *Range) run(ctx context.Context, phases []rangePhase) (int64, error) {
	for i := range r.workers {
		r.workers[i] = workerState{}
	}
	c := sched.NewCrew(len(r.workers))
	defer c.Close()
	lo := r.lo
	deg := func(i int32) int32 { return r.g.Degree(lo + i) }
	stop := func() bool { return ctx.Err() != nil }
	var err error
	for _, p := range phases {
		r.phase = p.id
		var need func(int32) bool
		if p.need != nil {
			need = func(i int32) bool { return p.need(lo + i) }
		}
		body := p.body
		err = c.ForEachVertex(sched.Options{Phase: p.name}, r.hi-lo, need, deg,
			func(i int32, w int) { body(lo+i, w) }, stop)
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			break
		}
	}
	calls, _, _ := r.fold()
	return calls, err
}

// fold sums the per-worker instrumentation blocks into one aggregate.
func (r *Range) fold() (calls int64, byPhase [result.NumPhases]int64, kern intersect.Stats) {
	for i := range r.workers {
		w := &r.workers[i]
		for p, n := range w.compSim {
			calls += n
			byPhase[p] += n
		}
		kern.Merge(&w.kern)
	}
	return calls, byPhase, kern
}

func (r *Range) degree(u int32) int32 { return r.g.Degree(u) }

func (r *Range) roleUnknown(u int32) bool { return r.roles[u] == result.RoleUnknown }
func (r *Range) isCore(u int32) bool      { return r.roles[u] == result.RoleCore }

// label loads arc e's label; a mirror store may land concurrently.
func (r *Range) label(e int64) simdef.EdgeSim {
	return simdef.EdgeSim(atomic.LoadInt32(&r.arcs[e]) & labelMask)
}

// mirror publishes val into arc (v, u), at position pos of v's run, when v
// is in range, so that v's task picks it up in its own pass: the
// similarity-value reuse. i is the position of (u, v) in u's run, so the
// whole word is known and one atomic store writes it.
func (r *Range) mirror(v, pos int32, i int, val simdef.EdgeSim) {
	if v >= r.lo && v < r.hi {
		atomic.StoreInt32(&r.arcs[r.g.Off[v]-r.base+int64(pos)], int32(i)<<labelBits|int32(val))
	}
}

// compSim evaluates one structural similarity with the configured kernel,
// attributing the call (and, when kernelOn, the kernel-level telemetry)
// to this worker's private block.
func (r *Range) compSim(u, v int32, worker int) simdef.EdgeSim {
	w := &r.workers[worker]
	w.compSim[r.phase]++
	var st *intersect.Stats
	if r.kernelOn {
		st = &w.kern
	}
	return intersect.Sim(r.kernel, r.th.Eps, r.g.Neighbors(u), r.g.Neighbors(v), st)
}

// pruneSim is Algorithm 3's PruneSim(u): label edges by the similarity
// predicate pruning rules and initialize u's role from the labels. Every
// arc of u gets a label, so no clear precedes the phase.
func (r *Range) pruneSim(u int32, worker int) {
	g := r.g
	du := g.Degree(u)
	cut := r.th.Eps.PruneCut(du)
	sd, ed := int32(0), du
	uOff := g.Off[u] - r.base
	for i, v := range g.Neighbors(u) {
		e := uOff + int64(i)
		val := cut.Result(g.Degree(v))
		//lint:atomicok P1: u's task is arc e's only writer and nothing reads the arcs before the phase barrier
		r.arcs[e] = r.arcs[e]&^labelMask | int32(val)
		switch val {
		case simdef.Sim:
			sd++
		case simdef.NSim:
			ed--
		}
	}
	switch {
	case sd >= r.th.Mu:
		r.roles[u] = result.RoleCore
	case ed < r.th.Mu:
		r.roles[u] = result.RoleNonCore
	default:
		r.roles[u] = result.RoleUnknown
	}
}

// checkCore is Algorithm 3's CheckCore(u): re-derive local sd/ed from known
// similarity labels, then compute unknown similarities under the u < v
// constraint, with min-max early termination. The role may remain Unknown
// (resolved by consolidateCore).
func (r *Range) checkCore(u int32, worker int) {
	r.roleScan(u, worker, true)
}

// consolidateCore is Algorithm 3's ConsolidateCore(u): CheckCore without
// the u < v constraint. After it, u's role is definitely known: every
// needed similarity is either already labeled or computed here.
func (r *Range) consolidateCore(u int32, worker int) {
	r.roleScan(u, worker, false)
	if r.roles[u] == result.RoleUnknown {
		// All similarities known and neither bound fired early: sd is now
		// exact, decide directly (sd == ed here).
		panic("core: role still unknown after consolidation")
	}
}

// roleScan implements the shared body of CheckCore/ConsolidateCore.
func (r *Range) roleScan(u int32, worker int, onlyGreater bool) {
	g := r.g
	mu := r.th.Mu
	du := g.Degree(u)
	sd, ed := int32(0), du
	uOff := g.Off[u] - r.base
	nbrs := g.Neighbors(u)
	// Pass 1 (Algorithm 3 lines 22-30): fold in known labels.
	for i := range nbrs {
		switch r.label(uOff + int64(i)) {
		case simdef.Sim:
			sd++
			if sd >= mu {
				r.roles[u] = result.RoleCore
				return
			}
		case simdef.NSim:
			ed--
			if ed < mu {
				r.roles[u] = result.RoleNonCore
				return
			}
		}
	}
	// Pass 2 (lines 31-33): compute unknown similarities.
	for i, v := range nbrs {
		if onlyGreater && v <= u {
			continue
		}
		e := uOff + int64(i)
		w := atomic.LoadInt32(&r.arcs[e])
		if simdef.EdgeSim(w&labelMask) != simdef.Unknown {
			continue
		}
		val := r.compSim(u, v, worker)
		if onlyGreater {
			//lint:atomicok P2: for v > u, u's task is the only reader and writer of arc (u, v)
			r.arcs[e] = w | int32(val)
		} else {
			// P3: v's task may write the same word as its mirror.
			atomic.StoreInt32(&r.arcs[e], w|int32(val))
		}
		r.mirror(v, w>>labelBits, i, val)
		if val == simdef.Sim {
			sd++
			if sd >= mu {
				r.roles[u] = result.RoleCore
				return
			}
		} else {
			ed--
			if ed < mu {
				r.roles[u] = result.RoleNonCore
				return
			}
		}
	}
	if !onlyGreater {
		// Every edge labeled, no bound fired: sd is the exact similar
		// count and it is < mu (otherwise we'd have returned).
		r.roles[u] = result.RoleNonCore
	}
	// With the u < v constraint the role may legitimately stay Unknown.
}

// clusterCoreWithoutCompSim is Algorithm 4 lines 9-11: union adjacent cores
// over already-known Sim edges, building small clusters that power the
// union-find pruning of the next phase.
func (r *Range) clusterCoreWithoutCompSim(u int32, worker int) {
	g := r.g
	uOff := g.Off[u] - r.base
	for i, v := range g.Neighbors(u) {
		if u >= v || r.roles[v] != result.RoleCore {
			continue
		}
		if r.label(uOff+int64(i)) != simdef.Sim {
			continue
		}
		if r.uf.Same(u, v) {
			continue
		}
		r.uf.Union(u, v)
	}
}

// clusterCoreWithCompSim is Algorithm 4 lines 12-16: compute the remaining
// unknown core-core similarities (skipping pairs already clustered, the
// union-find pruning) and union on Sim.
func (r *Range) clusterCoreWithCompSim(u int32, worker int) {
	g := r.g
	uOff := g.Off[u] - r.base
	for i, v := range g.Neighbors(u) {
		if u >= v || r.roles[v] != result.RoleCore {
			continue
		}
		e := uOff + int64(i)
		w := atomic.LoadInt32(&r.arcs[e])
		if simdef.EdgeSim(w&labelMask) != simdef.Unknown {
			continue
		}
		if r.uf.Same(u, v) {
			continue
		}
		val := r.compSim(u, v, worker)
		// No mirror: P4 and P5 read a core–core arc only from its lower end.
		//lint:atomicok P5: for v > u, u's task is the only reader and writer of arc (u, v)
		r.arcs[e] = w | int32(val)
		if val == simdef.Sim {
			r.uf.Union(u, v)
		}
	}
}

// nonCoreVertex processes one core's adjacency in P7.
func (r *Range) nonCoreVertex(u int32, w int) {
	g := r.g
	id := r.ids[u-r.lo]
	uOff := g.Off[u] - r.base
	for i, v := range g.Neighbors(u) {
		if r.roles[v] != result.RoleNonCore {
			continue
		}
		e := uOff + int64(i)
		sim := r.label(e)
		if sim == simdef.Unknown {
			sim = r.compSim(u, v, w)
			// No mirror: no phase visits the non-core v after P3.
			//lint:atomicok P7: only core u's task reads or writes arc (u, v) to a non-core v
			r.arcs[e] |= int32(sim)
		}
		if sim == simdef.Sim {
			// Grow-only per-worker batch: capacity persists across runs in the
			// workspace scratch.
			r.ncLocal[w] = append(r.ncLocal[w], result.Membership{V: v, ClusterID: id})
			if len(r.ncLocal[w]) >= nonCoreBatch {
				r.flushNonCore(w)
			}
		}
	}
}

// flushNonCore drains worker w's batch into the shared list.
func (r *Range) flushNonCore(w int) {
	b := r.ncLocal[w]
	if len(b) == 0 {
		return
	}
	r.ncMu.Lock()
	// Grow-only shared list: capacity persists across runs in the workspace
	// scratch.
	r.collected = append(r.collected, b...)
	r.ncMu.Unlock()
	r.ncLocal[w] = b[:0]
}
