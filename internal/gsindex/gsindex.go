// Package gsindex implements a GS*-Index-style structural clustering index
// (Wen, Qin, Zhang, Chang, Lin: "Efficient Structural Graph Clustering: An
// Index-Based Approach", VLDB 2017) — the index discussed in the ppSCAN
// paper's related work (§3.3) as the alternative approach to interactive
// parameter exploration.
//
// The index precomputes every edge's exact intersection count once and
// keeps, per vertex, one contiguous run of its neighbors themselves in
// decreasing structural similarity beside their counts ("neighbor order").
// The counts are exhaustive, which the ppSCAN paper calls prohibitive on
// massive graphs; Build pays them as Tseng et al.'s parallel GS*-Index
// does, by triangle counting: one degree-oriented pass credits each
// triangle to its three edges (see BuildContext). Then any (ε, µ) query
// costs time in the similar edges it touches, with no set intersections:
//
//   - u is a core iff d[u] ≥ µ and the µ-th most similar neighbor of u has
//     σ(u, v) ≥ ε (the "core order" property);
//   - clusters are formed by walking each core's similar prefix, whose end
//     a search from µ finds, and unioning similar cores; a non-core's
//     memberships are the clusters of the cores in its own similar prefix.
//
// All comparisons are exact: similarity values are kept as the integer
// pair (cn, p) with σ = cn/√p, and ordering/thresholding uses 128-bit
// cross-multiplication (simdef.CompareSimValues / Epsilon.PredP), so index
// queries return bit-identical results to every direct algorithm in this
// module.
//
// SweepWorkspace (queryws.go) is the one extraction routine: it answers a
// non-increasing ε list at one µ, carrying its union-find from step to
// step, draws every buffer from a pooled engine.Workspace and honors
// context cancellation — the primitive behind every index-derived answer
// the server gives (an index attached at start or built by a sweep),
// where one Build amortizes across many (ε, µ) extractions. It is Tseng et
// al.'s parallel index query on ppSCAN's crew and wait-free union-find.
// QueryWorkspace is its one-step call, and Query that call on a throwaway
// workspace.
package gsindex

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"ppscan/graph"
	"ppscan/internal/intersect"
	"ppscan/internal/result"
	"ppscan/internal/sched"
	"ppscan/internal/simdef"
)

// Index is an immutable structural clustering index over one graph.
// Memory: two int32 arrays of length 2|E|, 1.25× that once an apply compacts.
type Index struct {
	g *graph.Graph
	// at[u] is where u's run starts in nbr and cn. Build, Load and a
	// compacting ApplyBatch alias g.Off; an appending one repoints a copy.
	at []int64
	// nbr holds, per vertex, its neighbors sorted by non-increasing
	// similarity (ties on smaller id): nbr[at[u]+k] is u's k-th most
	// similar neighbor. Order-major, so every walk reads one run.
	nbr []int32
	// cn[at[u]+k] = |Γ(u) ∩ Γ(v)| for v = nbr[at[u]+k], including the +2
	// for the endpoints.
	cn []int32
	// nbr and cn are extents of arena, their capacity, which applies share.
	arena *arena
	// buildTime records how long Build took (the index-construction cost
	// that ppSCAN's online approach avoids).
	buildTime time.Duration
	// workers is the crew size QueryWorkspace extracts with: the build's
	// resolved worker count, kept by ApplyBatch, GOMAXPROCS after Load.
	workers int
}

// BuildOptions configures index construction.
type BuildOptions struct {
	// Workers is the number of parallel workers; < 1 means GOMAXPROCS.
	Workers int
	// DegreeThreshold is the scheduler task granularity; < 1 means the
	// default (32768).
	DegreeThreshold int64
}

// workers is the worker count Workers resolves to.
func (o BuildOptions) workers() int {
	if o.Workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// Build constructs the index: every edge's intersection count from one
// degree-oriented triangle pass, then every neighbor order. The passes
// run on one crew under the same degree-based scheduler as ppSCAN.
func Build(g *graph.Graph, opt BuildOptions) *Index {
	ix, _ := BuildContext(context.Background(), g, opt) // Background never cancels
	return ix
}

// BuildContext is Build with cooperative cancellation: every pass checks
// ctx between scheduler task batches, and the build checks it between
// passes. A cancelled build returns (nil, error) with ctx.Err() wrapped
// and the pass named; there is no partial index (a half-filled cn array
// would violate the neighbor-order invariant).
//
// The counts come from triangles rather than one intersection per edge:
// cn(u, v) − 2 is the number of triangles through edge (u, v). Ranking
// vertices by (degree, id) and keeping, per vertex, only its out-list of
// higher-ranked neighbours, every triangle is found exactly once — from
// its lowest-ranked vertex u, by marking out(u) and scanning out(v) for
// each v ∈ out(u) — and credited to its three edges. An out-list is never
// longer than √(2|E|) or than the vertex's degree, so a hub's list is
// short and the hub is scanned only from below: the exhaustive
// Σ d(u)·d(v) merge cost becomes O(|E|^1.5) in the worst case.
//
//lint:snapfreeze pre-publication: ix exists only in this builder until the return hands it to the caller
func BuildContext(ctx context.Context, g *graph.Graph, opt BuildOptions) (*Index, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	n := g.NumVertices()
	ix := newIndex(g, opt.workers(), 0)
	crew := sched.NewCrew(ix.workers)
	defer crew.Close()
	var stop func() bool
	if ctx.Done() != nil {
		stop = func() bool { return ctx.Err() != nil }
	}
	pass := func(name string, process func(u int32, worker int)) error {
		schedOpt := sched.Options{DegreeThreshold: opt.DegreeThreshold, Phase: "gsindex " + name}
		err := crew.ForEachVertex(schedOpt, n, nil, g.Degree, process, stop)
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			return fmt.Errorf("gsindex: build aborted during %s pass after %v: %w", name, time.Since(start), err)
		}
		return nil
	}

	t := &triangles{g: g, off: make([]int64, n+1), mark: make([][]int32, ix.workers), own: make([][]int32, ix.workers)}
	if err := pass("out-degree", t.countOut); err != nil {
		return nil, err
	}
	for u := int32(0); u < n; u++ {
		t.off[u+1] += t.off[u]
	}
	t.dst = make([]int32, t.off[n])
	t.credit = make([]int32, t.off[n])
	if err := pass("out-list", t.layOut); err != nil {
		return nil, err
	}
	if err := pass("triangle", t.enumerate); err != nil {
		return nil, err
	}
	// The neighbor orders. Each task fills a position-major scratch run of
	// u's counts from the credits — final once the triangle pass's barrier
	// has passed — and sorts it with sortRun (apply.go), which writes it
	// out order-major. ApplyBatch repairs runs with the same routine:
	// sharing it is what makes incremental maintenance bit-identical.
	workers := make([]applyWorker, ix.workers)
	err := pass("neighbor-order", func(u int32, worker int) {
		w := &workers[worker]
		t.fill(u, w.load(g, u))
		ix.sortRun(u, w, true)
	})
	if err != nil {
		return nil, err
	}
	ix.buildTime = time.Since(start)
	return ix, nil
}

// triangles is the build's transient count state: 8 B per undirected edge
// (dst and credit) and n+1 out-list offsets, plus 4 B × n of marks per
// worker. Each undirected edge lies in exactly one out-list — its
// lower-ranked endpoint's — and is identified by its slot there.
type triangles struct {
	g *graph.Graph
	// off[u] .. off[u+1] delimits u's out-list in dst: the neighbors that
	// outrank u, in u's CSR (id) order.
	off []int64
	dst []int32
	// credit[k] counts the triangles through slot k's edge. The triangle
	// pass adds to it atomically; the neighbor-order pass reads it plainly
	// after that pass's barrier.
	credit []int32
	// Per worker: mark has length n and, while the triangle pass visits u,
	// holds 1 + w's position in out(u) at mark[w] and 0 elsewhere; own
	// sums u's credits to its own slots before they are published.
	mark, own [][]int32
}

// outranks returns the test "v ranks above u" for a fixed u: larger
// degree, ties on larger id.
func outranks(g *graph.Graph, u int32) func(v int32) bool {
	du := g.Degree(u)
	return func(v int32) bool {
		dv := g.Degree(v)
		return dv > du || dv == du && v > u
	}
}

// countOut stores |out(u)| at off[u+1], for the prefix sum.
func (t *triangles) countOut(u int32, _ int) {
	above := outranks(t.g, u)
	var k int64
	for _, v := range t.g.Neighbors(u) {
		if above(v) {
			k++
		}
	}
	t.off[u+1] = k
}

// layOut writes out(u) into its slots.
func (t *triangles) layOut(u int32, _ int) {
	above := outranks(t.g, u)
	k := t.off[u]
	for _, v := range t.g.Neighbors(u) {
		if above(v) {
			t.dst[k] = v
			k++
		}
	}
}

// enumerate finds every triangle whose lowest-ranked vertex is u: for
// each v ∈ out(u), every w ∈ out(v) marked as a member of out(u) closes
// the triangle (u, v, w) with rank u < v < w. Edges (u, v) and (u, w) are
// u's own slots, summed in own and published once; (v, w) is v's slot,
// which other workers credit too.
func (t *triangles) enumerate(u int32, worker int) {
	lo, hi := t.off[u], t.off[u+1]
	if hi-lo < 2 {
		return
	}
	if t.mark[worker] == nil {
		t.mark[worker] = make([]int32, t.g.NumVertices())
	}
	mark := t.mark[worker]
	out := t.dst[lo:hi]
	own := grow(t.own[worker], len(out))
	t.own[worker] = own
	for i, v := range out {
		mark[v] = int32(i) + 1
	}
	for i, v := range out {
		vlo := t.off[v]
		for j, w := range t.dst[vlo:t.off[v+1]] {
			if m := mark[w]; m != 0 {
				own[i]++
				own[m-1]++
				atomic.AddInt32(&t.credit[vlo+int64(j)], 1)
			}
		}
	}
	for i, v := range out {
		mark[v] = 0
		if own[i] != 0 {
			atomic.AddInt32(&t.credit[lo+int64(i)], own[i])
			own[i] = 0
		}
	}
}

// fill writes u's counts into run, in u's CSR (id) order: an edge to a
// higher-ranked v is u's next out-list slot, and an edge to a lower-ranked
// v is v's slot for u, found by binary search in out(v).
func (t *triangles) fill(u int32, run []int32) {
	k, hi := t.off[u], t.off[u+1]
	for i, v := range t.g.Neighbors(u) {
		if k < hi && t.dst[k] == v {
			//lint:atomicok the triangle pass's barrier has passed: credits are final and read-only
			run[i] = t.credit[k] + 2
			k++
			continue
		}
		vlo := t.off[v]
		j, _ := slices.BinarySearch(t.dst[vlo:t.off[v+1]], u)
		//lint:atomicok the triangle pass's barrier has passed: credits are final and read-only
		run[i] = t.credit[vlo+int64(j)] + 2
	}
}

// newIndex returns an index over g laid out at g.Off, with spare slots past it.
func newIndex(g *graph.Graph, workers int, spare int64) *Index {
	m := g.NumDirectedEdges()
	ix := &Index{g: g, at: g.Off, nbr: make([]int32, m, m+spare), cn: make([]int32, m, m+spare), arena: new(arena), workers: workers}
	ix.arena.used.Store(m)
	return ix
}

// run returns u's neighbor order and its counts.
func (ix *Index) run(u int32) (nbr, cn []int32) {
	lo, hi := ix.at[u], ix.at[u]+int64(ix.g.Degree(u))
	return ix.nbr[lo:hi], ix.cn[lo:hi]
}

// Graph returns the indexed graph.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// BuildTime returns how long index construction took.
func (ix *Index) BuildTime() time.Duration { return ix.buildTime }

// MemoryBytes returns the size of the arena the index holds, graph excluded.
func (ix *Index) MemoryBytes() int64 {
	return int64(cap(ix.cn))*4 + int64(cap(ix.nbr))*4
}

// simGE reports whether σ ≥ ε for the neighbor in slot e of a run whose
// owner has du1 = d(u)+1, from the stored count.
func (ix *Index) simGE(eps simdef.Epsilon, du1 uint64, e int64) bool {
	return eps.PredP(ix.cn[e], du1*(uint64(ix.g.Degree(ix.nbr[e]))+1))
}

// similarEnd returns the length of u's similar prefix under eps, given
// that the first k entries of u's neighbour order are similar. The order
// is non-increasing in σ, so "σ ≥ ε" holds on a prefix: it probes entries
// k, k+2, k+6, … until one is not similar or past the run, then
// binary-searches the last step. Every probe is one exact simGE, and
// there are O(log L) of them for an extension of length L.
func (ix *Index) similarEnd(eps simdef.Epsilon, u, k int32) int32 {
	off, du := ix.at[u], ix.g.Degree(u)
	du1 := uint64(du) + 1
	lo, hi := k, du // entries < lo are similar; entry hi is not, or hi is the end
	for probe, step := k, int32(2); probe < hi; probe, step = probe+step, step*2 {
		if !ix.simGE(eps, du1, off+int64(probe)) {
			hi = probe
			break
		}
		lo = probe + 1
	}
	// The end lies in [lo, lo+n]. Each probe halves n whatever it answers,
	// so the update is a conditional add rather than a mispredicted branch.
	for n := hi - lo; n > 0; n /= 2 {
		if ix.simGE(eps, du1, off+int64(lo+n/2)) {
			lo += n - n/2
		}
	}
	return lo
}

// IsCore answers the core predicate for one vertex under (eps, mu) in O(1)
// via the neighbor order.
func (ix *Index) IsCore(eps simdef.Epsilon, mu int32, u int32) bool {
	du := ix.g.Degree(u)
	return du >= mu && ix.simGE(eps, uint64(du)+1, ix.at[u]+int64(mu-1))
}

// Query computes the exact clustering for (eps, mu) from the index,
// without any set intersections. The result is identical to running any of
// the direct algorithms. It is QueryWorkspace on a throwaway workspace:
// the result owns its buffers.
func (ix *Index) Query(eps string, mu int32) (*result.Result, error) {
	return ix.QueryWorkspace(context.Background(), eps, mu, nil)
}

// Validate cross-checks the index invariants: every run lists neighbors
// of its vertex, every stored count equals arcCount's per-arc merge — the
// oracle the triangle pass is tested against — and every run is strictly
// increasing under the run comparator, so it lists each neighbor once.
// Intended for tests; O(Σ d²).
func (ix *Index) Validate() error {
	g := ix.g
	var w applyWorker
	for u := int32(0); u < g.NumVertices(); u++ {
		nbr, cn := ix.run(u)
		for k, v := range nbr {
			if !g.HasEdge(u, v) {
				return fmt.Errorf("gsindex: run of %d lists %d, not a neighbor", u, v)
			}
			if want, got := arcCount(g, u, v), cn[k]; got != want {
				return fmt.Errorf("gsindex: cn[e(%d,%d)] = %d, want %d", u, v, got, want)
			}
		}
		if k := w.misorderedRun(ix, u); k > 0 {
			return fmt.Errorf("gsindex: neighbor order of %d not strictly decreasing in similarity at %d", u, k)
		}
	}
	return nil
}

// arcCount is the exact |Γ(u) ∩ Γ(v)| of arc (u, v) by one merge, the
// reference Validate checks the triangle pass's counts against.
func arcCount(g *graph.Graph, u, v int32) int32 {
	return intersect.Count(g.Neighbors(u), g.Neighbors(v)) + 2
}
