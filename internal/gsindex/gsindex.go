// Package gsindex implements a GS*-Index-style structural clustering index
// (Wen, Qin, Zhang, Chang, Lin: "Efficient Structural Graph Clustering: An
// Index-Based Approach", VLDB 2017) — the index discussed in the ppSCAN
// paper's related work (§3.3) as the alternative approach to interactive
// parameter exploration.
//
// The index precomputes every edge's exact intersection count once
// (exhaustive, which the ppSCAN paper notes is prohibitively expensive on
// massive graphs — that trade-off is reproduced faithfully: Build costs
// roughly one SCAN-XP similarity phase) and stores, per vertex, its
// neighbors ordered by decreasing structural similarity ("neighbor
// order"). Afterwards any (ε, µ) query is answered in time proportional to
// the similar edges it touches, with no set intersections at all:
//
//   - u is a core iff d[u] ≥ µ and the µ-th most similar neighbor of u has
//     σ(u, v) ≥ ε (the "core order" property);
//   - clusters are formed by scanning each core's neighbor order while
//     σ ≥ ε, unioning cores and assigning memberships to non-cores.
//
// All comparisons are exact: similarity values are kept as the integer
// pair (cn, p) with σ = cn/√p, and ordering/thresholding uses 128-bit
// cross-multiplication (simdef.CompareSimValues / Epsilon.PredP), so index
// queries return bit-identical results to every direct algorithm in this
// module.
//
// QueryWorkspace (queryws.go) is the one extraction routine: it draws
// every buffer from a pooled engine.Workspace and honors context
// cancellation — the primitive behind every index-derived answer the
// server gives (an index attached at start or built by a sweep),
// where one Build amortizes across many (ε, µ) extractions. Query is the
// same routine on a throwaway workspace.
package gsindex

import (
	"context"
	"fmt"
	"time"

	"ppscan/graph"
	"ppscan/internal/intersect"
	"ppscan/internal/result"
	"ppscan/internal/sched"
	"ppscan/internal/simdef"
)

// Index is an immutable structural clustering index over one graph.
// Memory: two int32 arrays of length 2|E| beyond the graph itself.
type Index struct {
	g *graph.Graph
	// cn[e] = |Γ(u) ∩ Γ(v)| for the directed edge e = (u, v), including
	// the +2 for the endpoints.
	cn []int32
	// order holds, per vertex, the permutation of its neighbor positions
	// sorted by non-increasing similarity: order[g.Off[u]+k] is the index
	// i (relative to g.Off[u]) of u's k-th most similar neighbor.
	order []int32
	// buildTime records how long Build took (the index-construction cost
	// that ppSCAN's online approach avoids).
	buildTime time.Duration
}

// BuildOptions configures index construction.
type BuildOptions struct {
	// Workers is the number of parallel workers; < 1 means GOMAXPROCS.
	Workers int
	// DegreeThreshold is the scheduler task granularity; < 1 means the
	// default (32768).
	DegreeThreshold int64
}

// Build constructs the index, computing every edge's intersection count
// exactly once (shared to the reverse edge) and sorting the neighbor
// orders. The computation is parallelized with the same degree-based
// scheduler as ppSCAN.
func Build(g *graph.Graph, opt BuildOptions) *Index {
	ix, _ := BuildContext(context.Background(), g, opt) // Background never cancels
	return ix
}

// BuildContext is Build with cooperative cancellation: the exhaustive
// intersection pass — the expensive part the ppSCAN paper warns about —
// checks ctx between scheduler task batches and between the two build
// phases. A cancelled build returns (nil, ctx.Err()); there is no partial
// index (a half-filled cn array would violate the neighbor-order
// invariant).
//
//lint:snapfreeze pre-publication: ix exists only in this builder until the return hands it to the caller
func BuildContext(ctx context.Context, g *graph.Graph, opt BuildOptions) (*Index, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	n := g.NumVertices()
	ix := &Index{
		g:     g,
		cn:    make([]int32, g.NumDirectedEdges()),
		order: make([]int32, g.NumDirectedEdges()),
	}
	// Phase 1: intersection counts, each undirected edge computed once
	// under the u < v constraint and mirrored to the reverse offset. Only
	// u's task writes cn[e(u,v)] and cn[e(v,u)] (v > u never computes
	// them), so the phase is write-race-free without atomics.
	err := sched.ForEachVertexCtx(ctx,
		sched.Options{Workers: opt.Workers, DegreeThreshold: opt.DegreeThreshold},
		n,
		func(int32) bool { return true },
		g.Degree,
		func(u int32, worker int) {
			uOff := g.Off[u]
			for i, v := range g.Neighbors(u) {
				if v <= u {
					continue
				}
				c := arcCount(g, u, v)
				ix.cn[uOff+int64(i)] = c
				ix.cn[g.EdgeOffset(v, u)] = c
			}
		})
	if err != nil {
		return nil, fmt.Errorf("gsindex: build aborted during intersection pass after %v: %w", time.Since(start), err)
	}
	// Phase 2: neighbor orders, sorted by exactly-compared similarity.
	// sortRun (apply.go) is the same routine ApplyBatch uses for repaired
	// runs — sharing it is what makes incremental maintenance bit-identical.
	err = sched.ForEachVertexCtx(ctx,
		sched.Options{Workers: opt.Workers, DegreeThreshold: opt.DegreeThreshold},
		n,
		func(int32) bool { return true },
		g.Degree,
		func(u int32, worker int) { ix.sortRun(u) })
	if err != nil {
		return nil, fmt.Errorf("gsindex: build aborted during neighbor-order pass after %v: %w", time.Since(start), err)
	}
	ix.buildTime = time.Since(start)
	return ix, nil
}

// Graph returns the indexed graph.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// BuildTime returns how long index construction took.
func (ix *Index) BuildTime() time.Duration { return ix.buildTime }

// MemoryBytes returns the index's payload size (excluding the graph).
func (ix *Index) MemoryBytes() int64 {
	return int64(len(ix.cn))*4 + int64(len(ix.order))*4
}

// edgeSimGE reports whether σ(u, nbr-at-position) ≥ ε, using the stored
// intersection count.
func (ix *Index) edgeSimGE(eps simdef.Epsilon, u int32, pos int64, v int32) bool {
	p := (uint64(ix.g.Degree(u)) + 1) * (uint64(ix.g.Degree(v)) + 1)
	return eps.PredP(ix.cn[pos], p)
}

// IsCore answers the core predicate for one vertex under (eps, mu) in O(1)
// via the neighbor order.
func (ix *Index) IsCore(eps simdef.Epsilon, mu int32, u int32) bool {
	if ix.g.Degree(u) < mu {
		return false
	}
	uOff := ix.g.Off[u]
	i := ix.order[uOff+int64(mu-1)]
	v := ix.g.Dst[uOff+int64(i)]
	return ix.edgeSimGE(eps, u, uOff+int64(i), v)
}

// Query computes the exact clustering for (eps, mu) from the index,
// without any set intersections. The result is identical to running any of
// the direct algorithms. It is QueryWorkspace on a throwaway workspace:
// the result owns its buffers.
func (ix *Index) Query(eps string, mu int32) (*result.Result, error) {
	return ix.QueryWorkspace(context.Background(), eps, mu, nil)
}

// Validate cross-checks the index invariants: stored counts match
// recomputed intersections and each neighbor order is non-increasing in
// similarity. Intended for tests; O(Σ d²).
func (ix *Index) Validate() error {
	g := ix.g
	for u := int32(0); u < g.NumVertices(); u++ {
		uOff := g.Off[u]
		nbrs := g.Neighbors(u)
		du1 := uint64(g.Degree(u)) + 1
		for i, v := range nbrs {
			if want, got := arcCount(g, u, v), ix.cn[uOff+int64(i)]; got != want {
				return fmt.Errorf("gsindex: cn[e(%d,%d)] = %d, want %d", u, v, got, want)
			}
		}
		deg := int64(g.Degree(u))
		for k := int64(1); k < deg; k++ {
			a, b := int64(ix.order[uOff+k-1]), int64(ix.order[uOff+k])
			pa := du1 * (uint64(g.Degree(nbrs[a])) + 1)
			pb := du1 * (uint64(g.Degree(nbrs[b])) + 1)
			if simdef.CompareSimValues(ix.cn[uOff+a], pa, ix.cn[uOff+b], pb) < 0 {
				return fmt.Errorf("gsindex: neighbor order of %d not non-increasing at %d", u, k)
			}
		}
	}
	return nil
}

// arcCount is the exact |Γ(u) ∩ Γ(v)| of arc (u, v), the one number the
// index stores per arc; the build and Validate both compute it here.
func arcCount(g *graph.Graph, u, v int32) int32 {
	return intersect.Count(g.Neighbors(u), g.Neighbors(v)) + 2
}
