// Package graph provides the compressed-sparse-row (CSR) undirected graph
// representation used by all structural clustering algorithms in this module.
//
// The representation follows Definition 2.11 of the ppSCAN paper: a graph is
// a pair of arrays (off, dst) where dst[off[u]:off[u+1]] holds the sorted
// neighbor list of vertex u. Every undirected edge {u, v} is stored twice,
// once as (u, v) and once as (v, u). The i-th arc of u, at off[u]+i, is
// the directed edge (u, v) for v its i-th neighbor; that index is called
// the edge offset e(u, v), and similarity values are stored per edge
// offset. EdgeOffset recovers the reverse offset e(v, u) by binary search
// in v's sorted neighbor list; ppSCAN (internal/core) does not search: it
// builds the reverse positions once per graph, keyed by ID.
//
// A graph built by FromEdges or a reader is compact: its runs lie in dst
// exactly at off. A Store commit may instead append the runs it rewrites
// to the storage its predecessor's dst lives in, and record where every
// run starts (see Graph.at); off keeps its meaning, so edge offsets and
// everything indexed by them do not depend on the layout.
//
// Graphs are immutable once built. Build one with FromEdges or one of the
// readers in io.go.
package graph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Graph is an immutable undirected graph in CSR form.
//
// Invariants (checked by Validate):
//   - len(Off) == NumVertices()+1, Off[0] == 0, Off is non-decreasing, and
//     Off[len(Off)-1] is twice the number of undirected edges.
//   - a compact graph (at nil) has len(Dst) == Off[len(Off)-1]; otherwise
//     len(at) == NumVertices() and each run Dst[at[u]:at[u]+Degree(u)]
//     lies within Dst.
//   - each neighbor list Neighbors(u) is strictly increasing (no duplicate
//     edges), contains no self loop, and every entry is a valid vertex id.
//   - the graph is symmetric: v appears in u's list iff u appears in v's.
type Graph struct {
	// Off is the prefix sum of the degrees: u has Off[u+1]-Off[u]
	// neighbors, and Off[u]+i is the edge offset of its i-th.
	Off []int64
	// Dst holds the per-vertex-sorted neighbor runs: u's is
	// Dst[Off[u]:Off[u+1]] in a compact graph, Dst[at[u]:] otherwise.
	Dst []int32
	// at[u] is where u's run starts in Dst when a commit appended runs to
	// its predecessor's storage; nil for a compact graph, so a literal
	// Graph{Off, Dst} is a compact graph.
	at []int64
	// arena is the used mark of the storage behind Dst, its capacity, which
	// a chain of commits shares; nil for a graph no commit produced.
	arena *arena
	// epoch is the snapshot version when the graph was produced by a
	// Store.Commit; graphs built any other way are epoch 0. The epoch does
	// not participate in structural equality — it identifies which version
	// of a mutating Store this snapshot captured.
	epoch uint64
	// id names this graph value for the life of the process; see ID.
	id uint64
}

// lastID is the id most recently handed to a constructed graph.
var lastID atomic.Uint64

// newGraph is the one place a constructor publishes arrays as a graph: it
// stamps the graph with a fresh id.
func newGraph(off []int64, dst []int32) *Graph {
	return &Graph{Off: off, Dst: dst, id: lastID.Add(1)}
}

// ID identifies this graph value for caches of state derived from its
// arrays, such as ppSCAN's arc words: two graphs with one nonzero ID are
// one graph. The package's constructors (FromEdges and its callers, the
// readers and Store.Commit) each draw a new ID. A Graph literal built
// elsewhere has ID 0, which such a cache must treat as never seen before.
func (g *Graph) ID() uint64 { return g.id }

// Epoch returns the snapshot version this graph captured: 0 for graphs
// built directly (FromEdges, readers), the committing Store's version for
// snapshots produced by Store.Commit.
func (g *Graph) Epoch() uint64 { return g.epoch }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int32 {
	return int32(len(g.Off) - 1)
}

// NumEdges returns the number of undirected edges |E|.
func (g *Graph) NumEdges() int64 {
	return g.NumDirectedEdges() / 2
}

// NumDirectedEdges returns the number of arcs, 2|E|: Off[|V|].
func (g *Graph) NumDirectedEdges() int64 {
	return g.Off[len(g.Off)-1]
}

// Degree returns d[u], the number of neighbors of u.
func (g *Graph) Degree(u int32) int32 {
	return int32(g.Off[u+1] - g.Off[u])
}

// Neighbors returns the sorted neighbor slice of u. The slice aliases the
// graph's internal storage and must not be modified.
func (g *Graph) Neighbors(u int32) []int32 {
	if g.at == nil {
		return g.Dst[g.Off[u]:g.Off[u+1]]
	}
	s := g.at[u]
	return g.Dst[s : s+g.Off[u+1]-g.Off[u]]
}

// start returns where u's run starts in Dst.
func (g *Graph) start(u int32) int64 {
	if g.at != nil {
		return g.at[u]
	}
	return g.Off[u]
}

// HasEdge reports whether the undirected edge {u, v} is present.
func (g *Graph) HasEdge(u, v int32) bool {
	return g.EdgeOffset(u, v) >= 0
}

// EdgeOffset returns the directed edge offset e(u, v), i.e. Off[u]+i for v
// the i-th neighbor of u, or -1 when the edge does not exist. It runs a
// binary search over u's sorted neighbor list, exactly as the
// reverse-edge-offset computation in pSCAN's similarity-value reuse.
// ppSCAN's reuse no longer searches: its arc words carry the reverse
// position (internal/core).
func (g *Graph) EdgeOffset(u, v int32) int64 {
	lo, hi := g.Off[u], g.Off[u+1]
	base := g.start(u) - lo // Dst[base+e] is the neighbor of arc e
	for lo < hi {
		mid := lo + (hi-lo)/2
		switch w := g.Dst[base+mid]; {
		case w < v:
			lo = mid + 1
		case w > v:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}

// MaxDegree returns the maximum vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int32 {
	var maxd int32
	for u := int32(0); u < g.NumVertices(); u++ {
		if d := g.Degree(u); d > maxd {
			maxd = d
		}
	}
	return maxd
}

// AvgDegree returns the average vertex degree 2|E|/|V|.
func (g *Graph) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(g.NumDirectedEdges()) / float64(n)
}

// Validate checks every structural invariant of the CSR representation and
// returns a descriptive error for the first violation found.
func (g *Graph) Validate() error {
	if len(g.Off) == 0 {
		return fmt.Errorf("graph: empty offset array")
	}
	if g.Off[0] != 0 {
		return fmt.Errorf("graph: Off[0] = %d, want 0", g.Off[0])
	}
	n := g.NumVertices()
	if g.at != nil && len(g.at) != int(n) {
		return fmt.Errorf("graph: %d run starts for %d vertices", len(g.at), n)
	}
	for u := int32(0); u < n; u++ {
		if g.Off[u+1] < g.Off[u] {
			return fmt.Errorf("graph: Off not monotone at %d: %d > %d", u, g.Off[u], g.Off[u+1])
		}
		if g.at != nil && (g.at[u] < 0 || g.at[u]+int64(g.Degree(u)) > int64(len(g.Dst))) {
			return fmt.Errorf("graph: run of %d at %d overruns len(Dst) = %d", u, g.at[u], len(g.Dst))
		}
	}
	if g.at == nil && g.Off[n] != int64(len(g.Dst)) {
		return fmt.Errorf("graph: Off[%d] = %d, want len(Dst) = %d", n, g.Off[n], len(g.Dst))
	}
	// Walking u upward, the vertices that list v arrive in increasing
	// order, so in a symmetric graph the k-th of them is v's k-th neighbor:
	// seen[v] counts the ones matched so far.
	seen := make([]int32, n)
	for u := int32(0); u < n; u++ {
		nbrs := g.Neighbors(u)
		for i, v := range nbrs {
			if v < 0 || v >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", u, v)
			}
			if v == u {
				return fmt.Errorf("graph: self loop at vertex %d", u)
			}
			if i > 0 && nbrs[i-1] >= v {
				return fmt.Errorf("graph: neighbors of %d not strictly increasing at index %d (%d >= %d)",
					u, i, nbrs[i-1], v)
			}
			if back := g.Neighbors(v); int(seen[v]) >= len(back) || back[seen[v]] != u {
				return fmt.Errorf("graph: asymmetric adjacency: %d lists %d, whose run does not match the vertices that list it", u, v)
			}
			seen[v]++
		}
	}
	return nil
}

// Edge is an undirected edge for use with FromEdges.
type Edge struct {
	U, V int32
}

// FromEdges builds a Graph with n vertices from an arbitrary undirected edge
// list. Self loops are dropped, duplicate edges (in either orientation) are
// merged, and neighbor lists are sorted. It returns an error if any endpoint
// is outside [0, n).
func FromEdges(n int32, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	// Normalize: drop self loops, orient u < v, validate range.
	norm := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			continue
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		norm = append(norm, e)
	}
	sort.Slice(norm, func(i, j int) bool {
		if norm[i].U != norm[j].U {
			return norm[i].U < norm[j].U
		}
		return norm[i].V < norm[j].V
	})
	// Deduplicate.
	uniq := norm[:0]
	for i, e := range norm {
		if i == 0 || e != norm[i-1] {
			uniq = append(uniq, e)
		}
	}
	return fromOrientedEdges(n, uniq), nil
}

// fromOrientedEdges assumes edges are deduplicated and oriented u < v.
func fromOrientedEdges(n int32, edges []Edge) *Graph {
	deg := make([]int64, n+1)
	for _, e := range edges {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	off := make([]int64, n+1)
	for i := int32(1); i <= n; i++ {
		off[i] = off[i-1] + deg[i]
	}
	dst := make([]int32, off[n])
	cursor := make([]int64, n)
	copy(cursor, off[:n])
	for _, e := range edges {
		dst[cursor[e.U]] = e.V
		cursor[e.U]++
		dst[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	g := newGraph(off, dst)
	g.sortAdjacency()
	return g
}

// sortAdjacency orders each neighbor run ascending; construction only.
//
//lint:snapfreeze pre-publication: called from FromEdges before the graph is returned to any caller
func (g *Graph) sortAdjacency() {
	n := g.NumVertices()
	for u := int32(0); u < n; u++ {
		nbrs := g.Dst[g.Off[u]:g.Off[u+1]]
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
	}
}

// Edges returns the undirected edge list with u < v, sorted lexicographically.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	for u := int32(0); u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				edges = append(edges, Edge{u, v})
			}
		}
	}
	return edges
}

// ConnectedComponents labels each vertex with a component id in [0, #comps)
// and returns the labels plus the number of components.
func (g *Graph) ConnectedComponents() ([]int32, int32) {
	n := g.NumVertices()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var next int32
	queue := make([]int32, 0, 64)
	for s := int32(0); s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.Neighbors(u) {
				if comp[v] < 0 {
					comp[v] = next
					queue = append(queue, v)
				}
			}
		}
		next++
	}
	return comp, next
}

// Stats summarizes a graph in the shape of Tables 1 and 2 of the paper.
type Stats struct {
	Name        string
	NumVertices int32
	NumEdges    int64 // directed edge count 2|E|, as reported in the paper's tables
	AvgDegree   float64
	MaxDegree   int32
}

// ComputeStats gathers Table 1/2-style statistics for g.
func ComputeStats(name string, g *Graph) Stats {
	return Stats{
		Name:        name,
		NumVertices: g.NumVertices(),
		NumEdges:    g.NumDirectedEdges(),
		AvgDegree:   g.AvgDegree(),
		MaxDegree:   g.MaxDegree(),
	}
}

// String formats the statistics as a table row.
func (s Stats) String() string {
	return fmt.Sprintf("%-16s |V|=%-10d |E|=%-12d d=%-8.1f max d=%d",
		s.Name, s.NumVertices, s.NumEdges, s.AvgDegree, s.MaxDegree)
}

// DegreeHistogram returns a map from degree to the number of vertices having
// that degree.
func (g *Graph) DegreeHistogram() map[int32]int64 {
	h := make(map[int32]int64)
	for u := int32(0); u < g.NumVertices(); u++ {
		h[g.Degree(u)]++
	}
	return h
}

// SumDegreeSquares returns sum over v of d[v]^2, which bounds SCAN's total
// similarity workload (Theorem 3.4 states the workload is 2*sum d^2).
func (g *Graph) SumDegreeSquares() int64 {
	var s int64
	for u := int32(0); u < g.NumVertices(); u++ {
		d := int64(g.Degree(u))
		s += d * d
	}
	return s
}
