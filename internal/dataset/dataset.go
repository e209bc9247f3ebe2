// Package dataset names the synthetic graphs that stand in for the paper's
// evaluation inputs, and caches them per process.
//
// The paper evaluates on four real-world graphs (Table 1: orkut, webbase,
// twitter, friendster; livejournal in Figure 1) and four 10⁹-edge ROLL
// scale-free graphs (Table 2). Those are not available offline, so each
// name here is a deterministic edge union of internal/gen generators over
// one vertex range: planted communities over 7/8 of the vertices, so that
// the paper's ε grid finds clusters, and a preferential-attachment (Roll)
// or R-MAT layer over all of them for the degree skew and the hubs. Each
// row keeps the relative character of its paper graph (DESIGN.md §2), and
// internal/expharness's admission test holds every row to clustering at
// every ε of the grid at µ = 5.
//
// Vertex counts scale linearly with the scale argument (1.0 = the default
// size, 0.1 = quick test size, floor 16); community sizes do not.
package dataset

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"ppscan/graph"
	"ppscan/internal/gen"
)

// row is one dataset: its vertex count at scale 1.0 and the composition
// built over the scaled count.
type row struct {
	name  string
	n     int32
	build func(n int32) *graph.Graph
}

var rows = []row{
	// livejournal (Figure 1): a social network with strong communities and
	// moderate skew.
	{"livejournal-sim", 16000, func(n int32) *graph.Graph {
		return union(n, communities(n, 20, 0.9, 1001), gen.Roll(n, 6, 1001))
	}},
	// orkut (paper d̄ 76.3): the densest and the most community-rich.
	{"orkut-sim", 20000, func(n int32) *graph.Graph {
		return union(n, communities(n, 50, 0.95, 1002), gen.Roll(n, 6, 1002))
	}},
	// webbase (paper d̄ 8.9): the sparsest, small sites under the hubs of a
	// tree-like attachment layer.
	{"webbase-sim", 60000, func(n int32) *graph.Graph {
		return union(n, communities(n, 10, 0.8, 1003), gen.Roll(n, 2, 1003))
	}},
	// twitter (paper max d 1.4M): the most skewed, R-MAT's follower hubs
	// over small circles. R-MAT spans a power of two, so n rounds down.
	{"twitter-sim", 32768, func(n int32) *graph.Graph {
		scale := bits.Len32(uint32(n)) - 1
		n = 1 << scale
		return union(n, communities(n, 16, 0.8, 1004), gen.RMAT(scale, 12*int64(n), .57, .19, .19, 1004))
	}},
	// friendster (paper 1.8B edges, d̄ 28.9): the most edges, a large sparse
	// social network.
	{"friendster-sim", 40000, func(n int32) *graph.Graph {
		return union(n, communities(n, 25, 0.95, 1005), gen.Roll(n, 8, 1005))
	}},
	// ROLL-dX (Table 2): scale-free at d̄ ≈ X and a constant |E| ≈ 390 000:
	// communities of X vertices plus a Roll layer of average degree X/5.
	{"ROLL-d40", 20000, roll(40, 2001)},
	{"ROLL-d80", 10000, roll(80, 2002)},
	{"ROLL-d120", 6667, roll(120, 2003)},
	{"ROLL-d160", 5000, roll(160, 2004)},
}

func roll(d int32, seed int64) func(n int32) *graph.Graph {
	return func(n int32) *graph.Graph {
		return union(n, communities(n, d, 0.9, seed), gen.Roll(n, d/5, seed))
	}
}

// communities plants disjoint communities of size vertices, each pair
// inside one joined with probability p, over the first 7/8 of [0, n).
func communities(n, size int32, p float64, seed int64) *graph.Graph {
	return gen.PlantedPartition(n/8*7/size, size, p, 0, seed)
}

// union is the edge union of gs over the vertex range [0, n).
func union(n int32, gs ...*graph.Graph) *graph.Graph {
	var edges []graph.Edge
	for _, g := range gs {
		edges = append(edges, g.Edges()...)
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		panic(fmt.Sprintf("dataset: composition out of range: %v", err))
	}
	return g
}

// RealWorld names the surrogates of the paper's Table 1 graphs, in its
// order.
func RealWorld() []string {
	return []string{"orkut-sim", "webbase-sim", "twitter-sim", "friendster-sim"}
}

// Breakdown names the Figure 1 datasets.
func Breakdown() []string { return []string{"livejournal-sim", "orkut-sim", "twitter-sim"} }

// RollFamily names the Table 2 / Figure 8 ROLL graphs.
func RollFamily() []string { return []string{"ROLL-d40", "ROLL-d80", "ROLL-d120", "ROLL-d160"} }

// Names returns all dataset names sorted.
func Names() []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.name
	}
	slices.Sort(out)
	return out
}

type cacheKey struct {
	name  string
	scale float64
}

var (
	cacheMu sync.Mutex
	cache   = map[cacheKey]*graph.Graph{}
)

// Load builds (or returns the cached) graph for the named dataset at the
// given scale. Graphs are immutable, so sharing is safe.
func Load(name string, scale float64) (*graph.Graph, error) {
	i := slices.IndexFunc(rows, func(r row) bool { return r.name == name })
	if i < 0 {
		return nil, fmt.Errorf("dataset: unknown dataset %q (known: %v)", name, Names())
	}
	key := cacheKey{name: name, scale: scale}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if g, ok := cache[key]; ok {
		return g, nil
	}
	g := rows[i].build(max(int32(float64(rows[i].n)*scale), 16))
	cache[key] = g
	return g, nil
}

// MustLoad is Load that panics on error (experiment-harness convenience).
func MustLoad(name string, scale float64) *graph.Graph {
	g, err := Load(name, scale)
	if err != nil {
		panic(err)
	}
	return g
}
