package gsindex

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"ppscan/graph"
	"ppscan/internal/engine"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
)

// fuzzLoadGraph is the graph every FuzzLoad input is loaded against: a hub
// of degree 69 (a run wider than 64) beside a 5-clique (runs of 5).
func fuzzLoadGraph(t testing.TB) *graph.Graph {
	var edges []graph.Edge
	for v := int32(1); v < 70; v++ {
		edges = append(edges, graph.Edge{U: 0, V: v})
	}
	for u := int32(70); u < 75; u++ {
		for v := u + 1; v < 75; v++ {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	g, err := graph.FromEdges(75, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// FuzzLoad: Load never panics, and whatever it accepts lists, per vertex,
// a permutation of its neighbors, answers a query and survives a Save /
// Load round trip. The committed corpus (testdata/fuzz/FuzzLoad) holds a valid
// Save of fuzzLoadGraph and corruptions of it: truncations in the header,
// counts and orders, a bad magic, a shape mismatch, counts below 2 and
// above d(u)+2, a duplicate order entry in a run of 5 and in the run of
// 69, and one for each of fence's three checks: a symmetric count above
// min(d(u), d(v))+1 on a hub's leaf edge, a clique edge whose two arcs
// disagree (its run reordered to match), and two tied hub entries
// swapped out of id order.
func FuzzLoad(f *testing.F) {
	g := fuzzLoadGraph(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := Load(bytes.NewReader(data), g)
		if err != nil {
			return
		}
		for u := int32(0); u < g.NumVertices(); u++ {
			nbr, _ := ix.run(u)
			run := slices.Clone(nbr)
			slices.Sort(run)
			if !slices.Equal(run, g.Neighbors(u)) {
				t.Fatalf("accepted run of vertex %d is not a permutation of its neighbors: %v", u, nbr)
			}
		}
		if _, err := ix.QueryWorkspace(context.Background(), "1/2", 2, nil); err != nil {
			t.Fatalf("query on an accepted index: %v", err)
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Load(&buf, g)
		if err != nil {
			t.Fatalf("reloading a saved index: %v", err)
		}
		requireBitIdentical(t, back, ix)
	})
}

// decodeChurn reads a fuzz input as a graph of n ≤ 80 vertices and one
// mixed batch: data[0] picks n, data[1] is the number of two-byte edge
// records that form the graph, and every later record is a batch op. In a
// record (a, b) the endpoints are (a&0x7f) mod n and (b&0x7f) mod n, and
// a set high bit of a makes a batch op a delete.
func decodeChurn(t *testing.T, data []byte) (*graph.Graph, []graph.EdgeOp) {
	if len(data) < 2 {
		return nil, nil
	}
	n := int32(data[0]%79) + 2
	split := int(data[1])
	var edges []graph.Edge
	var batch []graph.EdgeOp
	for k, rec := 0, data[2:]; len(rec) >= 2; k, rec = k+1, rec[2:] {
		u, v := int32(rec[0]&0x7f)%n, int32(rec[1]&0x7f)%n
		if k < split {
			edges = append(edges, graph.Edge{U: u, V: v})
		} else {
			batch = append(batch, graph.EdgeOp{U: u, V: v, Del: rec[0]&0x80 != 0})
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, batch
}

// decodeQuery reads a fuzz input as a graph of n ≤ 80 vertices, an
// exact-rational ε grid, one µ and a build worker count: data[0] mod 81
// is n (0 is the empty graph), the grid's first ε is (data[1] mod den +
// 1)/den with den = data[2] mod 64 + 1, µ = data[3] mod (maxdeg+2) + 1
// and workers = data[4] mod 3 + 1; every later byte pair (a, b) of data is
// the edge (a mod n, b mod n). Each of the first 16 bytes c of grid adds
// the ε (c mod den + 1)/den, in the order given, repeats included.
func decodeQuery(t *testing.T, data, grid []byte) (g *graph.Graph, eps []simdef.Epsilon, mu int32, workers int) {
	if len(data) < 5 {
		return nil, nil, 0, 0
	}
	n := int32(data[0]) % 81
	var edges []graph.Edge
	for rec := data[5:]; n > 0 && len(rec) >= 2; rec = rec[2:] {
		edges = append(edges, graph.Edge{U: int32(rec[0]) % n, V: int32(rec[1]) % n})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	den := int(data[2])%64 + 1
	for _, c := range append(data[1:2:2], grid[:min(len(grid), 16)]...) {
		eps = append(eps, simdef.MustEpsilon(fmt.Sprintf("%d/%d", int(c)%den+1, den)))
	}
	mu = int32(data[3])%(g.MaxDegree()+2) + 1
	return g, eps, mu, int(data[4])%3 + 1
}

// FuzzQueryWorkspace: for any small graph, ε grid and µ, on a crew of
// 1–3 workers, the build's triangle counts equal arcCount's (Validate),
// and a sweep over the grid sorted from the largest ε down yields at
// every step the SCAN answer with NonCore strictly increasing, equal to a
// fresh QueryWorkspace at that ε. An empty grid is the single extraction.
// The committed corpus (testdata/fuzz/FuzzQueryWorkspace) holds σ = ε
// exactly (alone and at a sweep step), µ = 1, µ = maxdeg+1, an isolated
// vertex, the empty graph, a repeated ε, a new core whose similar cores
// are all older and smaller (the cores phase's both-sides union), a star
// (the hub's out-list is empty), K5 (every edge lies in 3 triangles) and
// a 4-regular ring (every rank tie falls to the id). The search-* seeds
// drive similarEnd: a core whose whole run is similar (K9, the probe ≥ hi
// exit), and on a 6-regular ring with σ ∈ {6/7, 5/7, 4/7} a prefix that
// ends on σ = ε, µ = 1 and µ equal to every degree.
func FuzzQueryWorkspace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data, grid []byte) {
		g, eps, mu, workers := decodeQuery(t, data, grid)
		if g == nil {
			return
		}
		slices.SortStableFunc(eps, func(a, b simdef.Epsilon) int { return b.Cmp(a) })
		ix := Build(g, BuildOptions{Workers: workers})
		if err := ix.Validate(); err != nil {
			t.Fatal(err)
		}
		ws := engine.NewWorkspace()
		defer ws.Close()
		steps := 0
		err := ix.SweepWorkspace(context.Background(), eps, mu, nil, func(i int, got *result.Result) {
			steps++
			requireExact(t, g, got, simdef.Threshold{Eps: eps[i], Mu: mu})
			want, err := ix.QueryWorkspace(context.Background(), eps[i].String(), mu, ws)
			if err != nil {
				t.Fatal(err)
			}
			if err := result.Equal(want, got); err != nil {
				t.Fatalf("step %d, eps=%s mu=%d: %v", i, eps[i], mu, err)
			}
		})
		if err != nil || steps != len(eps) {
			t.Fatalf("sweep of %d steps: %d yielded, err %v", len(eps), steps, err)
		}
	})
}

// FuzzApplyBatch: for any small graph and batch, the base build and
// ApplyBatch's repair both pass Validate, and the repair is bit-identical
// to a rebuild of the new snapshot. The repair, a compaction of the
// exact-size build, then takes two more batches: the batch undone (every
// op's Del flipped), which appends to its tail when it fits, and a fork
// of the batch with every endpoint moved to the next vertex, which finds
// that tail taken and compacts. The graphs do the same: the undo's commit
// appends its runs to the child graph's storage when they fit, and the
// fork's compacts. Each result, and the repair itself afterwards, is
// again a rebuild. The committed corpus
// (testdata/fuzz/FuzzApplyBatch) covers a run wider than 64, a delete that
// isolates a vertex, duplicate and cancelling ops, a batch that changes an
// untouched run only through its neighbors' degrees, a star, K5, a
// 4-regular ring, and a chord across an 80-ring, whose undo appends.
func FuzzApplyBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, batch := decodeChurn(t, data)
		if g == nil {
			return
		}
		ctx := context.Background()
		opt := BuildOptions{Workers: 2}
		ix, err := BuildContext(ctx, g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Validate(); err != nil {
			t.Fatal(err)
		}
		n := g.NumVertices()
		undo, fork := slices.Clone(batch), slices.Clone(batch)
		for i := range batch {
			undo[i].Del = !undo[i].Del
			fork[i].U, fork[i].V = (fork[i].U+1)%n, (fork[i].V+1)%n
		}
		apply := func(ix *Index, batch []graph.EdgeOp) *Index {
			d, err := graph.NewStore(ix.g).Commit(batch)
			if err != nil {
				t.Fatal(err)
			}
			nix, err := ix.ApplyBatch(ctx, d, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := nix.Validate(); err != nil {
				t.Fatal(err)
			}
			return nix
		}
		child := apply(ix, batch)
		for _, nix := range []*Index{child, apply(child, undo), apply(child, fork), child} {
			rebuilt, err := BuildContext(ctx, nix.g, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, nix, rebuilt)
		}
	})
}
