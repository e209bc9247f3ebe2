package gsindex

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"ppscan/graph"
)

// indexMagic identifies the binary index format ("GSI1").
const indexMagic = 0x47534931

// Save serializes the index payload in a compact little-endian binary
// format: the intersection counts position-major (each vertex's in its CSR
// order), then every neighbor order as CSR positions relative to its
// vertex, converted from the runs by one search per entry — the same bytes
// wherever at puts the runs. The graph itself is not stored; Load must be
// given the same graph.
func (ix *Index) Save(w io.Writer) error {
	g := ix.g
	cn, order := make([]int32, g.NumDirectedEdges()), make([]int32, g.NumDirectedEdges())
	for u := int32(0); u < g.NumVertices(); u++ {
		off, nbrs := g.Off[u], g.Neighbors(u)
		run, cnr := ix.run(u)
		for k, v := range run {
			i, _ := slices.BinarySearch(nbrs, v)
			cn[off+int64(i)], order[off+int64(k)] = cnr[k], int32(i)
		}
	}
	bw := bufio.NewWriter(w)
	for _, x := range []any{uint32(indexMagic), int64(g.NumVertices()), g.NumDirectedEdges(), cn, order} {
		if err := binary.Write(bw, binary.LittleEndian, x); err != nil {
			return fmt.Errorf("gsindex: writing the index: %w", err)
		}
	}
	return bw.Flush()
}

// Load deserializes an index previously written by Save and attaches it to
// g, verifying that the stored shape matches the graph and that the
// payload passes fence, every invariant checkable in one pass over the
// arcs, which also turns the runs order-major in place; Validate adds the
// exact counts.
func Load(r io.Reader, g *graph.Graph) (*Index, error) {
	br := bufio.NewReader(r)
	var magic uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("gsindex: reading magic: %w", err)
	}
	if magic != indexMagic {
		return nil, fmt.Errorf("gsindex: bad magic %#x", magic)
	}
	var n, m int64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("gsindex: reading vertex count: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("gsindex: reading edge count: %w", err)
	}
	if n != int64(g.NumVertices()) || m != g.NumDirectedEdges() {
		return nil, fmt.Errorf("gsindex: index shape (%d vertices, %d edges) does not match graph (%d, %d)",
			n, m, g.NumVertices(), g.NumDirectedEdges())
	}
	ix := newIndex(g, BuildOptions{}.workers(), 0)
	if err := binary.Read(br, binary.LittleEndian, ix.cn); err != nil {
		return nil, fmt.Errorf("gsindex: reading counts: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, ix.nbr); err != nil {
		return nil, fmt.Errorf("gsindex: reading orders: %w", err)
	}
	if err := ix.fence(); err != nil {
		return nil, err
	}
	return ix, nil
}

// fence checks what Load can check without an intersection, on the file's
// arrays as read into ix at g.Off (Load's at): counts position-major in cn
// and each run's order as positions in nbr. Every count is symmetric and in
// 2 ≤ cn ≤ min(d(u), d(v))+1, and every run is a permutation of its
// positions; the run is then turned order-major in place and must be
// strictly increasing under the run comparator. Exact counts are
// Validate's, at O(Σ d²).
//
//lint:snapfreeze pre-publication: Load has not returned ix yet
func (ix *Index) fence() error {
	g := ix.g
	n := g.NumVertices()
	// rev[v] counts the arcs (u, v), u < v, met so far: the reverse arc of
	// the next one is (v, u) at position rev[v] of v's run, because v's
	// smaller neighbors lead its run in the order u is walked. seen[o]
	// holds the last vertex (plus one) whose run listed entry o, so one
	// buffer serves every run without clearing.
	rev := make([]int32, n)
	seen, cnr := make([]int32, g.MaxDegree()), make([]int32, g.MaxDegree())
	var w applyWorker
	for u := int32(0); u < n; u++ {
		deg, nbrs := g.Degree(u), g.Neighbors(u)
		uOff := g.Off[u]
		for k, v := range nbrs {
			c := ix.cn[uOff+int64(k)]
			if c < 2 || c > min(deg, g.Degree(v))+1 {
				return fmt.Errorf("gsindex: count %d out of range at arc (%d, %d)", c, u, v)
			}
			if v > u {
				if back := ix.cn[g.Off[v]+int64(rev[v])]; back != c {
					return fmt.Errorf("gsindex: counts of arcs (%d, %d) and (%d, %d) differ: %d, %d", u, v, v, u, c, back)
				}
				rev[v]++
			}
		}
		for k := int64(0); k < int64(deg); k++ {
			o := ix.nbr[uOff+k]
			if o < 0 || o >= deg {
				return fmt.Errorf("gsindex: order entry %d out of range at vertex %d", o, u)
			}
			if seen[o] == u+1 {
				return fmt.Errorf("gsindex: duplicate order entry at vertex %d", u)
			}
			seen[o] = u + 1
		}
		// Only runs of v > u are still read position-major, by the
		// symmetry check above.
		copy(cnr, ix.cn[uOff:uOff+int64(deg)])
		for k := uOff; k < uOff+int64(deg); k++ {
			o := ix.nbr[k]
			ix.nbr[k], ix.cn[k] = nbrs[o], cnr[o]
		}
		if k := w.misorderedRun(ix, u); k > 0 {
			return fmt.Errorf("gsindex: neighbor order of %d out of order at %d", u, k)
		}
	}
	return nil
}
