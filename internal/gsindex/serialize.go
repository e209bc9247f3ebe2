package gsindex

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"ppscan/graph"
)

// indexMagic identifies the binary index format ("GSI1").
const indexMagic = 0x47534931

// Save serializes the index payload (intersection counts and neighbor
// orders) in a compact little-endian binary format. The graph itself is
// not stored; Load must be given the same graph.
func (ix *Index) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := []any{
		uint32(indexMagic),
		int64(ix.g.NumVertices()),
		int64(ix.g.NumDirectedEdges()),
	}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return fmt.Errorf("gsindex: writing header: %w", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, ix.cn); err != nil {
		return fmt.Errorf("gsindex: writing counts: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, ix.order); err != nil {
		return fmt.Errorf("gsindex: writing orders: %w", err)
	}
	return bw.Flush()
}

// Load deserializes an index previously written by Save and attaches it to
// g, verifying that the stored shape matches the graph and that the
// payload passes fence, every invariant checkable in one pass over the arcs;
// Validate adds the exact counts.
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
	ix := &Index{
		g:       g,
		cn:      make([]int32, m),
		order:   make([]int32, m),
		workers: BuildOptions{}.workers(),
	}
	if err := binary.Read(br, binary.LittleEndian, ix.cn); err != nil {
		return nil, fmt.Errorf("gsindex: reading counts: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, ix.order); err != nil {
		return nil, fmt.Errorf("gsindex: reading orders: %w", err)
	}
	if err := ix.fence(); err != nil {
		return nil, err
	}
	return ix, nil
}

// fence checks what Load can check without an intersection: every count
// is symmetric and in 2 ≤ cn ≤ min(d(u), d(v))+1, and every run is a
// permutation of its positions, strictly increasing under the run
// comparator. Exact counts are Validate's, at O(Σ d²).
func (ix *Index) fence() error {
	g := ix.g
	n := g.NumVertices()
	// rev[v] counts the arcs (u, v), u < v, met so far: the reverse arc of
	// the next one is (v, u) at position rev[v] of v's run, because v's
	// smaller neighbors lead its run in the order u is walked. seen[o]
	// holds the last vertex (plus one) whose run listed entry o, so one
	// buffer serves every run without clearing.
	rev := make([]int32, n)
	seen := make([]int32, g.MaxDegree())
	var w applyWorker
	for u := int32(0); u < n; u++ {
		deg := g.Degree(u)
		uOff := g.Off[u]
		for k, v := range g.Neighbors(u) {
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
			o := ix.order[uOff+k]
			if o < 0 || o >= deg {
				return fmt.Errorf("gsindex: order entry %d out of range at vertex %d", o, u)
			}
			if seen[o] == u+1 {
				return fmt.Errorf("gsindex: duplicate order entry at vertex %d", u)
			}
			seen[o] = u + 1
		}
		if k := w.misordered(ix, u); k > 0 {
			return fmt.Errorf("gsindex: neighbor order of %d out of order at %d", u, k)
		}
	}
	return nil
}
