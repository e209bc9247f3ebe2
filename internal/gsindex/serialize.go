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
// payload satisfies the index invariants cheaply (full verification is
// available via Validate).
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
	// Cheap sanity checks: counts in range, orders are per-vertex
	// permutations. seen[o] holds the last vertex (plus one) whose run
	// listed entry o, so one buffer serves every run without clearing.
	seen := make([]int32, g.MaxDegree())
	for u := int32(0); u < g.NumVertices(); u++ {
		deg := g.Degree(u)
		uOff := g.Off[u]
		for k := int64(0); k < int64(deg); k++ {
			c := ix.cn[uOff+k]
			if c < 2 || c > deg+2 {
				return nil, fmt.Errorf("gsindex: count %d out of range at vertex %d", c, u)
			}
			o := ix.order[uOff+k]
			if o < 0 || o >= deg {
				return nil, fmt.Errorf("gsindex: order entry %d out of range at vertex %d", o, u)
			}
			if seen[o] == u+1 {
				return nil, fmt.Errorf("gsindex: duplicate order entry at vertex %d", u)
			}
			seen[o] = u + 1
		}
	}
	return ix, nil
}
