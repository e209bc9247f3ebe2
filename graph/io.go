package graph

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ppscan/internal/fault"
)

// ReadEdgeList parses a whitespace-separated edge-list stream in the SNAP
// style: one "u v" pair per line, '#' or '%' lines are comments. Vertex ids
// are arbitrary non-negative int32 values; they are compacted to [0, n) in
// order of first appearance, so n is the number of distinct ids the stream
// names, never the largest id plus one.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	remap := make(map[int32]int32)
	mapID := func(raw int32) int32 {
		if id, ok := remap[raw]; ok {
			return id
		}
		id := int32(len(remap))
		remap[raw] = id
		return id
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least two fields, got %q", lineNo, line)
		}
		u64, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q: %v", lineNo, fields[0], err)
		}
		v64, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q: %v", lineNo, fields[1], err)
		}
		if u64 < 0 || v64 < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id", lineNo)
		}
		edges = append(edges, Edge{mapID(int32(u64)), mapID(int32(v64))})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scanning edge list: %w", err)
	}
	return FromEdges(int32(len(remap)), edges)
}

// WriteEdgeList writes the graph as "u v" lines with u < v, one undirected
// edge per line, preceded by a comment header.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# vertices %d edges %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for u := int32(0); u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// binaryMagic identifies the binary CSR format ("PSG1": ppSCAN graph v1).
const binaryMagic = 0x50534731

// WriteBinary serializes the CSR arrays in a compact little-endian binary
// format: magic, |V|, 2|E|, Off[1..|V|] (int64), then every neighbor run
// in vertex order (int32) — a compact graph's Dst, whatever g's layout.
// Off[0] is implicit (always zero).
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	hdr := []any{uint32(binaryMagic), int64(g.NumVertices()), g.NumDirectedEdges()}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return fmt.Errorf("graph: writing binary header: %w", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Off[1:]); err != nil {
		return fmt.Errorf("graph: writing offsets: %w", err)
	}
	var buf []byte
	for u := int32(0); u < g.NumVertices(); u++ {
		buf = buf[:0]
		for _, v := range g.Neighbors(u) {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("graph: writing adjacency: %w", err)
		}
	}
	return bw.Flush()
}

// maxBinaryVertices bounds the declared vertex count of a binary graph:
// vertex ids are int32, so a header declaring more vertices than int32 can
// address is corrupt by construction, and rejecting it up front keeps a
// hostile header from sizing the offset allocation.
const maxBinaryVertices = 1<<31 - 2

// binaryReadChunk is the element granularity for reading the CSR payload
// arrays. Reading in chunks and growing with append keeps peak memory
// proportional to the bytes actually present in the stream: a truncated or
// hostile file that declares n=10^12 fails at its first missing chunk
// instead of OOM-panicking on an upfront make([]int64, n+1).
const binaryReadChunk = 1 << 17

// readInt64Chunked appends count little-endian int64s from r to dst,
// reading at most binaryReadChunk elements at a time.
func readInt64Chunked(r io.Reader, dst []int64, count int64, what string) ([]int64, error) {
	buf := make([]int64, min64(count, binaryReadChunk))
	for count > 0 {
		c := buf[:min64(count, binaryReadChunk)]
		if err := binary.Read(r, binary.LittleEndian, c); err != nil {
			return nil, fmt.Errorf("graph: reading %s: %w", what, err)
		}
		dst = append(dst, c...)
		count -= int64(len(c))
	}
	return dst, nil
}

// readInt32Chunked is readInt64Chunked for int32 payloads.
func readInt32Chunked(r io.Reader, dst []int32, count int64, what string) ([]int32, error) {
	buf := make([]int32, min64(count, binaryReadChunk))
	for count > 0 {
		c := buf[:min64(count, binaryReadChunk)]
		if err := binary.Read(r, binary.LittleEndian, c); err != nil {
			return nil, fmt.Errorf("graph: reading %s: %w", what, err)
		}
		dst = append(dst, c...)
		count -= int64(len(c))
	}
	return dst, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// ReadBinary deserializes a graph written by WriteBinary and validates it.
// Every structural invariant of the format is checked and reported as a
// wrapped error — a corrupt or hostile stream can never panic a loader or
// hand an invalid CSR to the algorithms: the header sizes are bounded
// before anything is allocated, the payload is read incrementally so a
// truncated file fails without ballooning memory, and the assembled graph
// must pass Validate (monotone offsets, in-range sorted neighbors,
// symmetric edges) before it is returned.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var magic uint32
	var n, m int64
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("graph: reading binary magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %#x (want %#x: the PSG1 binary CSR format, v1 — written by WriteBinary / SaveFile with a .bin extension)", magic, uint32(binaryMagic))
	}
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("graph: reading vertex count: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("graph: reading edge count: %w", err)
	}
	if n < 0 || m < 0 || m%2 != 0 {
		return nil, fmt.Errorf("graph: implausible sizes n=%d m=%d", n, m)
	}
	if n > maxBinaryVertices {
		return nil, fmt.Errorf("graph: vertex count %d exceeds the int32 id space", n)
	}
	// A simple graph has at most n*(n-1) directed edges; reject headers
	// that cannot possibly validate before reading (or allocating for)
	// their payload. The product is computed guarded against overflow.
	if n == 0 && m > 0 {
		return nil, fmt.Errorf("graph: %d edges with no vertices", m)
	}
	if n > 0 && m/n > n-1 {
		return nil, fmt.Errorf("graph: implausible edge count %d for %d vertices", m, n)
	}
	off := make([]int64, 1, min64(n+1, binaryReadChunk))
	off, err := readInt64Chunked(br, off, n, "offsets")
	if err != nil {
		return nil, err
	}
	dst := make([]int32, 0, min64(m, binaryReadChunk))
	dst, err = readInt32Chunked(br, dst, m, "adjacency")
	if err != nil {
		return nil, err
	}
	g := newGraph(off, dst)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: binary payload invalid: %w", err)
	}
	return g, nil
}

// LoadFile reads a graph from path. The format is chosen by extension:
// ".bin" selects the binary CSR format, anything else the text edge-list
// format; a final ".gz" extension (e.g. ".txt.gz", ".bin.gz") transparently
// gunzips first.
func LoadFile(path string) (*Graph, error) {
	if err := fault.Inject(fault.GraphLoad); err != nil {
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	base := path
	if strings.HasSuffix(base, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("graph: %s: opening gzip stream: %w", path, err)
		}
		defer zr.Close()
		r = zr
		base = strings.TrimSuffix(base, ".gz")
	}
	if strings.HasSuffix(base, ".bin") {
		g, err := ReadBinary(r)
		if err != nil {
			return nil, fmt.Errorf("graph: %s (binary CSR format): %w", path, err)
		}
		return g, nil
	}
	g, err := ReadEdgeList(r)
	if err != nil {
		return nil, fmt.Errorf("graph: %s (text edge-list format): %w", path, err)
	}
	return g, nil
}

// SaveFile writes a graph to path, choosing the format by extension as in
// LoadFile (including transparent gzip for ".gz").
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var w io.Writer = f
	base := path
	var zw *gzip.Writer
	if strings.HasSuffix(base, ".gz") {
		zw = gzip.NewWriter(f)
		w = zw
		base = strings.TrimSuffix(base, ".gz")
	}
	if strings.HasSuffix(base, ".bin") {
		err = WriteBinary(w, g)
	} else {
		err = WriteEdgeList(w, g)
	}
	if err != nil {
		return err
	}
	if zw != nil {
		return zw.Close()
	}
	return nil
}
