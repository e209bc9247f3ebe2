package graph

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// binImage hand-assembles a PSG1 binary image (magic, n, m, Off[1..n],
// Dst) without going through WriteBinary, so tests can produce structurally
// corrupt payloads that the writer would never emit.
func binImage(n, m int64, off []int64, dst []int32) []byte {
	var b bytes.Buffer
	_ = binary.Write(&b, binary.LittleEndian, uint32(binaryMagic))
	_ = binary.Write(&b, binary.LittleEndian, n)
	_ = binary.Write(&b, binary.LittleEndian, m)
	_ = binary.Write(&b, binary.LittleEndian, off)
	_ = binary.Write(&b, binary.LittleEndian, dst)
	return b.Bytes()
}

// FuzzReadEdgeList: arbitrary text must never panic, and every accepted
// graph must satisfy all CSR invariants.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n5 5\n")
	f.Add("")
	f.Add("x y\n")
	f.Add("1000000 2\n")
	f.Add("3 4 extra\n% c\n4 3\n")
	// 31 bytes naming id 10^9: the graph must have the 2 vertices the input
	// names, not max(id)+1 (about 24 GB of offsets and degrees).
	f.Add("0 000000000000000000001000000000")
	f.Fuzz(func(t *testing.T, data string) {
		g, err := ReadEdgeList(strings.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v", err)
		}
	})
}

// FuzzReadBinary: arbitrary bytes must never panic and accepted payloads
// must validate (ReadBinary validates internally; double-check).
func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	g, _ := FromEdges(3, []Edge{{0, 1}, {1, 2}})
	_ = WriteBinary(&seed, g)
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x31, 0x47, 0x53, 0x50, 0, 0, 0, 0})
	// Corrupt-CSR corpus: each entry violates exactly one invariant the
	// loader must reject with a wrapped error, never a panic.
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})                        // bad magic
	f.Add(binImage(2, 2, []int64{2, 1}, []int32{1, 0}))          // non-monotone offsets
	f.Add(binImage(2, 2, []int64{1, 2}, []int32{1, 7}))          // out-of-range neighbor
	f.Add(binImage(2, 2, []int64{1, 2}, []int32{1, 1}))          // self loop
	f.Add(binImage(2, 2, []int64{2, 2}, []int32{1, 1}))          // asymmetric edge
	f.Add(binImage(1<<40, 1<<40, nil, nil))                      // huge n and m, no payload
	f.Add(binImage(3, 1<<62, []int64{0, 0, 0}, nil))             // m beyond any simple graph
	f.Add(binImage(2, 3, []int64{2, 3}, []int32{1, 0, 0}))       // odd directed-edge count
	f.Add(binImage(4, 6, []int64{2, 4}, []int32{1, 2}))          // truncated mid-payload
	f.Add(seed.Bytes()[:len(seed.Bytes())-2])                    // truncated adjacency tail
	f.Add(binImage(0, 2, nil, []int32{0, 1}))                    // edges with no vertices
	f.Add(binImage(2, 2, []int64{1, 3}, []int32{1, 0}))          // Off[n] != len(Dst)
	f.Add(binImage(3, 4, []int64{2, 3, 4}, []int32{2, 1, 0, 0})) // neighbors not sorted
	f.Add(binImage(maxBinaryVertices+5, 0, nil, nil))            // n past the int32 id space
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("ReadBinary accepted invalid graph: %v", err)
		}
	})
}

// FuzzRoundTrip: any graph built from fuzzed edges must round-trip both
// serializations losslessly.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(5), []byte{0, 1, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, nRaw uint8, pairs []byte) {
		n := int32(nRaw%40) + 1
		var edges []Edge
		for i := 0; i+1 < len(pairs); i += 2 {
			edges = append(edges, Edge{int32(pairs[i]) % n, int32(pairs[i+1]) % n})
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			t.Fatalf("FromEdges on normalized input: %v", err)
		}
		var bin bytes.Buffer
		if err := WriteBinary(&bin, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadBinary(&bin)
		if err != nil {
			t.Fatal(err)
		}
		if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
			t.Fatalf("binary round trip changed shape")
		}
		var txt bytes.Buffer
		if err := WriteEdgeList(&txt, g); err != nil {
			t.Fatal(err)
		}
		g3, err := ReadEdgeList(&txt)
		if err != nil {
			t.Fatal(err)
		}
		if g3.NumEdges() != g.NumEdges() {
			t.Fatalf("text round trip changed |E|")
		}
	})
}
