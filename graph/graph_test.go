package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// triangle returns the 3-clique.
func triangle(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(3, []Edge{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	g := triangle(t)
	if got := g.NumVertices(); got != 3 {
		t.Errorf("NumVertices = %d, want 3", got)
	}
	if got := g.NumEdges(); got != 3 {
		t.Errorf("NumEdges = %d, want 3", got)
	}
	if got := g.NumDirectedEdges(); got != 6 {
		t.Errorf("NumDirectedEdges = %d, want 6", got)
	}
	for u := int32(0); u < 3; u++ {
		if got := g.Degree(u); got != 2 {
			t.Errorf("Degree(%d) = %d, want 2", u, got)
		}
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestFromEdgesDedupAndSelfLoops(t *testing.T) {
	g, err := FromEdges(4, []Edge{
		{0, 1}, {1, 0}, {0, 1}, // duplicates in both orientations
		{2, 2}, // self loop dropped
		{3, 2}, {2, 3},
	})
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if got := g.NumEdges(); got != 2 {
		t.Fatalf("NumEdges = %d, want 2", got)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(2, 3) {
		t.Errorf("expected edges missing")
	}
	if g.HasEdge(2, 2) {
		t.Errorf("self loop survived")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestFromEdgesOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 2}}); err == nil {
		t.Errorf("expected error for out-of-range endpoint")
	}
	if _, err := FromEdges(2, []Edge{{-1, 0}}); err == nil {
		t.Errorf("expected error for negative endpoint")
	}
	if _, err := FromEdges(-1, nil); err == nil {
		t.Errorf("expected error for negative vertex count")
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := FromEdges(0, nil)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Errorf("empty graph has v=%d e=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if g.AvgDegree() != 0 {
		t.Errorf("AvgDegree = %f, want 0", g.AvgDegree())
	}
	if g.MaxDegree() != 0 {
		t.Errorf("MaxDegree = %d, want 0", g.MaxDegree())
	}
}

func TestIsolatedVertices(t *testing.T) {
	g, err := FromEdges(5, []Edge{{1, 3}})
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	for _, u := range []int32{0, 2, 4} {
		if g.Degree(u) != 0 {
			t.Errorf("Degree(%d) = %d, want 0", u, g.Degree(u))
		}
		if len(g.Neighbors(u)) != 0 {
			t.Errorf("Neighbors(%d) non-empty", u)
		}
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestEdgeOffsetRoundTrip(t *testing.T) {
	g := randomGraph(t, 60, 300, 7)
	n := g.NumVertices()
	for u := int32(0); u < n; u++ {
		for i, v := range g.Neighbors(u) {
			e := g.EdgeOffset(u, v)
			if e != g.Off[u]+int64(i) {
				t.Fatalf("EdgeOffset(%d,%d) = %d, want %d", u, v, e, g.Off[u]+int64(i))
			}
			if g.Dst[e] != v {
				t.Fatalf("Dst[e(%d,%d)] = %d, want %d", u, v, g.Dst[e], v)
			}
			// The reverse offset must exist and point back.
			re := g.EdgeOffset(v, u)
			if re < 0 || g.Dst[re] != u {
				t.Fatalf("reverse edge of (%d,%d) broken", u, v)
			}
		}
	}
	if g.EdgeOffset(0, n-1) >= 0 == !g.HasEdge(0, n-1) {
		t.Errorf("HasEdge and EdgeOffset disagree")
	}
}

func TestEdgeOffsetMissing(t *testing.T) {
	g := triangle(t)
	gg, err := FromEdges(4, []Edge{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if gg.EdgeOffset(0, 2) != -1 {
		t.Errorf("EdgeOffset for absent edge should be -1")
	}
	if gg.EdgeOffset(0, 3) != -1 {
		t.Errorf("EdgeOffset for absent edge should be -1")
	}
	_ = g
}

func TestEdgesRoundTrip(t *testing.T) {
	g := randomGraph(t, 40, 150, 3)
	edges := g.Edges()
	g2, err := FromEdges(g.NumVertices(), edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if !reflect.DeepEqual(g.Off, g2.Off) || !reflect.DeepEqual(g.Dst, g2.Dst) {
		t.Errorf("Edges/FromEdges round trip changed the graph")
	}
}

func TestStats(t *testing.T) {
	g, err := FromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}})
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	s := ComputeStats("star", g)
	if s.NumVertices != 4 || s.NumEdges != 6 || s.MaxDegree != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.AvgDegree != 1.5 {
		t.Errorf("AvgDegree = %f, want 1.5", s.AvgDegree)
	}
	if !strings.Contains(s.String(), "star") {
		t.Errorf("String() should contain the name: %q", s.String())
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Graph)
	}{
		{"unsorted", func(g *Graph) { g.Dst[0], g.Dst[1] = g.Dst[1], g.Dst[0] }},
		{"self-loop", func(g *Graph) { g.Dst[0] = 0 }},
		{"out-of-range", func(g *Graph) { g.Dst[0] = 99 }},
		{"bad-off0", func(g *Graph) { g.Off[0] = 1 }},
		{"non-monotone", func(g *Graph) { g.Off[1] = g.Off[2] + 1 }},
		{"asymmetric", func(g *Graph) {
			// Remove 0 from 1's list by replacing it with 2 (already there
			// is fine; duplicates also invalid, either way it must fail).
			nbrs := g.Dst[g.Off[1]:g.Off[2]]
			for i, v := range nbrs {
				if v == 0 {
					nbrs[i] = 1 + int32(i) // corrupt
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := triangle(t)
			tc.mutate(g)
			if err := g.Validate(); err == nil {
				t.Errorf("Validate accepted corrupted graph (%s)", tc.name)
			}
		})
	}
}

func TestReadEdgeListText(t *testing.T) {
	const text = `# a comment
% another comment
0 1
1 2 ignored-extra-field
2 0

`
	g, err := ReadEdgeList(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got v=%d e=%d, want 3,3", g.NumVertices(), g.NumEdges())
	}
}

func TestReadEdgeListCompact(t *testing.T) {
	const text = "100 200\n200 300\n"
	g, err := ReadEdgeList(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumVertices() != 3 {
		t.Fatalf("compacted |V| = %d, want 3", g.NumVertices())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("|E| = %d, want 2", g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, bad := range []string{"0\n", "x y\n", "0 y\n", "-1 2\n"} {
		if _, err := ReadEdgeList(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadEdgeList(%q) should fail", bad)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	g := randomGraph(t, 50, 200, 11)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	// The round trip may shrink |V| if trailing vertices are isolated; pad.
	if g2.NumVertices() > g.NumVertices() {
		t.Fatalf("round trip grew the vertex set")
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed |E|: %d -> %d", g.NumEdges(), g2.NumEdges())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := randomGraph(t, 80, 400, 5)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !reflect.DeepEqual(g.Off, g2.Off) || !reflect.DeepEqual(g.Dst, g2.Dst) {
		t.Errorf("binary round trip changed the graph")
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Errorf("short read should fail")
	}
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	if _, err := ReadBinary(&buf); err == nil {
		t.Errorf("bad magic should fail")
	}
}

func TestLoadSaveFile(t *testing.T) {
	g := randomGraph(t, 30, 100, 2)
	for _, name := range []string{"g.txt", "g.bin", "g.txt.gz", "g.bin.gz"} {
		path := t.TempDir() + "/" + name
		if err := SaveFile(path, g); err != nil {
			t.Fatalf("SaveFile(%s): %v", name, err)
		}
		g2, err := LoadFile(path)
		if err != nil {
			t.Fatalf("LoadFile(%s): %v", name, err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Errorf("%s: |E| %d -> %d", name, g.NumEdges(), g2.NumEdges())
		}
	}
	if _, err := LoadFile(t.TempDir() + "/missing.bin"); err == nil {
		t.Errorf("LoadFile of missing file should fail")
	}
}

// Property: FromEdges always yields a valid, symmetric graph regardless of
// the (possibly messy) input edge list.
func TestFromEdgesAlwaysValidQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint16) bool {
		n := int32(nRaw%50) + 1
		rng := rand.New(rand.NewSource(seed))
		m := int(mRaw % 400)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{int32(rng.Intn(int(n))), int32(rng.Intn(int(n)))}
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			return false
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: degrees sum to the directed edge count.
func TestDegreeSumQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraphSeed(seed, 40, 160)
		var sum int64
		for u := int32(0); u < g.NumVertices(); u++ {
			sum += int64(g.Degree(u))
		}
		return sum == g.NumDirectedEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func randomGraph(t *testing.T, n int32, m int, seed int64) *Graph {
	t.Helper()
	return randomGraphSeed(seed, n, m)
}

func randomGraphSeed(seed int64, n int32, m int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{int32(rng.Intn(int(n))), int32(rng.Intn(int(n)))}
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

func TestNeighborsSorted(t *testing.T) {
	g := randomGraph(t, 70, 500, 13)
	for u := int32(0); u < g.NumVertices(); u++ {
		nbrs := g.Neighbors(u)
		if !sort.SliceIsSorted(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] }) {
			t.Fatalf("neighbors of %d not sorted", u)
		}
	}
}

// TestIDs: every constructor draws a fresh nonzero ID, and a literal has
// ID 0.
func TestIDs(t *testing.T) {
	g := triangle(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	read, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewStore(g).Commit([]EdgeOp{{U: 0, V: 1, Del: true}})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]string{}
	for name, h := range map[string]*Graph{"FromEdges": g, "ReadBinary": read, "Commit": d.New} {
		if h.ID() == 0 {
			t.Errorf("%s: ID 0", name)
		}
		if other, dup := seen[h.ID()]; dup {
			t.Errorf("%s and %s share ID %d", name, other, h.ID())
		}
		seen[h.ID()] = name
	}
	if id := (&Graph{Off: g.Off, Dst: g.Dst}).ID(); id != 0 {
		t.Errorf("literal ID = %d, want 0", id)
	}
}
