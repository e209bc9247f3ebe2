package gen

import (
	"math"
	"testing"
	"testing/quick"

	"ppscan/graph"
)

func TestErdosRenyiBasic(t *testing.T) {
	g := ErdosRenyi(100, 300, 1)
	if g.NumVertices() != 100 {
		t.Fatalf("|V| = %d, want 100", g.NumVertices())
	}
	if g.NumEdges() != 300 {
		t.Fatalf("|E| = %d, want 300 (sampling resamples duplicates)", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestErdosRenyiSaturates(t *testing.T) {
	// Request more edges than pairs exist; must clamp to the complete graph.
	g := ErdosRenyi(5, 100, 2)
	if g.NumEdges() != 10 {
		t.Fatalf("|E| = %d, want 10 (K5)", g.NumEdges())
	}
}

func TestErdosRenyiTinyN(t *testing.T) {
	for _, n := range []int32{0, 1} {
		g := ErdosRenyi(n, 10, 3)
		if g.NumEdges() != 0 {
			t.Errorf("n=%d: got %d edges", n, g.NumEdges())
		}
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := ErdosRenyi(50, 100, 42)
	b := ErdosRenyi(50, 100, 42)
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed produced different graphs")
	}
	for u := int32(0); u < 50; u++ {
		na, nb := a.Neighbors(u), b.Neighbors(u)
		if len(na) != len(nb) {
			t.Fatalf("same seed produced different adjacency at %d", u)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("same seed produced different adjacency at %d", u)
			}
		}
	}
}

func TestRollDegreeControl(t *testing.T) {
	for _, d := range []int32{4, 8, 16} {
		g := Roll(2000, d, 7)
		if err := g.Validate(); err != nil {
			t.Fatalf("d=%d Validate: %v", d, err)
		}
		avg := g.AvgDegree()
		if avg < float64(d)*0.8 || avg > float64(d)*1.3 {
			t.Errorf("d=%d: average degree %.2f too far from target", d, avg)
		}
	}
}

func TestRollIsHeavyTailed(t *testing.T) {
	g := Roll(5000, 8, 11)
	// Scale-free: max degree far above the average.
	if float64(g.MaxDegree()) < 4*g.AvgDegree() {
		t.Errorf("max degree %d not heavy-tailed vs average %.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestRollSmallN(t *testing.T) {
	g := Roll(3, 40, 1) // k clamped to n-1
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumVertices() != 3 {
		t.Fatalf("|V| = %d", g.NumVertices())
	}
}

func TestRMATSkewAndValidity(t *testing.T) {
	g := RMAT(12, 40000, 0.57, 0.19, 0.19, 5)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumVertices() != 1<<12 {
		t.Fatalf("|V| = %d, want %d", g.NumVertices(), 1<<12)
	}
	if float64(g.MaxDegree()) < 5*g.AvgDegree() {
		t.Errorf("RMAT should be skewed: max %d avg %.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestPlantedPartitionStructure(t *testing.T) {
	g := PlantedPartition(4, 50, 0.3, 0.005, 9)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumVertices() != 200 {
		t.Fatalf("|V| = %d, want 200", g.NumVertices())
	}
	// Count intra vs inter community edges; intra should dominate per pair.
	var intra, inter int64
	for _, e := range g.Edges() {
		if e.U/50 == e.V/50 {
			intra++
		} else {
			inter++
		}
	}
	intraPairs := float64(4 * 50 * 49 / 2)
	interPairs := float64(200*199/2) - intraPairs
	if intra == 0 {
		t.Fatal("no intra-community edges generated")
	}
	intraRate := float64(intra) / intraPairs
	interRate := float64(inter) / interPairs
	if intraRate < 10*interRate {
		t.Errorf("community structure too weak: intra rate %.4f inter rate %.4f", intraRate, interRate)
	}
	if math.Abs(intraRate-0.3) > 0.1 {
		t.Errorf("intra rate %.3f far from requested 0.3", intraRate)
	}
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(100, 6, 0.1, 3)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.AvgDegree() < 4 || g.AvgDegree() > 7 {
		t.Errorf("avg degree %.2f outside lattice expectation", g.AvgDegree())
	}
}

func TestPrimitives(t *testing.T) {
	if g := Star(10); g.MaxDegree() != 9 || g.NumEdges() != 9 {
		t.Errorf("Star: max=%d |E|=%d", g.MaxDegree(), g.NumEdges())
	}
	if g := Clique(6); g.NumEdges() != 15 || g.MaxDegree() != 5 {
		t.Errorf("Clique: |E|=%d max=%d", g.NumEdges(), g.MaxDegree())
	}
	if g := Path(5); g.NumEdges() != 4 || g.MaxDegree() != 2 {
		t.Errorf("Path: |E|=%d max=%d", g.NumEdges(), g.MaxDegree())
	}
}

func TestCliqueChain(t *testing.T) {
	g := CliqueChain(3, 4)
	if g.NumVertices() != 12 {
		t.Fatalf("|V| = %d, want 12", g.NumVertices())
	}
	// 3 K4s (6 edges each) + 2 bridges.
	if g.NumEdges() != 20 {
		t.Fatalf("|E| = %d, want 20", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Each K4 is complete and consecutive K4s share a bridge, so the chain
	// is connected.
	for c := int32(0); c < 3; c++ {
		for u := 4 * c; u < 4*c+4; u++ {
			for v := u + 1; v < 4*c+4; v++ {
				if !g.HasEdge(u, v) {
					t.Errorf("clique %d lacks edge (%d,%d)", c, u, v)
				}
			}
		}
	}
	if !g.HasEdge(3, 4) || !g.HasEdge(7, 8) {
		t.Error("consecutive cliques are not bridged")
	}
}

func TestPairFromIndex(t *testing.T) {
	n := int32(5)
	idx := int64(0)
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			gu, gv := pairFromIndex(idx, n)
			if gu != u || gv != v {
				t.Fatalf("pairFromIndex(%d) = (%d,%d), want (%d,%d)", idx, gu, gv, u, v)
			}
			idx++
		}
	}
}

func TestGeometricSkipAlwaysPositive(t *testing.T) {
	f := func(seed int64) bool {
		g := ErdosRenyi(20, 30, seed)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Every generator must be deterministic given its seed — identical CSR
// arrays across repeated invocations. (A previous version of Roll leaked
// Go's randomized map iteration order into the preferential-attachment
// stream, producing a different graph per process run; this test pins the
// fix.)
func TestGeneratorsDeterministic(t *testing.T) {
	gens := map[string]func() *graph.Graph{
		"er":   func() *graph.Graph { return ErdosRenyi(200, 600, 9) },
		"roll": func() *graph.Graph { return Roll(500, 8, 9) },
		"rmat": func() *graph.Graph { return RMAT(9, 2000, 0.57, 0.19, 0.19, 9) },
		"pp":   func() *graph.Graph { return PlantedPartition(5, 40, 0.3, 0.01, 9) },
		"ws":   func() *graph.Graph { return WattsStrogatz(200, 6, 0.2, 9) },
	}
	for name, gf := range gens {
		name, gf := name, gf
		t.Run(name, func(t *testing.T) {
			a, b := gf(), gf()
			if len(a.Dst) != len(b.Dst) {
				t.Fatalf("%s: different edge counts across runs", name)
			}
			for i := range a.Dst {
				if a.Dst[i] != b.Dst[i] {
					t.Fatalf("%s: adjacency differs at %d", name, i)
				}
			}
			for i := range a.Off {
				if a.Off[i] != b.Off[i] {
					t.Fatalf("%s: offsets differ at %d", name, i)
				}
			}
		})
	}
}

// Property: every generator yields structurally valid graphs for arbitrary
// seeds.
func TestGeneratorsValidQuick(t *testing.T) {
	gens := map[string]func(seed int64) *graph.Graph{
		"er":   func(s int64) *graph.Graph { return ErdosRenyi(60, 120, s) },
		"roll": func(s int64) *graph.Graph { return Roll(200, 6, s) },
		"rmat": func(s int64) *graph.Graph { return RMAT(8, 600, 0.55, 0.2, 0.2, s) },
		"pp":   func(s int64) *graph.Graph { return PlantedPartition(3, 20, 0.4, 0.02, s) },
		"ws":   func(s int64) *graph.Graph { return WattsStrogatz(80, 4, 0.2, s) },
	}
	for name, gf := range gens {
		gf := gf
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				return gf(seed).Validate() == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
				t.Error(err)
			}
		})
	}
}
