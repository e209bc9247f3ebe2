package dataset

import (
	"slices"
	"testing"

	"ppscan/graph"
)

func TestAllSpecsBuildAtTinyScale(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			g := MustLoad(name, 0.02)
			if err := g.Validate(); err != nil {
				t.Fatalf("invalid graph: %v", err)
			}
			if g.NumVertices() == 0 || g.NumEdges() == 0 {
				t.Fatalf("degenerate graph: v=%d e=%d", g.NumVertices(), g.NumEdges())
			}
		})
	}
}

func TestGetAndNames(t *testing.T) {
	names := Names()
	if len(names) != len(rows) || !slices.IsSorted(names) || len(slices.Compact(slices.Clone(names))) != len(names) {
		t.Errorf("Names() = %v, want the %d row names sorted and distinct", names, len(rows))
	}
	if _, err := Load("nope", 1); err == nil {
		t.Errorf("Load(nope) should fail")
	}
}

func TestGroupings(t *testing.T) {
	if got := len(RealWorld()); got != 4 {
		t.Errorf("RealWorld = %d names", got)
	}
	if got := len(Breakdown()); got != 3 {
		t.Errorf("Breakdown = %d names", got)
	}
	if got := len(RollFamily()); got != 4 {
		t.Errorf("RollFamily = %d names", got)
	}
	for _, name := range slices.Concat(RealWorld(), Breakdown(), RollFamily()) {
		if !slices.Contains(Names(), name) {
			t.Errorf("grouped name %s has no row", name)
		}
	}
}

func TestLoadCaches(t *testing.T) {
	a, err := Load("ROLL-d40", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	b := MustLoad("ROLL-d40", 0.02)
	if a != b {
		t.Errorf("Load did not cache")
	}
	c := MustLoad("ROLL-d40", 0.03)
	if a == c {
		t.Errorf("different scales must not share cache entries")
	}
	if _, err := Load("nope", 1); err == nil {
		t.Errorf("Load(nope) should fail")
	}
}

func TestRollFamilyDegreesOrdered(t *testing.T) {
	// Average degrees must increase along the family while |E| stays
	// roughly constant (the Table 2 construction).
	prevDeg := 0.0
	var firstEdges int64
	for i, name := range RollFamily() {
		g := MustLoad(name, 0.1)
		d := g.AvgDegree()
		if d <= prevDeg {
			t.Errorf("%s: avg degree %.1f not increasing (prev %.1f)", name, d, prevDeg)
		}
		prevDeg = d
		if i == 0 {
			firstEdges = g.NumEdges()
		} else {
			ratio := float64(g.NumEdges()) / float64(firstEdges)
			if ratio < 0.6 || ratio > 1.6 {
				t.Errorf("%s: |E| ratio %.2f too far from constant", name, ratio)
			}
		}
	}
}

// TestSurrogateCharacters holds each Table 1 surrogate to the adjective
// DESIGN.md §2 gives its paper graph: one measure per adjective, on which
// the surrogate beats the other three. It reads them at scale 1.0, where
// the figures are read; at 0.1 R-MAT's 2 048 vertices cap twitter-sim's
// hubs below webbase-sim's skew.
func TestSurrogateCharacters(t *testing.T) {
	for _, c := range []struct {
		adjective, name string
		measure         func(*graph.Graph) float64
	}{
		{"community-rich", "orkut-sim", clustering},
		{"sparsest", "webbase-sim", func(g *graph.Graph) float64 { return -g.AvgDegree() }},
		{"most skewed", "twitter-sim", func(g *graph.Graph) float64 { return float64(g.MaxDegree()) / g.AvgDegree() }},
		{"most edges", "friendster-sim", func(g *graph.Graph) float64 { return float64(g.NumEdges()) }},
	} {
		want := c.measure(MustLoad(c.name, 1))
		for _, other := range RealWorld() {
			if other == c.name {
				continue
			}
			if got := c.measure(MustLoad(other, 1)); got >= want {
				t.Errorf("%s should be the %s: %s measures %.3f, %s %.3f", c.name, c.adjective, c.name, want, other, got)
			}
		}
	}
}

// clustering is the mean local clustering coefficient over every 7th
// vertex of degree at least 2. The sample keeps the hubs' cost down; its
// odd stride does not line up with R-MAT's power-of-two ids, whose low
// bits set the degree.
func clustering(g *graph.Graph) float64 {
	mark := make([]bool, g.NumVertices())
	var sum float64
	var counted int
	for u := int32(0); u < g.NumVertices(); u += 7 {
		nbrs := g.Neighbors(u)
		d := len(nbrs)
		if d < 2 {
			continue
		}
		for _, v := range nbrs {
			mark[v] = true
		}
		var closed int // each triangle through u twice
		for _, v := range nbrs {
			for _, w := range g.Neighbors(v) {
				if mark[w] {
					closed++
				}
			}
		}
		for _, v := range nbrs {
			mark[v] = false
		}
		sum += float64(closed) / float64(d*(d-1))
		counted++
	}
	return sum / float64(counted)
}
