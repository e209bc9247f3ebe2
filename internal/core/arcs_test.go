package core_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"ppscan/graph"
	"ppscan/internal/core"
	"ppscan/internal/gen"
	"ppscan/internal/intersect"
	"ppscan/internal/shard"
	"ppscan/internal/simdef"
)

// TestArcWordPositions: for every range a fleet partition cuts, each arc
// (u, v) with both ends in range carries the position of (v, u) in v's run,
// and every word starts with an Unknown label.
func TestArcWordPositions(t *testing.T) {
	star := gen.Star(40)
	var edges []graph.Edge
	for u := int32(0); u < star.NumVertices(); u++ {
		for _, v := range star.Neighbors(u) {
			// Shift the star up so isolated vertices sit below, between
			// and above its vertices.
			edges = append(edges, graph.Edge{U: 3 + 2*u, V: 3 + 2*v})
		}
	}
	starIso, err := graph.FromEdges(90, edges)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"rmat":     gen.RMAT(9, 3000, .57, .19, .19, 5),
		"planted":  gen.PlantedPartition(12, 20, 0.4, 0.01, 7),
		"star-iso": starIso,
	}
	th := simdef.Threshold{Eps: simdef.MustEpsilon("0.5"), Mu: 3}
	for name, g := range graphs {
		for _, p := range []int{1, 2, 5} {
			bounds := shard.Partition(g, p)
			for s := 0; s < p; s++ {
				lo, hi := bounds[s], bounds[s+1]
				r, err := core.NewRange(g, lo, hi, th, intersect.BlockMerge, 2)
				if err != nil {
					t.Fatal(err)
				}
				words := core.ArcWords(r)
				if int64(len(words)) != g.Off[hi]-g.Off[lo] {
					t.Fatalf("%s p=%d [%d,%d): %d words for %d arcs", name, p, lo, hi, len(words), g.Off[hi]-g.Off[lo])
				}
				for u := lo; u < hi; u++ {
					for i, v := range g.Neighbors(u) {
						w := words[g.Off[u]-g.Off[lo]+int64(i)]
						if w&3 != int32(simdef.Unknown) {
							t.Fatalf("%s p=%d: arc (%d,%d) label %d before P1", name, p, u, v, w&3)
						}
						if v < lo || v >= hi {
							continue
						}
						if want := int32(slices.Index(g.Neighbors(v), u)); w>>2 != want {
							t.Fatalf("%s p=%d [%d,%d): arc (%d,%d) pos %d, want %d", name, p, lo, hi, u, v, w>>2, want)
						}
					}
				}
			}
		}
	}
}

// TestDegreeGuard: a vertex of degree 2^29 or more is refused by name
// rather than overflowing its reverse positions into the label bits.
func TestDegreeGuard(t *testing.T) {
	if err := core.CheckDegree(7, core.MaxDegree-1); err != nil {
		t.Fatalf("degree 2^29-1 refused: %v", err)
	}
	err := core.CheckDegree(7, core.MaxDegree)
	var de *core.DegreeError
	if !errors.As(err, &de) || de.Vertex != 7 || de.Degree != core.MaxDegree {
		t.Fatalf("degree 2^29: err = %v, want *DegreeError for vertex 7", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "536870912") {
		t.Errorf("error %q does not name the limit", msg)
	}
}
