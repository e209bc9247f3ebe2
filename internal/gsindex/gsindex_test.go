package gsindex

import (
	"testing"
	"testing/quick"

	"ppscan/graph"
	"ppscan/internal/algotest"
	"ppscan/internal/engine"
	"ppscan/internal/gen"
	"ppscan/internal/intersect"
	"ppscan/internal/result"
	"ppscan/internal/scan"
	"ppscan/internal/simdef"
)

func TestIndexValidatesOnCorpus(t *testing.T) {
	for _, tc := range algotest.Corpus() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			ix := Build(tc.G, BuildOptions{Workers: 3})
			if err := ix.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestQueryMatchesSCANCorpus(t *testing.T) {
	for _, tc := range algotest.Corpus() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			ix := Build(tc.G, BuildOptions{Workers: 2})
			for _, th := range algotest.Params() {
				want := scan.Run(tc.G, th, engine.Options{Kernel: intersect.Merge}, scan.Options{}, nil)
				got, err := ix.Query(th.Eps.String(), th.Mu)
				if err != nil {
					t.Fatal(err)
				}
				if err := result.Equal(want, got); err != nil {
					t.Fatalf("%s eps=%s mu=%d: %v", tc.Name, th.Eps, th.Mu, err)
				}
			}
		})
	}
}

func TestQueryMatchesQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := algotest.RandomGraph(seed)
		th := algotest.RandomThreshold(seed)
		ix := Build(g, BuildOptions{Workers: 2})
		want := scan.Run(g, th, engine.Options{Kernel: intersect.Merge}, scan.Options{}, nil)
		got, err := ix.Query(th.Eps.String(), th.Mu)
		if err != nil {
			return false
		}
		return result.Equal(want, got) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestOneBuildManyQueries(t *testing.T) {
	// The index's purpose: amortize one build over a parameter sweep.
	g := algotest.RandomGraph(77)
	ix := Build(g, BuildOptions{})
	if ix.BuildTime() <= 0 {
		t.Errorf("build time not recorded")
	}
	if ix.MemoryBytes() != g.NumDirectedEdges()*8 {
		t.Errorf("memory = %d, want %d", ix.MemoryBytes(), g.NumDirectedEdges()*8)
	}
	if ix.Graph() != g {
		t.Errorf("Graph() lost the graph")
	}
	for _, eps := range []string{"0.1", "0.3", "0.5", "0.7", "0.9"} {
		for _, mu := range []int32{1, 2, 4, 8} {
			th, _ := simdef.NewThreshold(eps, mu)
			want := scan.Run(g, th, engine.Options{Kernel: intersect.Merge}, scan.Options{}, nil)
			got, err := ix.Query(eps, mu)
			if err != nil {
				t.Fatal(err)
			}
			if err := result.Equal(want, got); err != nil {
				t.Fatalf("eps=%s mu=%d: %v", eps, mu, err)
			}
		}
	}
}

func TestIsCoreAgainstDefinition(t *testing.T) {
	g := algotest.RandomGraph(81)
	ix := Build(g, BuildOptions{})
	for _, eps := range []string{"0.2", "0.5", "0.8"} {
		th, _ := simdef.NewThreshold(eps, 3)
		r := scan.Run(g, th, engine.Options{Kernel: intersect.Merge}, scan.Options{}, nil)
		for u := int32(0); u < g.NumVertices(); u++ {
			want := r.Roles[u] == result.RoleCore
			if got := ix.IsCore(th.Eps, 3, u); got != want {
				t.Fatalf("IsCore(%s, 3, %d) = %v, want %v", eps, u, got, want)
			}
		}
	}
}

func TestQueryRejectsBadParams(t *testing.T) {
	g := algotest.RandomGraph(83)
	ix := Build(g, BuildOptions{})
	if _, err := ix.Query("2", 5); err == nil {
		t.Errorf("eps=2 should fail")
	}
	if _, err := ix.Query("0.5", 0); err == nil {
		t.Errorf("mu=0 should fail")
	}
}

// TestBuildWorkerIndependence: the run comparator is a strict total
// order and every count is exact, so the build is bit-identical at any
// crew size and task granularity — on a hub-heavy RMAT, a planted
// partition and a 6-regular ring, where every rank tie falls to the id.
func TestBuildWorkerIndependence(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat":    gen.RMAT(10, 8000, .57, .19, .19, 85),
		"planted": gen.PlantedPartition(20, 30, 0.5, 0.01, 85),
		"ring":    gen.WattsStrogatz(400, 6, 0, 85),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			want := Build(g, BuildOptions{Workers: 1})
			if err := want.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 7} {
				for _, threshold := range []int64{8, 0} {
					requireBitIdentical(t, Build(g, BuildOptions{Workers: workers, DegreeThreshold: threshold}), want)
				}
			}
		})
	}
}

// builtIndex keeps BenchmarkIndexBuild's result live.
var builtIndex *Index

// BenchmarkIndexBuild builds two graphs sized for about 100 ms a build on
// a two-core host: a planted partition (short runs, many triangles) and an
// RMAT (hubs, long runs, few triangles).
func BenchmarkIndexBuild(b *testing.B) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"planted", gen.PlantedPartition(750, 50, 0.5, 3.0/(750*50), 87)},
		{"rmat", gen.RMAT(15, 320_000, .57, .19, .19, 87)},
	}
	for _, tc := range graphs {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				builtIndex = Build(tc.g, BuildOptions{})
			}
		})
	}
}

func BenchmarkIndexQuery(b *testing.B) {
	g := algotest.RandomGraph(87)
	ix := Build(g, BuildOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Query("0.4", 3); err != nil {
			b.Fatal(err)
		}
	}
}
