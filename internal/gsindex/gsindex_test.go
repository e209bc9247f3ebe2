package gsindex

import (
	"testing"
	"testing/quick"

	"ppscan/internal/algotest"
	"ppscan/internal/engine"
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

func TestBuildWorkerIndependence(t *testing.T) {
	g := algotest.RandomGraph(85)
	a := Build(g, BuildOptions{Workers: 1})
	b := Build(g, BuildOptions{Workers: 7, DegreeThreshold: 8})
	for i := range a.cn {
		if a.cn[i] != b.cn[i] {
			t.Fatalf("cn differs at %d", i)
		}
	}
	// Orders may differ only among exactly-equal similarity ties; verify
	// queries agree instead.
	ra, _ := a.Query("0.4", 2)
	rb, _ := b.Query("0.4", 2)
	if err := result.Equal(ra, rb); err != nil {
		t.Fatalf("worker count changed query result: %v", err)
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	g := algotest.RandomGraph(87)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(g, BuildOptions{})
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
