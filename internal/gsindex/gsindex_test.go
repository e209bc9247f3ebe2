package gsindex

import (
	"context"
	"fmt"
	"math"
	"slices"
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
				got, err := ix.QueryWorkspace(context.Background(), th.Eps.String(), th.Mu, nil)
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
		got, err := ix.QueryWorkspace(context.Background(), th.Eps.String(), th.Mu, nil)
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
			got, err := ix.QueryWorkspace(context.Background(), eps, mu, nil)
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
	if _, err := ix.QueryWorkspace(context.Background(), "2", 5, nil); err == nil {
		t.Errorf("eps=2 should fail")
	}
	if _, err := ix.QueryWorkspace(context.Background(), "0.5", 0, nil); err == nil {
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

// BenchmarkIndexQuery times one extraction as a server miss runs it: on
// the benchmark's community graph (1000 planted communities of 50, seed 1)
// with a two-worker index and one pooled workspace, round-robin over the
// 24 serving keys ε ∈ {0.3, 0.4, 0.45, 0.5, 0.55, 0.6} × µ ∈ {2, 4, 6, 8}.
func BenchmarkIndexQuery(b *testing.B) {
	g := gen.PlantedPartition(1000, 50, 0.5, 3/50000., 1)
	ix := Build(g, BuildOptions{Workers: 2})
	ws := engine.NewWorkspace()
	defer ws.Close()
	type key struct {
		eps string
		mu  int32
	}
	var keys []key
	for _, eps := range []string{"0.3", "0.4", "0.45", "0.5", "0.55", "0.6"} {
		for _, mu := range []int32{2, 4, 6, 8} {
			keys = append(keys, key{eps, mu})
		}
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if _, err := ix.QueryWorkspace(ctx, k.eps, k.mu, ws); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSimilarEndMatchesScan: on a planted partition and a star, for every
// vertex, every start k up to the true end and every ε that can move an
// end — each distinct σ of the graph that is rational (the σ = ε boundary,
// where the arc is similar), plus a value between each two consecutive σ,
// below the least and above the greatest — similarEnd equals a linear scan
// of the neighbour order by simdef's Pred.
func TestSimilarEndMatchesScan(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"planted", gen.PlantedPartition(6, 12, 0.6, 0.05, 5)},
		{"star", gen.Star(8)}, // every arc has σ = 2/√(8·2) = 1/2
	} {
		ix := Build(tc.g, BuildOptions{Workers: 2})
		grid, exact := similarityGrid(ix)
		if exact == 0 {
			t.Fatalf("%s: no σ is rational, so σ = ε is never tested", tc.name)
		}
		for _, eps := range grid {
			for u := int32(0); u < tc.g.NumVertices(); u++ {
				off, du := ix.at[u], tc.g.Degree(u)
				want := int32(0)
				for ; want < du; want++ {
					e := off + int64(want)
					if !eps.Pred(ix.cn[e], du, tc.g.Degree(ix.nbr[e])) {
						break
					}
				}
				for k := int32(0); k <= want; k++ {
					if got := ix.similarEnd(eps, u, k); got != want {
						t.Fatalf("%s: similarEnd(ε=%s, u=%d, k=%d) = %d, the scan ends at %d of %d", tc.name, eps, u, k, got, want, du)
					}
				}
			}
		}
	}
}

// similarityGrid returns the ε values that can move a similar prefix's end
// on ix's graph, and how many of them are some arc's σ exactly.
func similarityGrid(ix *Index) (grid []simdef.Epsilon, exact int) {
	g := ix.g
	type sim struct {
		cn int32
		p  uint64
	}
	var sims []sim
	for u := int32(0); u < g.NumVertices(); u++ {
		nbr, cn := ix.run(u)
		for k, v := range nbr {
			sims = append(sims, sim{cn[k], (uint64(g.Degree(u)) + 1) * (uint64(g.Degree(v)) + 1)})
		}
	}
	slices.SortFunc(sims, func(a, b sim) int { return simdef.CompareSimValues(a.cn, a.p, b.cn, b.p) })
	sims = slices.CompactFunc(sims, func(a, b sim) bool { return simdef.CompareSimValues(a.cn, a.p, b.cn, b.p) == 0 })
	value := func(s sim) float64 { return float64(s.cn) / math.Sqrt(float64(s.p)) }
	approx := func(x float64) simdef.Epsilon {
		return simdef.MustEpsilon(fmt.Sprintf("%d/1000000000", int64(math.Round(x*1e9))))
	}
	grid = append(grid, approx(value(sims[0])/2))
	for i, s := range sims {
		// σ² = cn²/p is the square of a rational iff both sides of the
		// reduced fraction are perfect squares.
		num, den := uint64(s.cn)*uint64(s.cn), s.p
		d := gcdU64(num, den)
		if a, b := isqrt(num/d), isqrt(den/d); a*a == num/d && b*b == den/d {
			grid = append(grid, simdef.MustEpsilon(fmt.Sprintf("%d/%d", a, b)))
			exact++
		}
		next := 1.0
		if i+1 < len(sims) {
			next = value(sims[i+1])
		}
		if mid := (value(s) + next) / 2; mid > value(s) {
			grid = append(grid, approx(mid))
		}
	}
	return grid, exact
}

func gcdU64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func isqrt(x uint64) uint64 {
	r := uint64(math.Sqrt(float64(x)))
	for r*r > x {
		r--
	}
	for (r+1)*(r+1) <= x {
		r++
	}
	return r
}
