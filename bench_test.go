// Benchmarks of the facade on a fixed workload: one per algorithm and the
// GS*-Index build/query trade-off. No table, figure or ablation of the
// paper's evaluation is benchmarked here — `go run ./cmd/experiments -run
// <id>` is the only producer of those. Kernel-level micro benchmarks live in
// internal/intersect.
package ppscan_test

import (
	"testing"

	"ppscan"
	"ppscan/graph"
	"ppscan/internal/dataset"
)

// --- Per-algorithm benches on a fixed workload ---------------------------

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	return dataset.MustLoad("webbase-sim", 0.1)
}

func benchAlgo(b *testing.B, algo ppscan.Algorithm) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ppscan.Run(g, ppscan.Options{Algorithm: algo, Epsilon: "0.2", Mu: 5})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Roles) == 0 {
			b.Fatal("empty result")
		}
	}
	b.SetBytes(g.NumDirectedEdges() * 4)
}

func BenchmarkAlgoSCAN(b *testing.B)    { benchAlgo(b, ppscan.AlgoSCAN) }
func BenchmarkAlgoPSCAN(b *testing.B)   { benchAlgo(b, ppscan.AlgoPSCAN) }
func BenchmarkAlgoPPSCAN(b *testing.B)  { benchAlgo(b, ppscan.AlgoPPSCAN) }
func BenchmarkAlgoSCANXP(b *testing.B)  { benchAlgo(b, ppscan.AlgoSCANXP) }
func BenchmarkAlgoAnySCAN(b *testing.B) { benchAlgo(b, ppscan.AlgoAnySCAN) }

// GS*-Index: one exhaustive build vs per-query cost (the §3.3 trade-off).
func BenchmarkIndexBuildVsQuery(b *testing.B) {
	g := benchGraph(b)
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ppscan.BuildIndex(g, 0)
		}
	})
	ix := ppscan.BuildIndex(g, 0)
	b.Run("query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.Query("0.2", 5); err != nil {
				b.Fatal(err)
			}
		}
	})
}
