// Benchmarks of the facade on a fixed workload: one per algorithm, the
// GS*-Index build/query trade-off, and the observability overhead of the
// core engine. No table, figure or ablation of the paper's evaluation is
// benchmarked here — `go run ./cmd/experiments -run <id>` is the only
// producer of those. Kernel-level micro benchmarks live in
// internal/intersect.
package ppscan_test

import (
	"context"
	"testing"

	"ppscan"
	"ppscan/graph"
	"ppscan/internal/core"
	"ppscan/internal/dataset"
	"ppscan/internal/engine"
	"ppscan/internal/intersect"
	"ppscan/internal/obsv"
	"ppscan/internal/simdef"
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
func BenchmarkAlgoSCANPP(b *testing.B)  { benchAlgo(b, ppscan.AlgoSCANPP) }

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

// --- Observability overhead ----------------------------------------------

func mustTh(b *testing.B, eps string, mu int32) simdef.Threshold {
	b.Helper()
	th, err := simdef.NewThreshold(eps, mu)
	if err != nil {
		b.Fatal(err)
	}
	return th
}

// Observability overhead: a fully instrumented run (live registry —
// per-worker kernel telemetry, scheduler histograms, registry publication)
// vs a nop registry that disables collection. The instrumented/baseline
// ratio is the number quoted in EXPERIMENTS.md; the design target is < 2%.
func BenchmarkObsvOverhead(b *testing.B) {
	g := benchGraph(b)
	th := mustTh(b, "0.2", 5)
	b.Run("instrumented", func(b *testing.B) {
		reg := obsv.New()
		for i := 0; i < b.N; i++ {
			core.Run(context.Background(), g, th, engine.Options{Kernel: intersect.PivotBlock16, Registry: reg}, nil)
		}
	})
	b.Run("nop", func(b *testing.B) {
		reg := obsv.NewNop()
		for i := 0; i < b.N; i++ {
			core.Run(context.Background(), g, th, engine.Options{Kernel: intersect.PivotBlock16, Registry: reg}, nil)
		}
	})
}
