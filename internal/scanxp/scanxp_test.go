package scanxp

import (
	"context"
	"testing"
	"testing/quick"

	"ppscan/internal/algotest"
	"ppscan/internal/engine"
	"ppscan/internal/intersect"
	"ppscan/internal/result"
	"ppscan/internal/scan"
	"ppscan/internal/simdef"
)

func TestGroundTruthCorpus(t *testing.T) {
	for _, tc := range algotest.Corpus() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for _, th := range algotest.Params() {
				r, err := Run(context.Background(), tc.G, th, engine.Options{Kernel: intersect.Merge, Workers: 4}, nil)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if err := algotest.CheckGroundTruth(tc.G, r, th); err != nil {
					t.Fatalf("%s: %v", tc.Name, err)
				}
			}
		})
	}
}

func TestMatchesSCAN(t *testing.T) {
	f := func(seed int64, wRaw uint8) bool {
		g := algotest.RandomGraph(seed)
		th := algotest.RandomThreshold(seed)
		want := scan.Run(g, th, engine.Options{Kernel: intersect.Merge}, scan.Options{}, nil)
		got, err := Run(context.Background(), g, th, engine.Options{Kernel: intersect.Merge, Workers: int(wRaw%6) + 1}, nil)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return result.Equal(want, got) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestExhaustiveWorkload(t *testing.T) {
	// SCAN-XP computes every directed edge: exactly 2|E| invocations,
	// independent of eps (no pruning) — the paper's defining property.
	g := algotest.RandomGraph(51)
	for _, eps := range []string{"0.2", "0.8"} {
		th, _ := simdef.NewThreshold(eps, 5)
		r, err := Run(context.Background(), g, th, engine.Options{Kernel: intersect.Merge, Workers: 3}, nil)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if r.Stats.CompSimCalls != g.NumDirectedEdges() {
			t.Errorf("eps=%s: CompSimCalls = %d, want %d", eps, r.Stats.CompSimCalls, g.NumDirectedEdges())
		}
	}
}

func TestWorkerIndependence(t *testing.T) {
	g := algotest.RandomGraph(53)
	th, _ := simdef.NewThreshold("0.4", 2)
	base, err := Run(context.Background(), g, th, engine.Options{Workers: 1}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, w := range []int{2, 7, 32} {
		r, err := Run(context.Background(), g, th, engine.Options{Workers: w}, nil)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := result.Equal(base, r); err != nil {
			t.Errorf("workers=%d changes output: %v", w, err)
		}
	}
}

func TestStats(t *testing.T) {
	g := algotest.RandomGraph(55)
	th, _ := simdef.NewThreshold("0.4", 2)
	r, err := Run(context.Background(), g, th, engine.Options{Workers: 2}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Stats.Algorithm != "SCAN-XP" || r.Stats.Workers != 2 || r.Stats.Total <= 0 {
		t.Errorf("stats = %+v", r.Stats)
	}
}
