package scanpp

import (
	"context"
	"testing"
	"testing/quick"

	"ppscan/graph"
	"ppscan/internal/algotest"
	"ppscan/internal/engine"
	"ppscan/internal/intersect"
	"ppscan/internal/result"
	"ppscan/internal/scan"
	"ppscan/internal/simdef"
)

// run is Run, which cannot fail, on kernel k.
func run(g *graph.Graph, th simdef.Threshold, k intersect.Kind) *result.Result {
	r, _ := Run(context.Background(), g, th, engine.Options{Kernel: k}, nil)
	return r
}

func TestGroundTruthCorpus(t *testing.T) {
	for _, tc := range algotest.Corpus() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for _, th := range algotest.Params() {
				r := run(tc.G, th, intersect.MergeEarly)
				if err := algotest.CheckGroundTruth(tc.G, r, th); err != nil {
					t.Fatalf("%s: %v", tc.Name, err)
				}
			}
		})
	}
}

func TestMatchesSCANQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := algotest.RandomGraph(seed)
		th := algotest.RandomThreshold(seed)
		want := scan.Run(g, th, engine.Options{Kernel: intersect.Merge}, scan.Options{}, nil)
		got := run(g, th, intersect.MergeEarly)
		return result.Equal(want, got) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSimilaritySharing(t *testing.T) {
	// SCAN++ shares similarities: at most one computation per undirected
	// edge, but (unlike pSCAN) no pruning — on a connected dense graph it
	// computes essentially every edge regardless of eps.
	g := algotest.RandomGraph(41)
	for _, eps := range []string{"0.2", "0.8"} {
		th, _ := simdef.NewThreshold(eps, 5)
		r := run(g, th, intersect.MergeEarly)
		if r.Stats.CompSimCalls > g.NumEdges() {
			t.Errorf("eps=%s: %d calls > |E| = %d (sharing broken)",
				eps, r.Stats.CompSimCalls, g.NumEdges())
		}
	}
}

func TestStats(t *testing.T) {
	g := algotest.RandomGraph(43)
	th, _ := simdef.NewThreshold("0.4", 3)
	r := run(g, th, intersect.Merge)
	if r.Stats.Algorithm != "SCAN++" || r.Stats.Workers != 1 || r.Stats.Total <= 0 {
		t.Errorf("stats = %+v", r.Stats)
	}
}
