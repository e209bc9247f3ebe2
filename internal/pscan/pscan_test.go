package pscan

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

func TestGroundTruthCorpus(t *testing.T) {
	for _, tc := range algotest.Corpus() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for _, th := range algotest.Params() {
				r := Run(tc.G, th, engine.Options{Kernel: intersect.MergeEarly}, Options{}, nil)
				if err := algotest.CheckGroundTruth(tc.G, r, th); err != nil {
					t.Fatalf("%s: %v", tc.Name, err)
				}
			}
		})
	}
}

func TestMatchesSCANCorpus(t *testing.T) {
	for _, tc := range algotest.Corpus() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for _, th := range algotest.Params() {
				want := scan.Run(tc.G, th, engine.Options{Kernel: intersect.Merge}, scan.Options{}, nil)
				got := Run(tc.G, th, engine.Options{Kernel: intersect.MergeEarly}, Options{}, nil)
				if err := result.Equal(want, got); err != nil {
					t.Fatalf("%s eps=%s mu=%d: %v", tc.Name, th.Eps, th.Mu, err)
				}
			}
		})
	}
}

// Pruning must never *increase* the number of similarity computations
// beyond SCAN's per-undirected-edge count: pSCAN computes each undirected
// edge at most once, so calls <= |E| <= SCAN's 2|E|.
func TestPruningReducesInvocations(t *testing.T) {
	for _, tc := range algotest.Corpus() {
		if tc.G.NumEdges() == 0 {
			continue
		}
		th, _ := simdef.NewThreshold("0.5", 5)
		r := Run(tc.G, th, engine.Options{Kernel: intersect.MergeEarly}, Options{}, nil)
		if r.Stats.CompSimCalls > tc.G.NumEdges() {
			t.Errorf("%s: %d CompSim calls > |E| = %d (similarity reuse broken)",
				tc.Name, r.Stats.CompSimCalls, tc.G.NumEdges())
		}
		sc := scan.Run(tc.G, th, engine.Options{Kernel: intersect.Merge}, scan.Options{}, nil)
		if r.Stats.CompSimCalls > sc.Stats.CompSimCalls {
			t.Errorf("%s: pSCAN did more similarity work than SCAN (%d > %d)",
				tc.Name, r.Stats.CompSimCalls, sc.Stats.CompSimCalls)
		}
	}
}

func TestKernelIndependence(t *testing.T) {
	g := algotest.RandomGraph(11)
	th, _ := simdef.NewThreshold("0.4", 3)
	base := Run(g, th, engine.Options{Kernel: intersect.MergeEarly}, Options{}, nil)
	for _, k := range intersect.Kinds() {
		r := Run(g, th, engine.Options{Kernel: k}, Options{}, nil)
		if err := result.Equal(base, r); err != nil {
			t.Errorf("kernel %v changes pSCAN output: %v", k, err)
		}
	}
}

// Property: pSCAN equals SCAN on random graphs and random parameters.
func TestEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := algotest.RandomGraph(seed)
		th := algotest.RandomThreshold(seed)
		want := scan.Run(g, th, engine.Options{Kernel: intersect.Merge}, scan.Options{}, nil)
		got := Run(g, th, engine.Options{Kernel: intersect.MergeEarly}, Options{}, nil)
		return result.Equal(want, got) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Ablation (§4.1): dropping the ed-priority order must not change results,
// and its effect on the similarity workload must be small.
func TestOrderAblation(t *testing.T) {
	for _, seed := range []int64{101, 102, 103} {
		g := algotest.RandomGraph(seed)
		if g.NumEdges() < 50 {
			continue
		}
		th, _ := simdef.NewThreshold("0.4", 5)
		base := Run(g, th, engine.Options{Kernel: intersect.MergeEarly}, Options{Order: OrderEffectiveDegree}, nil)
		for _, order := range []Order{OrderStaticDegree, OrderNatural} {
			r := Run(g, th, engine.Options{Kernel: intersect.MergeEarly}, Options{Order: order}, nil)
			if err := result.Equal(base, r); err != nil {
				t.Fatalf("order %v changes output: %v", order, err)
			}
			// "Negligible effect on workload reduction": within 2x.
			if r.Stats.CompSimCalls > 2*base.Stats.CompSimCalls+10 {
				t.Errorf("order %v workload %d vs ed-order %d",
					order, r.Stats.CompSimCalls, base.Stats.CompSimCalls)
			}
		}
	}
}

func TestOrderString(t *testing.T) {
	for _, o := range []Order{OrderEffectiveDegree, OrderStaticDegree, OrderNatural, Order(9)} {
		if o.String() == "" {
			t.Errorf("order %d has no name", int(o))
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	g := algotest.RandomGraph(13)
	th, _ := simdef.NewThreshold("0.3", 2)
	r := Run(g, th, engine.Options{Kernel: intersect.MergeEarly}, Options{Breakdown: true}, nil)
	if r.Stats.Algorithm != "pSCAN" || r.Stats.Workers != 1 {
		t.Errorf("stats = %+v", r.Stats)
	}
	if r.Stats.Total <= 0 {
		t.Errorf("total time missing")
	}
	if r.Stats.SimilarityTime <= 0 {
		t.Errorf("similarity breakdown time missing with Breakdown: true")
	}
	if r.Stats.ReductionTime <= 0 {
		t.Errorf("reduction breakdown time missing with Breakdown: true")
	}
	// Without Breakdown, timers must stay zero (no instrumentation cost).
	r2 := Run(g, th, engine.Options{Kernel: intersect.MergeEarly}, Options{}, nil)
	if r2.Stats.SimilarityTime != 0 || r2.Stats.ReductionTime != 0 {
		t.Errorf("breakdown timers populated without Breakdown option")
	}
}
