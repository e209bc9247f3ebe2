package anyscan

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"ppscan/graph"
	"ppscan/internal/algotest"
	"ppscan/internal/engine"
	"ppscan/internal/fault"
	"ppscan/internal/intersect"
	"ppscan/internal/result"
	"ppscan/internal/scan"
	"ppscan/internal/simdef"
)

// run is Run with the default kernel on bs-vertex blocks (0 keeps the
// package's block size), for inputs that must not fail.
func run(t *testing.T, g *graph.Graph, th simdef.Threshold, workers int, bs int32) *result.Result {
	t.Helper()
	if bs > 0 {
		defer func(old int32) { blockSize = old }(blockSize)
		blockSize = bs
	}
	r, err := Run(context.Background(), g, th, engine.Options{Kernel: intersect.MergeEarly, Workers: workers}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

func TestGroundTruthCorpus(t *testing.T) {
	for _, tc := range algotest.Corpus() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for _, th := range algotest.Params() {
				r := run(t, tc.G, th, 4, 32)
				if err := algotest.CheckGroundTruth(tc.G, r, th); err != nil {
					t.Fatalf("%s: %v", tc.Name, err)
				}
			}
		})
	}
}

func TestMatchesSCAN(t *testing.T) {
	f := func(seed int64, wRaw, bRaw uint8) bool {
		g := algotest.RandomGraph(seed)
		th := algotest.RandomThreshold(seed)
		want := scan.Run(g, th, engine.Options{Kernel: intersect.Merge}, scan.Options{}, nil)
		got := run(t, g, th, int(wRaw%6)+1, int32(bRaw%100)+1)
		return result.Equal(want, got) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBlockSizeIndependence(t *testing.T) {
	g := algotest.RandomGraph(61)
	th, _ := simdef.NewThreshold("0.5", 3)
	base := run(t, g, th, 3, 1)
	for _, bs := range []int32{2, 17, 1 << 20} {
		r := run(t, g, th, 3, bs)
		if err := result.Equal(base, r); err != nil {
			t.Errorf("block size %d changes output: %v", bs, err)
		}
	}
}

func TestRedundantWorkload(t *testing.T) {
	// The surrogate reproduces anySCAN's redundancy: every directed edge is
	// computed in core checking (2|E|) plus core->non-core edges again in
	// finalization, so calls >= 2|E|, strictly more than ppSCAN's <= |E|.
	g := algotest.RandomGraph(63)
	th, _ := simdef.NewThreshold("0.5", 5)
	r := run(t, g, th, 2, 0)
	if r.Stats.CompSimCalls < g.NumDirectedEdges() {
		t.Errorf("CompSimCalls = %d, want >= %d", r.Stats.CompSimCalls, g.NumDirectedEdges())
	}
}

func TestStats(t *testing.T) {
	g := algotest.RandomGraph(65)
	th, _ := simdef.NewThreshold("0.4", 2)
	r := run(t, g, th, 2, 0)
	if r.Stats.Algorithm != "anySCAN" || r.Stats.Workers != 2 || r.Stats.Total <= 0 {
		t.Errorf("stats = %+v", r.Stats)
	}
}

// TestWorkerPanicContained: a panic in a block task — anySCAN is reachable
// from GET /cluster?algo=anyscan, so it must not kill the process — comes
// back as a typed error naming the worker, from the core-checking blocks
// and from the finalization pass alike, and the next run on the same
// workspace pool is exact.
func TestWorkerPanicContained(t *testing.T) {
	t.Cleanup(fault.Disable)
	g := algotest.RandomGraph(67)
	th, _ := simdef.NewThreshold("0.5", 3)
	pool := engine.NewPool(1)
	runPooled := func() (*result.Result, error) {
		ws := pool.Acquire()
		defer pool.Release(ws)
		return engine.Run(context.Background(), "anyscan", "", g, th, engine.Options{Workers: 2}, ws)
	}
	// One block of 4096 covers the graph and two workers cut it into two
	// tasks (hits 1 and 2), so hit 3 is the finalization pass's first.
	for _, rule := range []fault.Rule{
		{Point: fault.WorkerTask, Action: fault.ActPanic, Start: 1, Count: 1},
		{Point: fault.WorkerTask, Action: fault.ActPanic, Start: 3, Count: 1},
	} {
		fault.Enable(&fault.Plan{Rules: []fault.Rule{rule}})
		res, err := runPooled()
		fault.Disable()
		var wpe *result.WorkerPanicError
		if res != nil || !errors.As(err, &wpe) {
			t.Fatalf("rule %+v: got (%v, %v), want a *result.WorkerPanicError", rule, res, err)
		}
		if wpe.Worker < 0 || wpe.Worker >= 2 || len(wpe.Stack) == 0 {
			t.Errorf("rule %+v: panic error %+v lacks worker or stack", rule, wpe)
		}
		got, err := runPooled()
		if err != nil {
			t.Fatalf("run after contained panic: %v", err)
		}
		if err := result.Equal(scan.Run(g, th, engine.Options{Kernel: intersect.Merge}, scan.Options{}, nil), got); err != nil {
			t.Errorf("run after contained panic differs from SCAN: %v", err)
		}
	}
}
