package shard

import (
	"context"
	"errors"
	"net/http"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"ppscan/graph"
	"ppscan/internal/algotest"
	"ppscan/internal/core"
	"ppscan/internal/engine"
	"ppscan/internal/fault"
	"ppscan/internal/gen"
	"ppscan/internal/intersect"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
)

// runDist runs the dist-scan engine with p partitions.
func runDist(ctx context.Context, g *graph.Graph, th simdef.Threshold, p int) (*result.Result, error) {
	return runLoopback(ctx, g, th, engine.Options{Kernel: intersect.MergeEarly, Workers: p, Registry: obsv.NewNop()}, nil)
}

func TestEngineMatchesSCANQuick(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		g := algotest.RandomGraph(seed)
		th := algotest.RandomThreshold(seed)
		got, err := runDist(context.Background(), g, th, int(pRaw%7)+1)
		return err == nil && result.Equal(reference(g, th), got) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestEngineStats: the CompSim count is the workers' measured one, at most
// ppSCAN's one-worker count plus one more call per edge across a range
// boundary (both owners may compute it).
func TestEngineStats(t *testing.T) {
	g := algotest.RandomGraph(117)
	th := mustTh(t, "0.5", 3)
	r, err := runDist(context.Background(), g, th, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Workers != 3 || r.Stats.Total <= 0 {
		t.Errorf("stats = %+v", r.Stats)
	}
	single, err := core.Run(context.Background(), g, th, engine.Options{Kernel: intersect.MergeEarly, Workers: 1, Registry: obsv.NewNop()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bounds := Partition(g, 3)
	owner := func(u int32) int { return sort.Search(3, func(s int) bool { return u < bounds[s+1] }) }
	var boundary int64
	for u := int32(0); u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v && owner(u) != owner(v) {
				boundary++
			}
		}
	}
	if c, most := r.Stats.CompSimCalls, single.Stats.CompSimCalls+boundary; c <= 0 || c > most {
		t.Errorf("calls = %d, want in (0, %d]: ppSCAN's %d plus %d boundary edges", c, most, single.Stats.CompSimCalls, boundary)
	}
	if r.Stats.CommBytes <= 0 {
		t.Errorf("comm bytes = %d, want the measured gob traffic", r.Stats.CommBytes)
	}
}

func TestEngineDefaultsAndDegenerate(t *testing.T) {
	th := mustTh(t, "0.5", 2)
	empty := algotest.Corpus()[0].G
	r, err := runDist(context.Background(), empty, th, 0) // default partitions
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Roles) != 0 {
		t.Errorf("empty graph roles = %v", r.Roles)
	}
	// More partitions than vertices.
	triangle := algotest.Corpus()[3].G
	r, err = runDist(context.Background(), triangle, th, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := algotest.CheckGroundTruth(triangle, r, th); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionBalance(t *testing.T) {
	g := algotest.RandomGraph(115)
	p := 4
	bounds := Partition(g, p)
	if bounds[0] != 0 || bounds[p] != g.NumVertices() {
		t.Fatalf("bounds do not cover the vertex range: %v", bounds)
	}
	if !slices.IsSorted(bounds) {
		t.Fatalf("bounds not monotone: %v", bounds)
	}
	// Degree-sum balance within a reasonable factor.
	sums := make([]int64, p)
	for w := range sums {
		for u := bounds[w]; u < bounds[w+1]; u++ {
			sums[w] += int64(g.Degree(u)) + 1
		}
	}
	if lo, hi := slices.Min(sums), slices.Max(sums); lo > 0 && hi > 4*lo {
		t.Errorf("partition imbalance: %v", sums)
	}
}

// checkAborted asserts the engine's abort contract: a *result.PartialError
// naming the round in flight, with the engine's own stats label.
func checkAborted(t *testing.T, res *result.Result, err, cause error) {
	t.Helper()
	if res != nil {
		t.Fatalf("aborted run returned a result: %+v", res.Stats)
	}
	var pe *result.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("aborted run returned %T (%v), want *result.PartialError", err, err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("errors.Is(%v, %v) = false", err, cause)
	}
	if !slices.Contains(Rounds, pe.Phase) {
		t.Errorf("aborted phase %q is not one of the rounds %v", pe.Phase, Rounds)
	}
	if pe.Stats.Algorithm != "dist-scan(p=4)" || pe.Stats.Workers != 4 || pe.Stats.Total <= 0 {
		t.Errorf("partial stats = %+v", pe.Stats)
	}
}

func TestEngineCancelMidRound(t *testing.T) {
	g := gen.Roll(60_000, 32, 11)
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(2*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()
	res, err := runDist(ctx, g, mustTh(t, "0.5", 4), 4)
	checkAborted(t, res, err, context.Canceled)
}

func TestEngineDeadline(t *testing.T) {
	g := gen.Roll(60_000, 32, 12)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res, err := runDist(ctx, g, mustTh(t, "0.6", 5), 4)
	checkAborted(t, res, err, context.DeadlineExceeded)
}

// TestWorkerPanicAnswers500 pins the status of a contained sim-task panic:
// it is the worker's fault, so 500 internal_error, not 400 bad_request.
func TestWorkerPanicAnswers500(t *testing.T) {
	overBoth(t, func(t *testing.T, transport string) {
		t.Cleanup(fault.Disable)
		g := algotest.RandomGraph(59)
		f := newFleet(t, transport, g, 1)
		c, err := NewCoordinator(g, Options{
			Shards: f.addrs, Client: f.client, MaxAttempts: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		fault.Enable(&fault.Plan{Rules: []fault.Rule{
			{Point: fault.WorkerTask, Action: fault.ActPanic, Start: 1, Count: 1},
		}})
		_, err = c.Run(context.Background(), "0.4", 3)
		fault.Disable()
		var rej *ShardRejectedError
		if !errors.As(err, &rej) {
			t.Fatalf("want ShardRejectedError from a worker that contained a panic, got %v", err)
		}
		if rej.Status != http.StatusInternalServerError || rej.Kind != rejectInternalErr {
			t.Errorf("rejection = %d %s, want 500 %s", rej.Status, rej.Kind, rejectInternalErr)
		}
		// The failed pass left no torn state behind: the next query is exact.
		got, err := c.Run(context.Background(), "0.4", 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := result.Equal(reference(g, mustTh(t, "0.4", 3)), got); err != nil {
			t.Fatal(err)
		}
	})
}
