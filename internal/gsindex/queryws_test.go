package gsindex

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"ppscan/graph"
	"ppscan/internal/algotest"
	"ppscan/internal/engine"
	"ppscan/internal/fault"
	"ppscan/internal/gen"
	"ppscan/internal/intersect"
	"ppscan/internal/pscan"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
	"ppscan/internal/unionfind"
)

// TestQueryWorkspaceMatchesQuery proves the extraction exact across the
// corpus, the parameter grid and indexes built at 1, 2 and 7 workers (the
// crew size it extracts with): every answer satisfies the SCAN
// definitions, equals pSCAN's, and emits NonCore already sorted — all
// with ONE workspace reused for every query, the sweep serving pattern.
func TestQueryWorkspaceMatchesQuery(t *testing.T) {
	ws := engine.NewWorkspace()
	defer ws.Close()
	for _, tc := range algotest.Corpus() {
		for _, workers := range []int{1, 2, 7} {
			ix := Build(tc.G, BuildOptions{Workers: workers})
			for _, th := range algotest.Params() {
				got, err := ix.QueryWorkspace(context.Background(), th.Eps.String(), th.Mu, ws)
				if err != nil {
					t.Fatal(err)
				}
				if got.Stats.Workers != workers {
					t.Errorf("Stats.Workers = %d, want the build's %d", got.Stats.Workers, workers)
				}
				requireExact(t, tc.G, got, th)
				want := pscan.Run(tc.G, th, engine.Options{Kernel: intersect.Merge}, pscan.Options{}, nil)
				if err := result.Equal(want, got); err != nil {
					t.Fatalf("%s workers=%d eps=%s mu=%d: %v", tc.Name, workers, th.Eps, th.Mu, err)
				}
			}
		}
	}
}

// TestSweepWorkspaceMatchesQuery: across the corpus, µ ∈ {1, 2, 5} and
// indexes built at 1, 2 and 7 workers, every step of a sweep over the
// parameter grid's ε from the largest down equals a fresh QueryWorkspace
// at that ε, so carrying the union-find and the cursors across steps
// changes no answer. A grid that rises is refused.
func TestSweepWorkspaceMatchesQuery(t *testing.T) {
	var grid []simdef.Epsilon
	for _, e := range []string{"1", "0.8", "0.65", "0.5", "0.35", "0.2"} {
		grid = append(grid, simdef.MustEpsilon(e))
	}
	sweepWS, queryWS := engine.NewWorkspace(), engine.NewWorkspace()
	defer sweepWS.Close()
	defer queryWS.Close()
	ctx := context.Background()
	for _, tc := range algotest.Corpus() {
		for _, workers := range []int{1, 2, 7} {
			ix := Build(tc.G, BuildOptions{Workers: workers})
			for _, mu := range []int32{1, 2, 5} {
				steps := 0
				err := ix.SweepWorkspace(ctx, grid, mu, sweepWS, func(i int, got *result.Result) {
					steps++
					requireExact(t, tc.G, got, simdef.Threshold{Eps: grid[i], Mu: mu})
					want, err := ix.QueryWorkspace(ctx, grid[i].String(), mu, queryWS)
					if err != nil {
						t.Fatal(err)
					}
					if err := result.Equal(want, got); err != nil {
						t.Fatalf("%s workers=%d eps=%s mu=%d: %v", tc.Name, workers, grid[i], mu, err)
					}
				})
				if err != nil || steps != len(grid) {
					t.Fatalf("%s workers=%d mu=%d: %d of %d steps, err %v", tc.Name, workers, mu, steps, len(grid), err)
				}
			}
		}
	}
	rising := []simdef.Epsilon{grid[1], grid[0]}
	if err := Build(algotest.RandomGraph(3), BuildOptions{}).SweepWorkspace(ctx, rising, 2, nil, func(int, *result.Result) {
		t.Error("a rising grid yielded a step")
	}); err == nil {
		t.Error("a rising grid was accepted")
	}
}

// requireExact fails unless r is the SCAN answer on g and its memberships
// are strictly increasing in (V, ClusterID): the extraction's own order,
// with no Normalize behind it.
func requireExact(t *testing.T, g *graph.Graph, r *result.Result, th simdef.Threshold) {
	t.Helper()
	if err := result.ValidateAgainst(g, r, th.Eps, th.Mu); err != nil {
		t.Fatalf("eps=%s mu=%d: %v", th.Eps, th.Mu, err)
	}
	for i := 1; i < len(r.NonCore); i++ {
		a, b := r.NonCore[i-1], r.NonCore[i]
		if a.V > b.V || a.V == b.V && a.ClusterID >= b.ClusterID {
			t.Fatalf("eps=%s mu=%d: NonCore[%d..%d] = %v, %v is not strictly increasing", th.Eps, th.Mu, i-1, i, a, b)
		}
	}
}

// TestQueryWorkspaceWorkerPanic: a worker panic in any crew phase is
// contained — the extraction returns the *result.WorkerPanicError naming
// the phase and poisons the workspace, as a ppSCAN run does — and the next
// extraction on that workspace is exact.
func TestQueryWorkspaceWorkerPanic(t *testing.T) {
	t.Cleanup(fault.Disable)
	g := gen.CliqueChain(4, 5) // one task per phase, and cores to union
	th, err := simdef.NewThreshold("0.5", 3)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(g, BuildOptions{Workers: 2})
	for hit, phase := range []string{"index roles", "index cores", "index members"} {
		ws := engine.NewWorkspace()
		fault.Enable(&fault.Plan{Rules: []fault.Rule{
			{Point: fault.WorkerTask, Action: fault.ActPanic, Start: uint64(hit + 1), Count: 1},
		}})
		res, err := ix.QueryWorkspace(context.Background(), "0.5", 3, ws)
		fault.Disable()
		var wpe *result.WorkerPanicError
		if res != nil || !errors.As(err, &wpe) || wpe.Phase != phase {
			t.Fatalf("panic at task %d: got (%v, %v), want a WorkerPanicError in %q", hit+1, res, err, phase)
		}
		if !ws.Poisoned() {
			t.Errorf("%s: the workspace is not poisoned", phase)
		}
		res, err = ix.QueryWorkspace(context.Background(), "0.5", 3, ws)
		if err != nil {
			t.Fatal(err)
		}
		requireExact(t, g, res, th)
		ws.Close()
	}
}

// flipCtx is a context whose Err reports nil for its first ok calls and
// context.DeadlineExceeded ever after: a deadline that lands at one exact,
// repeatable poll of the extraction. Workers poll it too, hence atomic.
type flipCtx struct {
	context.Context
	ok    int64
	asked atomic.Int64
}

func (c *flipCtx) Err() error {
	if c.asked.Add(1) > c.ok {
		return context.DeadlineExceeded
	}
	return nil
}

// TestQueryWorkspaceDeadlineAtEveryPoll moves the deadline across every
// poll an extraction makes — inside each crew phase, between the two, and
// in the membership walk — until it completes. Each cut-short extraction
// returns the context's error and leaves the workspace unpoisoned and
// serving exact answers.
func TestQueryWorkspaceDeadlineAtEveryPoll(t *testing.T) {
	g := gen.CliqueChain(4, 5)
	th, err := simdef.NewThreshold("0.5", 3)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(g, BuildOptions{Workers: 2})
	ws := engine.NewWorkspace()
	defer ws.Close()
	for ok := int64(0); ; ok++ {
		res, err := ix.QueryWorkspace(&flipCtx{Context: context.Background(), ok: ok}, "0.5", 3, ws)
		if err == nil {
			// Polls: the coordinator and the worker in each phase, the check
			// after each phase, and the walk's first stride.
			if ok < 7 {
				t.Fatalf("extraction completed after %d polls; the crew phases were never polled", ok)
			}
			requireExact(t, g, res, th)
			return
		}
		if res != nil || err != context.DeadlineExceeded {
			t.Fatalf("deadline after %d polls: got (%v, %v), want context.DeadlineExceeded", ok, res, err)
		}
		if ws.Poisoned() {
			t.Fatalf("deadline after %d polls poisoned the workspace", ok)
		}
		res, err = ix.QueryWorkspace(context.Background(), "0.5", 3, ws)
		if err != nil {
			t.Fatal(err)
		}
		requireExact(t, g, res, th)
	}
}

// TestQueryWorkspaceDeadlineInWalk lands the deadline on a crew poll of
// the membership walk, the last phase, on a graph of four walk blocks:
// the extraction's last poll is the check after that phase, so the one
// before it and the one before that are the walk's own. The extraction
// returns the context's error and yields nothing, and — as for a deadline
// in the other phases — the workspace is not poisoned and serves exact
// answers next.
func TestQueryWorkspaceDeadlineInWalk(t *testing.T) {
	g := gen.PlantedPartition(80, 50, 0.5, 3/4000., 4)
	th, err := simdef.NewThreshold("0.5", 3)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(g, BuildOptions{Workers: 2})
	ws := engine.NewWorkspace()
	defer ws.Close()
	count := &flipCtx{Context: context.Background(), ok: math.MaxInt64}
	if _, err := ix.QueryWorkspace(count, "0.5", 3, ws); err != nil {
		t.Fatal(err)
	}
	polls := count.asked.Load()
	for _, ok := range []int64{polls - 2, polls - 3} {
		res, err := ix.QueryWorkspace(&flipCtx{Context: context.Background(), ok: ok}, "0.5", 3, ws)
		if res != nil || err != context.DeadlineExceeded {
			t.Fatalf("deadline after %d of %d polls: got (%v, %v), want context.DeadlineExceeded", ok, polls, res, err)
		}
		if ws.Poisoned() {
			t.Fatalf("deadline after %d of %d polls poisoned the workspace", ok, polls)
		}
		res, err = ix.QueryWorkspace(context.Background(), "0.5", 3, ws)
		if err != nil {
			t.Fatal(err)
		}
		requireExact(t, g, res, th)
	}
}

// TestSweepWalkDeterministic: on a graph of four walk blocks, every step
// of a 7-step sweep on indexes built at 1, 2 and 7 workers has the
// CoreClusterID and NonCore slices of a serial reference walk, and of a
// fresh one-step QueryWorkspace: the crew size moves no byte of the
// answer.
func TestSweepWalkDeterministic(t *testing.T) {
	g := gen.PlantedPartition(80, 50, 0.5, 3/4000., 4)
	var grid []simdef.Epsilon
	for _, e := range []string{"0.6", "0.55", "0.5", "0.45", "0.4", "0.35", "0.3"} {
		grid = append(grid, simdef.MustEpsilon(e))
	}
	const mu = 3
	ctx := context.Background()
	sweepWS, queryWS := engine.NewWorkspace(), engine.NewWorkspace()
	defer sweepWS.Close()
	defer queryWS.Close()
	for _, workers := range []int{1, 2, 7} {
		ix := Build(g, BuildOptions{Workers: workers})
		steps := 0
		err := ix.SweepWorkspace(ctx, grid, mu, sweepWS, func(i int, got *result.Result) {
			steps++
			ids, noncore := serialWalk(ix, grid[i], got.Roles)
			if !slices.Equal(got.CoreClusterID, ids) || !slices.Equal(got.NonCore, noncore) {
				t.Fatalf("workers=%d eps=%s: the walk differs from the serial reference", workers, grid[i])
			}
			want, err := ix.QueryWorkspace(ctx, grid[i].String(), mu, queryWS)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.CoreClusterID, want.CoreClusterID) || !slices.Equal(got.NonCore, want.NonCore) {
				t.Fatalf("workers=%d eps=%s: the sweep step differs from a one-step extraction", workers, grid[i])
			}
		})
		if err != nil || steps != len(grid) {
			t.Fatalf("workers=%d: %d of %d steps, err %v", workers, steps, len(grid), err)
		}
	}
}

// serialWalk is the membership walk done by hand in vertex order: a
// sequential union-find over the similar core-core arcs of roles, each
// set named by its least vertex, then each non-core's similar prefix.
func serialWalk(ix *Index, eps simdef.Epsilon, roles []result.Role) (ids []int32, noncore []result.Membership) {
	g := ix.g
	n := g.NumVertices()
	uf := unionfind.NewSequential(n)
	similar := func(u int32) []int32 { // u's similar prefix
		off, du1 := ix.at[u], uint64(g.Degree(u))+1
		k := off
		for k < off+int64(g.Degree(u)) && ix.simGE(eps, du1, k) {
			k++
		}
		return ix.nbr[off:k]
	}
	for u := int32(0); u < n; u++ {
		if roles[u] == result.RoleCore {
			for _, v := range similar(u) {
				if roles[v] == result.RoleCore {
					uf.Union(u, v)
				}
			}
		}
	}
	least := make(map[int32]int32)
	for u := n - 1; u >= 0; u-- {
		if roles[u] == result.RoleCore {
			least[uf.Find(u)] = u
		}
	}
	ids = make([]int32, n)
	for v := int32(0); v < n; v++ {
		ids[v] = -1
		if roles[v] == result.RoleCore {
			ids[v] = least[uf.Find(v)]
			continue
		}
		var cs []int32
		for _, u := range similar(v) {
			if roles[u] == result.RoleCore {
				cs = append(cs, least[uf.Find(u)])
			}
		}
		slices.Sort(cs)
		for _, c := range slices.Compact(cs) {
			noncore = append(noncore, result.Membership{V: v, ClusterID: c})
		}
	}
	return ids, noncore
}

// TestQueryWorkspaceNilWorkspace covers the transient-scratch fallback.
func TestQueryWorkspaceNilWorkspace(t *testing.T) {
	g := algotest.RandomGraph(7)
	th := algotest.RandomThreshold(7)
	ix := Build(g, BuildOptions{Workers: 2})
	want, err := ix.QueryWorkspace(context.Background(), th.Eps.String(), th.Mu, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.QueryWorkspace(context.Background(), th.Eps.String(), th.Mu, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := result.Equal(want, got); err != nil {
		t.Fatal(err)
	}
}

// TestQueryWorkspaceCancelled proves a cancelled context aborts the
// extraction with the context's error and leaves the workspace reusable.
func TestQueryWorkspaceCancelled(t *testing.T) {
	g := algotest.RandomGraph(11)
	ix := Build(g, BuildOptions{Workers: 2})
	ws := engine.NewWorkspace()
	defer ws.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.QueryWorkspace(ctx, "0.5", 3, ws); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The workspace must still serve a fresh extraction after the abort.
	want, err := ix.QueryWorkspace(context.Background(), "0.5", 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.QueryWorkspace(context.Background(), "0.5", 3, ws)
	if err != nil {
		t.Fatal(err)
	}
	if err := result.Equal(want, got); err != nil {
		t.Fatal(err)
	}
}

// TestQueryWorkspaceBadParams mirrors Query's validation.
func TestQueryWorkspaceBadParams(t *testing.T) {
	g := algotest.RandomGraph(3)
	ix := Build(g, BuildOptions{Workers: 2})
	ws := engine.NewWorkspace()
	defer ws.Close()
	for _, eps := range []string{"", "1.5", "-0.2", "abc"} {
		if _, err := ix.QueryWorkspace(context.Background(), eps, 2, ws); err == nil {
			t.Errorf("eps=%q: expected an error", eps)
		}
	}
}
