package core

// White-box tests for individual ppSCAN phases: these pin down the
// phase-level contracts (Algorithm 3/4 line behaviour) that the end-to-end
// equivalence tests only verify in aggregate.

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"

	"ppscan/graph"
	"ppscan/internal/engine"
	"ppscan/internal/gen"
	"ppscan/internal/intersect"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
	"ppscan/internal/sched"
	"ppscan/internal/simdef"
)

func newState(t *testing.T, g *graph.Graph, eps string, mu int32, workers int) *state {
	t.Helper()
	th, err := simdef.NewThreshold(eps, mu)
	if err != nil {
		t.Fatal(err)
	}
	ws := engine.NewWorkspace()
	t.Cleanup(ws.Close)
	opt := engine.Options{Kernel: intersect.PivotBlock16, Workers: workers,
		DegreeThreshold: sched.DefaultDegreeThreshold, Registry: obsv.Default()}
	s := ws.Scratch(scratchKey, newCoreState).(*state)
	s.reset(context.Background(), g, th, opt, ws)
	if err := s.loadArcs(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPruneSimLabelsObviousEdges(t *testing.T) {
	// Star: hub 0 with 15 leaves. At eps=0.9, leaf-hub edges have
	// cn = 2 < ceil(0.9*sqrt(2*17)) = 6 -> NSim by degree pruning alone.
	g := gen.Star(16)
	s := newState(t, g, "0.9", 2, 1)
	for u := int32(0); u < g.NumVertices(); u++ {
		s.pruneSim(u, 0)
	}
	for e := range s.arcs {
		if simdef.EdgeSim(s.arcs[e]&3) != simdef.NSim {
			t.Fatalf("edge %d not pruned to NSim", e)
		}
	}
	// All roles resolve to NonCore in the pruning phase itself (ed < mu).
	for u, r := range s.roles {
		if r != result.RoleNonCore {
			t.Errorf("vertex %d role = %v after pruning, want NonCore", u, r)
		}
	}
}

func TestPruneSimLeavesAmbiguousUnknown(t *testing.T) {
	// Path of 3 at eps=0.5, mu=2: threshold for the middle edges is 2 and
	// the trivial bounds cannot decide (2 >= c fails only... c=2 -> Sim by
	// predicate pruning). Use eps=0.9 so c=3 with max cn 3: ambiguous.
	g := gen.Clique(4)
	s := newState(t, g, "0.9", 2, 1)
	for u := int32(0); u < g.NumVertices(); u++ {
		s.pruneSim(u, 0)
	}
	// K4: d=3 for all; c = ceil(0.9*4) = 4, max cn = min(3,3)+2 = 5 >= 4,
	// lower 2 < 4: undecidable without intersection.
	for e := range s.arcs {
		if simdef.EdgeSim(s.arcs[e]&3) != simdef.Unknown {
			t.Fatalf("edge %d decided by pruning; should be ambiguous", e)
		}
	}
	for u, r := range s.roles {
		if r != result.RoleUnknown {
			t.Errorf("vertex %d role = %v after pruning, want Unknown", u, r)
		}
	}
}

func TestCheckCoreLeavesSomeRolesToConsolidation(t *testing.T) {
	// The u < v constraint can leave the highest-id vertices undecided:
	// in K4 with eps=0.9, mu=2, vertex 3 has no neighbors v > 3, so its
	// checkCore computes nothing; its sd/ed stay within (0, mu] bounds
	// until values written by lower vertices flow in. Depending on what
	// lower vertices computed, vertex 3 may stay Unknown after phase 2 —
	// the situation consolidateCore exists for. Run the two phases
	// sequentially and verify consolidation completes all roles.
	g := gen.Clique(4)
	s := newState(t, g, "0.9", 2, 1)
	for u := int32(0); u < g.NumVertices(); u++ {
		s.pruneSim(u, 0)
	}
	for u := int32(0); u < g.NumVertices(); u++ {
		if s.roles[u] == result.RoleUnknown {
			s.checkCore(u, 0)
		}
	}
	for u := int32(0); u < g.NumVertices(); u++ {
		if s.roles[u] == result.RoleUnknown {
			s.consolidateCore(u, 0)
		}
	}
	for u, r := range s.roles {
		if r == result.RoleUnknown {
			t.Fatalf("vertex %d still Unknown after consolidation", u)
		}
		// K4 at eps=0.9: every edge has cn=4 >= c=4 -> all similar -> all
		// vertices have 3 similar neighbors >= mu=2 -> all cores.
		if r != result.RoleCore {
			t.Errorf("vertex %d = %v, want Core", u, r)
		}
	}
}

func TestTheorem41WithinPhases(t *testing.T) {
	// Run phases 1-3 manually and verify no edge was computed twice by
	// checking every sim value is consistent with its reverse.
	g := gen.CliqueChain(3, 6)
	s := newState(t, g, "0.7", 3, 4)
	s.forEach("P1 prune-sim", func(int32) bool { return true }, s.pruneSim)
	s.forEach("P2 check-core", s.roleUnknown, s.checkCore)
	s.forEach("P3 consolidate-core", s.roleUnknown, s.consolidateCore)
	for u := int32(0); u < g.NumVertices(); u++ {
		uOff := g.Off[u]
		for i, v := range g.Neighbors(u) {
			e := uOff + int64(i)
			rev := g.Off[v] + int64(slices.Index(g.Neighbors(v), u))
			fwd, back := simdef.EdgeSim(s.arcs[e]&3), simdef.EdgeSim(s.arcs[rev]&3)
			if fwd != simdef.Unknown && back != simdef.Unknown && fwd != back {
				t.Fatalf("edge (%d,%d): sim %v but reverse %v", u, v, fwd, back)
			}
		}
	}
}

func TestInitClusterIDTakesMinimum(t *testing.T) {
	g := gen.Clique(6)
	s := newState(t, g, "0.5", 2, 3)
	for u := int32(0); u < 6; u++ {
		s.roles[u] = result.RoleCore
	}
	// Union 5,3 and 4,2 and 3,2: set {2,3,4,5}; singles {0}, {1}.
	s.uf.Union(5, 3)
	s.uf.Union(4, 2)
	s.uf.Union(3, 2)
	s.clusterID = make([]int32, 6)
	for i := range s.clusterID {
		s.clusterID[i] = -1
	}
	// Run initClusterID from all vertices in adversarial order.
	for _, u := range []int32{5, 4, 3, 2, 1, 0} {
		s.initClusterID(u, 0)
	}
	root := s.uf.Find(5)
	if got := atomic.LoadInt32(&s.clusterID[root]); got != 2 {
		t.Errorf("cluster id of {2,3,4,5} = %d, want 2", got)
	}
	if got := atomic.LoadInt32(&s.clusterID[s.uf.Find(0)]); got != 0 {
		t.Errorf("cluster id of {0} = %d, want 0", got)
	}
}

func TestPipelinedNonCoreBatching(t *testing.T) {
	// nonCoreBatch = 1 forces a flush per membership; output must be
	// complete and identical to a large batch.
	g := gen.CliqueChain(4, 5)
	th, _ := simdef.NewThreshold("0.7", 3)
	var small, large *result.Result
	withNonCoreBatch(1, func() { small = run(g, th, engine.Options{Kernel: intersect.PivotBlock16, Workers: 3}) })
	withNonCoreBatch(1<<20, func() { large = run(g, th, engine.Options{Kernel: intersect.PivotBlock16, Workers: 3}) })
	if err := result.Equal(small, large); err != nil {
		t.Fatalf("batch size changed memberships: %v", err)
	}
}

func TestCompSimCounterPerWorker(t *testing.T) {
	g := gen.ErdosRenyi(300, 2000, 5)
	th, _ := simdef.NewThreshold("0.5", 3)
	r1 := run(g, th, engine.Options{Kernel: intersect.PivotBlock16, Workers: 1})
	r8 := run(g, th, engine.Options{Kernel: intersect.PivotBlock16, Workers: 8})
	if r1.Stats.CompSimCalls == 0 || r8.Stats.CompSimCalls == 0 {
		t.Fatalf("counters empty: %d / %d", r1.Stats.CompSimCalls, r8.Stats.CompSimCalls)
	}
	// Concurrency can change which edges get pruned by IsSameSet, but the
	// role-computing workload (phases 1-3) is schedule-independent, so
	// totals stay close.
	lo, hi := r1.Stats.CompSimCalls/2, r1.Stats.CompSimCalls*2
	if r8.Stats.CompSimCalls < lo || r8.Stats.CompSimCalls > hi {
		t.Errorf("8-worker calls %d far from 1-worker %d", r8.Stats.CompSimCalls, r1.Stats.CompSimCalls)
	}
}
