package engine_test

import (
	"context"
	"slices"
	"testing"

	"ppscan/graph"
	"ppscan/internal/algotest"
	"ppscan/internal/engine"
	"ppscan/internal/gen"
	"ppscan/internal/result"
	"ppscan/internal/simdef"

	// Link every backend so the registry is fully populated.
	_ "ppscan/internal/anyscan"
	_ "ppscan/internal/core"
	_ "ppscan/internal/pscan"
	_ "ppscan/internal/scan"
	_ "ppscan/internal/scanpp"
	_ "ppscan/internal/scanxp"
	_ "ppscan/internal/shard"
)

// TestRegistryNames: all shipped backends register under their canonical
// names, Names() is sorted, and Get round-trips.
func TestRegistryNames(t *testing.T) {
	want := []string{"anyscan", "dist-scan", "ppscan", "ppscan-no", "pscan", "scan", "scan++", "scan-xp"}
	got := engine.Names()
	if !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		e, ok := engine.Get(name)
		if !ok {
			t.Fatalf("Get(%q) missing", name)
		}
		if e.Name() != name {
			t.Errorf("Get(%q).Name() = %q", name, e.Name())
		}
	}
	if _, ok := engine.Get("no-such-engine"); ok {
		t.Error("Get of unregistered name reported ok")
	}
	all := engine.All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d engines, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.Name() != want[i] {
			t.Errorf("All()[%d] = %q, want %q (sorted)", i, e.Name(), want[i])
		}
	}
}

// TestEnginesEquivalent is the registry-driven cross-engine equivalence
// suite: every backend, every corpus graph, every parameter combination,
// one shared workspace.
func TestEnginesEquivalent(t *testing.T) {
	algotest.CheckEngines(t)
}

// TestEnginesEquivalentPostMutation re-runs the cross-engine suite over
// the corpus after one epoch of graph.Store edge churn: a committed
// snapshot must cluster exactly like the same topology built from
// scratch, for every engine and every parameter combination.
func TestEnginesEquivalentPostMutation(t *testing.T) {
	algotest.CheckEnginesOn(t, algotest.MutatedCorpus())
}

// graphFor builds the deterministic test graph for a size label.
func graphFor(name string) *graph.Graph {
	switch name {
	case "big":
		return gen.Roll(4000, 12, 7)
	case "medium":
		return gen.PlantedPartition(4, 80, 0.5, 0.02, 11)
	case "small":
		return gen.ErdosRenyi(120, 300, 3)
	default: // tiny
		return gen.Clique(5)
	}
}

// TestWorkspaceReuseAcrossGraphSizes runs every engine over graphs of very
// different sizes on one shared workspace, alternating big and small, and
// checks each result against a fresh-workspace run of the same input. Any
// state leaking across runs (the grow-only buffers still hold the larger
// graph's data) shows up as a divergence.
func TestWorkspaceReuseAcrossGraphSizes(t *testing.T) {
	th, err := simdef.NewThreshold("0.5", 3)
	if err != nil {
		t.Fatal(err)
	}
	seq := []string{"big", "small", "medium", "big", "tiny", "big", "small"}
	for _, e := range engine.All() {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			ws := engine.NewWorkspace()
			defer ws.Close()
			want := map[string]*result.Result{}
			for round, name := range seq {
				g := graphFor(name)
				got, err := e.RunContext(context.Background(), g, th, engine.Options{Workers: 2}, ws)
				if err != nil {
					t.Fatalf("round %d (%s): %v", round, name, err)
				}
				got = got.Clone()
				ref, ok := want[name]
				if !ok {
					fresh := engine.NewWorkspace()
					ref, err = e.RunContext(context.Background(), g, th, engine.Options{Workers: 2}, fresh)
					if err != nil {
						fresh.Close()
						t.Fatalf("fresh run (%s): %v", name, err)
					}
					ref = ref.Clone()
					fresh.Close()
					want[name] = ref
				}
				if err := result.Equal(ref, got); err != nil {
					t.Fatalf("round %d (%s): reused workspace diverged from fresh run: %v", round, name, err)
				}
			}
		})
	}
}
