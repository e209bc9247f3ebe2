package engine_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ppscan/graph"
	"ppscan/internal/algotest"
	"ppscan/internal/engine"
	"ppscan/internal/gen"
	"ppscan/internal/gsindex"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
	"ppscan/quality"

	// Link every backend so the registry is fully populated.
	_ "ppscan/internal/anyscan"
	_ "ppscan/internal/core"
	_ "ppscan/internal/pscan"
	_ "ppscan/internal/scan"
	_ "ppscan/internal/scanxp"
	_ "ppscan/internal/shard"
)

// TestRegistryNames: all shipped backends register under their canonical
// names, and All() lists them sorted.
func TestRegistryNames(t *testing.T) {
	want := []string{"anyscan", "dist-scan", "ppscan", "ppscan-no", "pscan", "scan", "scan-xp"}
	all := engine.All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d engines, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.Name != want[i] {
			t.Errorf("All()[%d] = %q, want %q (sorted)", i, e.Name, want[i])
		}
	}
}

// expiringCtx reports no error the first time it is asked — the
// dispatcher's "not started" check — and an expired deadline ever after:
// a deadline that fires while a checkpoint-free engine, which never asks,
// is running.
type expiringCtx struct {
	context.Context
	asked int
}

func (c *expiringCtx) Err() error {
	if c.asked++; c.asked > 1 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestDispatcherSeam pins, for every registered engine, what the
// dispatcher alone decides. The two refusals pass a nil graph: an engine
// that ran at all would dereference it.
func TestDispatcherSeam(t *testing.T) {
	labels := map[string]string{
		"anyscan": "anySCAN", "dist-scan": "dist-scan(p=3)", "ppscan": "ppSCAN", "ppscan-no": "ppSCAN-NO",
		"pscan": "pSCAN", "scan": "SCAN", "scan-xp": "SCAN-XP",
	}
	g := graphFor("small")
	th, err := simdef.NewThreshold("0.5", 3)
	if err != nil {
		t.Fatal(err)
	}
	_, wantKernelErr := engine.Run(context.Background(), "no-such-engine", "no-such-kernel", nil, th, engine.Options{}, nil)
	if wantKernelErr == nil || !strings.Contains(wantKernelErr.Error(), "no-such-kernel") {
		t.Fatalf("bad kernel and bad engine: got %v, want the kernel reported first", wantKernelErr)
	}
	if _, err := engine.Run(context.Background(), "no-such-engine", "", nil, th, engine.Options{}, nil); err == nil ||
		err.Error() != `ppscan: unknown algorithm "no-such-engine"` {
		t.Fatalf("bad engine: got %v", err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range engine.All() {
		t.Run(e.Name, func(t *testing.T) {
			res, err := engine.Run(context.Background(), e.Name, "no-such-kernel", nil, th, engine.Options{}, nil)
			if res != nil || err == nil || err.Error() != wantKernelErr.Error() {
				t.Errorf("unknown kernel: got (%v, %v), want the error every engine gives: %v", res, err, wantKernelErr)
			}
			res, err = engine.Run(cancelled, e.Name, "", nil, th, engine.Options{}, nil)
			if res != nil || !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "not started") {
				t.Errorf("pre-cancelled ctx: got (%v, %v), want a not-started error wrapping context.Canceled", res, err)
			}

			res, err = engine.Run(context.Background(), e.Name, "", g, th, engine.Options{Workers: 3}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Algorithm != labels[e.Name] {
				t.Errorf("Stats.Algorithm = %q, want %q", res.Stats.Algorithm, labels[e.Name])
			}

			if e.Checkpoints {
				return
			}
			res, err = engine.Run(&expiringCtx{Context: context.Background()}, e.Name, "", g, th, engine.Options{Workers: 3}, nil)
			var pe *result.PartialError
			if res != nil || !errors.As(err, &pe) || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("deadline inside a checkpoint-free run: got (%v, %v), want a *result.PartialError", res, err)
			}
			if !strings.Contains(pe.Phase, "completed") || pe.Stats.Algorithm != labels[e.Name] || pe.Stats.CompSimCalls == 0 {
				t.Errorf("late run: phase %q, stats %+v; want the completed run's stats", pe.Phase, pe.Stats)
			}
		})
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

// TestSummaryMatchesDefinitions pins the allocation-free NumClusters and
// quality.Coverage, which every /cluster answer and sweep line reports, to
// their defining forms — distinct ids through a map, and the Clustered()
// bitmap — on answers from every engine (dist-scan is the loopback fleet)
// and from the index.
func TestSummaryMatchesDefinitions(t *testing.T) {
	check := func(t *testing.T, from string, r *result.Result) {
		t.Helper()
		ids := map[int32]bool{}
		for _, id := range r.CoreClusterID {
			if id >= 0 {
				ids[id] = true
			}
		}
		if got := r.NumClusters(); got != len(ids) {
			t.Errorf("%s eps=%s mu=%d: NumClusters = %d, want %d", from, r.Eps, r.Mu, got, len(ids))
		}
		covered, want := 0, 0.0
		for _, in := range r.Clustered() {
			if in {
				covered++
			}
		}
		if len(r.Roles) > 0 {
			want = float64(covered) / float64(len(r.Roles))
		}
		if got := quality.Coverage(r); got != want {
			t.Errorf("%s eps=%s mu=%d: Coverage = %v, want %v", from, r.Eps, r.Mu, got, want)
		}
	}
	ws := engine.NewWorkspace()
	defer ws.Close()
	for _, c := range algotest.Corpus() {
		t.Run(c.Name, func(t *testing.T) {
			ix := gsindex.Build(c.G, gsindex.BuildOptions{Workers: 2})
			for _, th := range algotest.Params() {
				for _, e := range engine.All() {
					res, err := engine.Run(context.Background(), e.Name, "", c.G, th, engine.Options{Workers: 2}, ws)
					if err != nil {
						t.Fatal(err)
					}
					check(t, e.Name, res)
				}
				res, err := ix.QueryWorkspace(context.Background(), th.Eps.String(), th.Mu, ws)
				if err != nil {
					t.Fatal(err)
				}
				check(t, "index", res)
			}
		})
	}
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
		t.Run(e.Name, func(t *testing.T) {
			ws := engine.NewWorkspace()
			defer ws.Close()
			want := map[string]*result.Result{}
			for round, name := range seq {
				g := graphFor(name)
				got, err := engine.Run(context.Background(), e.Name, "", g, th, engine.Options{Workers: 2}, ws)
				if err != nil {
					t.Fatalf("round %d (%s): %v", round, name, err)
				}
				got = got.Clone()
				ref, ok := want[name]
				if !ok {
					fresh := engine.NewWorkspace()
					ref, err = engine.Run(context.Background(), e.Name, "", g, th, engine.Options{Workers: 2}, fresh)
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
