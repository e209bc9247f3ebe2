// Package algotest provides the shared corpus and helpers used by the test
// suites of every clustering algorithm: a set of structurally diverse small
// graphs, parameter grids, and the ground-truth runner (brute-force
// validation via result.ValidateAgainst plus cross-algorithm equality).
package algotest

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ppscan/graph"
	"ppscan/internal/engine"
	"ppscan/internal/gen"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
)

// Case is a named test graph.
type Case struct {
	Name string
	G    *graph.Graph
}

// Corpus returns the standard test graph collection: hand-built shapes with
// known behaviour plus randomized families covering degree skew, community
// structure and sparsity.
func Corpus() []Case {
	var cases []Case
	add := func(name string, g *graph.Graph) {
		cases = append(cases, Case{Name: name, G: g})
	}
	add("empty", mustGraph(0, nil))
	add("singleton", mustGraph(1, nil))
	add("single-edge", mustGraph(2, []graph.Edge{{U: 0, V: 1}}))
	add("triangle", gen.Clique(3))
	add("clique8", gen.Clique(8))
	add("path10", gen.Path(10))
	add("star16", gen.Star(16))
	add("clique-chain", gen.CliqueChain(4, 5))
	add("isolated-mix", mustGraph(9, []graph.Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 1, V: 3}, {U: 6, V: 7}}))
	add("er-sparse", gen.ErdosRenyi(120, 200, 1))
	add("er-dense", gen.ErdosRenyi(60, 600, 2))
	add("roll", gen.Roll(150, 6, 3))
	add("rmat", gen.RMAT(7, 400, 0.55, 0.2, 0.2, 4))
	add("communities", gen.PlantedPartition(4, 25, 0.5, 0.03, 5))
	add("small-world", gen.WattsStrogatz(100, 6, 0.1, 6))
	return cases
}

// Params returns the (eps, mu) grid exercised by equivalence tests.
func Params() []simdef.Threshold {
	var out []simdef.Threshold
	for _, eps := range []string{"0.2", "0.35", "0.5", "0.65", "0.8", "1"} {
		for _, mu := range []int32{1, 2, 5} {
			th, err := simdef.NewThreshold(eps, mu)
			if err != nil {
				panic(err)
			}
			out = append(out, th)
		}
	}
	return out
}

// RandomGraph generates a random graph whose family depends on the seed,
// for property-based cross-algorithm tests.
func RandomGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	switch rng.Intn(4) {
	case 0:
		return gen.ErdosRenyi(int32(20+rng.Intn(100)), int64(rng.Intn(500)), rng.Int63())
	case 1:
		return gen.Roll(int32(30+rng.Intn(120)), int32(2+rng.Intn(8)), rng.Int63())
	case 2:
		return gen.PlantedPartition(int32(2+rng.Intn(3)), int32(8+rng.Intn(20)),
			0.3+0.4*rng.Float64(), 0.05*rng.Float64(), rng.Int63())
	default:
		return gen.RMAT(6+rng.Intn(2), int64(rng.Intn(400)), 0.5, 0.2, 0.2, rng.Int63())
	}
}

// RandomThreshold picks a random parameter combination.
func RandomThreshold(seed int64) simdef.Threshold {
	rng := rand.New(rand.NewSource(seed ^ 0x5bf03635))
	eps := []string{"0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9", "1"}[rng.Intn(10)]
	mu := int32(1 + rng.Intn(6))
	th, err := simdef.NewThreshold(eps, mu)
	if err != nil {
		panic(err)
	}
	return th
}

// CheckGroundTruth validates r against the brute-force SCAN definitions.
func CheckGroundTruth(g *graph.Graph, r *result.Result, th simdef.Threshold) error {
	if err := result.ValidateAgainst(g, r, th.Eps, th.Mu); err != nil {
		return fmt.Errorf("ground truth violated (eps=%s mu=%d): %w", th.Eps, th.Mu, err)
	}
	for v, role := range r.Roles {
		if role == result.RoleUnknown {
			return fmt.Errorf("vertex %d left with Unknown role", v)
		}
	}
	return nil
}

// CheckEngines runs every backend registered with internal/engine over the
// corpus × parameter grid, all on one shared workspace, and requires every
// pair of engines to produce identical clusterings. The first engine's
// result per combination is additionally validated against the brute-force
// ground truth (the others are pinned to it by equality). Results are
// cloned out of the workspace before the next run overwrites it — which
// also exercises the aliasing contract: a stale-scratch bug in any engine
// shows up as a cross-engine mismatch here.
//
// Callers must link the engine implementations (blank-import them); this
// package cannot, because the implementations' own tests import it.
func CheckEngines(t *testing.T) {
	CheckEnginesOn(t, Corpus())
}

// MutatedCorpus returns the standard corpus pushed through one epoch of
// deterministic edge churn: each graph becomes the snapshot a graph.Store
// commit produces from it, mixing insertions of absent pairs with
// deletions of existing edges (~10% of the edge count, at least 4 ops).
// Running the cross-engine suite over these snapshots proves mutation
// results are first-class graphs — clustering a committed snapshot is
// indistinguishable from clustering the same topology loaded from disk.
func MutatedCorpus() []Case {
	var out []Case
	for i, c := range Corpus() {
		if c.G.NumVertices() < 2 {
			continue
		}
		store := graph.NewStore(c.G)
		d, err := store.Commit(churnOps(c.G, int64(37+i)))
		if err != nil {
			panic(fmt.Sprintf("churn commit on %s: %v", c.Name, err))
		}
		if d.Empty() {
			continue
		}
		out = append(out, Case{Name: c.Name + "+churn", G: d.New})
	}
	return out
}

// churnOps builds a deterministic mutation batch for g: deletions of
// existing edges and insertions of absent pairs, including duplicate ops
// (the normalization path) when the rng repeats a pair.
func churnOps(g *graph.Graph, seed int64) []graph.EdgeOp {
	rng := rand.New(rand.NewSource(seed))
	n := int(g.NumEdges()) / 10
	if n < 4 {
		n = 4
	}
	nv := int(g.NumVertices())
	ops := make([]graph.EdgeOp, 0, n)
	for tries := 0; len(ops) < n && tries < 50*n; tries++ {
		u, v := int32(rng.Intn(nv)), int32(rng.Intn(nv))
		if u == v {
			continue
		}
		// Delete existing edges, insert absent pairs: every op is effective
		// unless the batch itself repeats a pair — which the store's
		// last-op-wins normalization then resolves.
		ops = append(ops, graph.EdgeOp{U: u, V: v, Del: g.HasEdge(u, v)})
	}
	return ops
}

// CheckEnginesOn is CheckEngines over an explicit case list (e.g.
// MutatedCorpus for post-mutation snapshots).
func CheckEnginesOn(t *testing.T, cases []Case) {
	engines := engine.All()
	if len(engines) < 2 {
		t.Fatalf("engine registry has %d backends, want >= 2 (did the caller blank-import the implementations?)", len(engines))
	}
	ws := engine.NewWorkspace()
	t.Cleanup(ws.Close)
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			for _, th := range Params() {
				var ref *result.Result
				var refName string
				for _, e := range engines {
					res, err := engine.Run(context.Background(), e.Name, "", c.G, th, engine.Options{}, ws)
					if err != nil {
						t.Errorf("%s (eps=%s mu=%d): %v", e.Name, th.Eps, th.Mu, err)
						continue
					}
					res = res.Clone()
					if res.Stats.Algorithm == "" {
						t.Errorf("%s (eps=%s mu=%d): empty Stats.Algorithm", e.Name, th.Eps, th.Mu)
					}
					if ref == nil {
						if err := CheckGroundTruth(c.G, res, th); err != nil {
							t.Errorf("%s: %v", e.Name, err)
						}
						ref, refName = res, e.Name
					} else if err := result.Equal(ref, res); err != nil {
						t.Errorf("%s disagrees with %s (eps=%s mu=%d): %v", e.Name, refName, th.Eps, th.Mu, err)
					}
				}
			}
		})
	}
}

func mustGraph(n int32, edges []graph.Edge) *graph.Graph {
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}
