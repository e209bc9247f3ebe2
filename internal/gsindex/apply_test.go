package gsindex

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"ppscan/graph"
	"ppscan/internal/engine"
	"ppscan/internal/gen"
)

// randomGraph builds a G(n, p)-ish test graph.
func randomGraph(t *testing.T, n int32, p float64, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

// requireBitIdentical asserts the incremental index equals a from-scratch
// rebuild payload-for-payload, not just semantically.
func requireBitIdentical(t *testing.T, got, want *Index) {
	t.Helper()
	if got.g != want.g && !reflect.DeepEqual(got.g.Off, want.g.Off) {
		t.Fatalf("indexes over different graphs")
	}
	if !reflect.DeepEqual(got.cn, want.cn) {
		for i := range got.cn {
			if got.cn[i] != want.cn[i] {
				t.Fatalf("cn[%d] = %d, want %d (first of %d slots)", i, got.cn[i], want.cn[i], len(got.cn))
			}
		}
	}
	if !reflect.DeepEqual(got.nbr, want.nbr) {
		for i := range got.nbr {
			if got.nbr[i] != want.nbr[i] {
				t.Fatalf("nbr[%d] = %d, want %d", i, got.nbr[i], want.nbr[i])
			}
		}
	}
}

// requireSameQuery asserts both indexes answer (eps, mu) identically.
func requireSameQuery(t *testing.T, a, b *Index, eps string, mu int32) {
	t.Helper()
	ra, err := a.Query(eps, mu)
	if err != nil {
		t.Fatalf("Query(%s,%d): %v", eps, mu, err)
	}
	rb, err := b.Query(eps, mu)
	if err != nil {
		t.Fatalf("Query(%s,%d): %v", eps, mu, err)
	}
	if !reflect.DeepEqual(ra.Roles, rb.Roles) ||
		!reflect.DeepEqual(ra.CoreClusterID, rb.CoreClusterID) ||
		!reflect.DeepEqual(ra.NonCore, rb.NonCore) {
		t.Fatalf("query(%s,%d) diverged between incremental and rebuilt index", eps, mu)
	}
}

// churnBatch produces a deterministic mixed insert/delete batch.
func churnBatch(rng *rand.Rand, n int32, k int) []graph.EdgeOp {
	batch := make([]graph.EdgeOp, 0, k)
	for i := 0; i < k; i++ {
		batch = append(batch, graph.EdgeOp{
			U:   int32(rng.Intn(int(n))),
			V:   int32(rng.Intn(int(n))),
			Del: rng.Intn(2) == 0,
		})
	}
	return batch
}

func TestApplyBatchEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := randomGraph(t, 60, 0.12, 11)
		st := graph.NewStore(g)
		opt := BuildOptions{Workers: workers}
		ix := Build(g, opt)
		ws := engine.NewWorkspace()
		defer ws.Close()
		rng := rand.New(rand.NewSource(99))
		for round := 0; round < 20; round++ {
			d, err := st.Commit(churnBatch(rng, 60, 10))
			if err != nil {
				t.Fatalf("workers=%d round %d: Commit: %v", workers, round, err)
			}
			nix, err := ix.ApplyBatch(context.Background(), d, opt, ws)
			if err != nil {
				t.Fatalf("workers=%d round %d: ApplyBatch: %v", workers, round, err)
			}
			if d.Empty() && nix != ix {
				t.Fatalf("workers=%d round %d: no-op delta produced a new index", workers, round)
			}
			if err := nix.Validate(); err != nil {
				t.Fatalf("workers=%d round %d: %v", workers, round, err)
			}
			rebuilt := Build(d.New, opt)
			requireBitIdentical(t, nix, rebuilt)
			requireSameQuery(t, nix, rebuilt, "0.5", 3)
			requireSameQuery(t, nix, rebuilt, "0.8", 2)
			ix = nix
		}
	}
}

// effectiveChurn produces a batch in which every op changes g: it deletes
// the pair if it is an edge and inserts it otherwise.
func effectiveChurn(rng *rand.Rand, g *graph.Graph, k int) []graph.EdgeOp {
	n := int(g.NumVertices())
	batch := make([]graph.EdgeOp, 0, k)
	for len(batch) < k {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		batch = append(batch, graph.EdgeOp{U: u, V: v, Del: g.HasEdge(u, v)})
	}
	return batch
}

// TestApplyBatchLargeChurnBitIdentical chains eight 1%-churn commits on
// Roll(10000,16,5). The 60-vertex corpus above never has a run wider
// than 64 neighbors; this graph has 179 such vertices (max degree 496),
// so its touched and affected runs are long ones, up to hundreds of
// entries per sort.
func TestApplyBatchLargeChurnBitIdentical(t *testing.T) {
	g := gen.Roll(10000, 16, 5)
	st := graph.NewStore(g)
	nops := int(g.NumEdges() / 100)
	ctx := context.Background()
	ix, err := BuildContext(ctx, g, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ws := engine.NewWorkspace()
	defer ws.Close()
	rng := rand.New(rand.NewSource(1000))
	for round := 0; round < 8; round++ {
		d, err := st.Commit(effectiveChurn(rng, ix.g, nops))
		if err != nil {
			t.Fatalf("round %d: Commit: %v", round, err)
		}
		nix, err := ix.ApplyBatch(ctx, d, BuildOptions{}, ws)
		if err != nil {
			t.Fatalf("round %d: ApplyBatch: %v", round, err)
		}
		rebuilt, err := BuildContext(ctx, d.New, BuildOptions{})
		if err != nil {
			t.Fatalf("round %d: BuildContext: %v", round, err)
		}
		requireBitIdentical(t, nix, rebuilt)
		ix = nix
	}
}

func TestApplyBatchDeleteToIsolatedVertex(t *testing.T) {
	g, err := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}, {U: 3, V: 4}})
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	st := graph.NewStore(g)
	opt := BuildOptions{Workers: 2}
	ix := Build(g, opt)
	d, err := st.Commit([]graph.EdgeOp{
		{U: 0, V: 1, Del: true},
		{U: 1, V: 2, Del: true},
		{U: 1, V: 3, Del: true},
	})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	nix, err := ix.ApplyBatch(context.Background(), d, opt, nil)
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if nix.g.Degree(1) != 0 {
		t.Fatalf("vertex 1 not isolated: degree %d", nix.g.Degree(1))
	}
	if err := nix.Validate(); err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, nix, Build(d.New, opt))
	// Re-connect the isolated vertex.
	d, err = st.Commit([]graph.EdgeOp{{U: 1, V: 4}})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	nix, err = nix.ApplyBatch(context.Background(), d, opt, nil)
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	requireBitIdentical(t, nix, Build(d.New, opt))
}

func TestApplyBatchDuplicateEdgeOps(t *testing.T) {
	g := randomGraph(t, 20, 0.2, 3)
	st := graph.NewStore(g)
	opt := BuildOptions{Workers: 2}
	ix := Build(g, opt)
	// Duplicate and mutually-cancelling ops within one batch, plus
	// redundant inserts of existing edges.
	d, err := st.Commit([]graph.EdgeOp{
		{U: 0, V: 1}, {U: 1, V: 0}, // duplicate insert, both orientations
		{U: 2, V: 3}, {U: 2, V: 3, Del: true}, // insert then delete: net no-op
		{U: 4, V: 5, Del: true}, {U: 4, V: 5}, // delete then insert: net insert (if absent)
	})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	nix, err := ix.ApplyBatch(context.Background(), d, opt, nil)
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if err := nix.Validate(); err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, nix, Build(d.New, opt))
}

func TestApplyBatchRejectsForeignDelta(t *testing.T) {
	g := randomGraph(t, 10, 0.3, 1)
	other := randomGraph(t, 10, 0.3, 2)
	st := graph.NewStore(other)
	ix := Build(g, BuildOptions{})
	d, err := st.Commit([]graph.EdgeOp{{U: 0, V: 9}})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if _, err := ix.ApplyBatch(context.Background(), d, BuildOptions{}, nil); err == nil {
		t.Fatal("expected error applying a delta from a different snapshot")
	}
	if _, err := ix.ApplyBatch(context.Background(), nil, BuildOptions{}, nil); err == nil {
		t.Fatal("expected error applying a nil delta")
	}
}

func TestApplyBatchCancellation(t *testing.T) {
	g := randomGraph(t, 50, 0.2, 8)
	st := graph.NewStore(g)
	ix := Build(g, BuildOptions{})
	d, err := st.Commit([]graph.EdgeOp{{U: 0, V: 1, Del: g.HasEdge(0, 1)}})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.ApplyBatch(ctx, d, BuildOptions{}, nil); err == nil {
		t.Fatal("expected cancellation error")
	}
	// The receiver is untouched and still valid after a cancelled apply.
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}
