package gsindex

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
// rebuild run for run, not just semantically: each vertex's neighbor order
// and counts, wherever at places them.
func requireBitIdentical(t *testing.T, got, want *Index) {
	t.Helper()
	if got.g != want.g && !reflect.DeepEqual(got.g.Off, want.g.Off) {
		t.Fatalf("indexes over different graphs")
	}
	for u := int32(0); u < got.g.NumVertices(); u++ {
		gn, gc := got.run(u)
		wn, wc := want.run(u)
		if !slices.Equal(gn, wn) || !slices.Equal(gc, wc) {
			t.Fatalf("run of %d = %v / %v, want %v / %v", u, gn, gc, wn, wc)
		}
	}
}

// requireSameQuery asserts both indexes answer (eps, mu) identically.
func requireSameQuery(t *testing.T, a, b *Index, eps string, mu int32) {
	t.Helper()
	ra, err := a.QueryWorkspace(context.Background(), eps, mu, nil)
	if err != nil {
		t.Fatalf("Query(%s,%d): %v", eps, mu, err)
	}
	rb, err := b.QueryWorkspace(context.Background(), eps, mu, nil)
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

// forkBase returns an index one compacting apply away from a Build of g:
// it owns its arena's tail and has headroom, so its next apply appends.
func forkBase(t *testing.T, rng *rand.Rand, g *graph.Graph, opt BuildOptions) *Index {
	t.Helper()
	d, err := graph.NewStore(g).Commit(effectiveChurn(rng, g, 4))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, opt).ApplyBatch(context.Background(), d, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestApplyBatchFork applies two batches to one base: the first appends
// to the base's tail, the second finds the tail taken and compacts. The
// base and both children each equal a fresh Build, run for run.
func TestApplyBatchFork(t *testing.T) {
	opt := BuildOptions{Workers: 2}
	rng := rand.New(rand.NewSource(5))
	base := forkBase(t, rng, randomGraph(t, 400, 0.012, 21), opt)
	var kids [2]*Index
	for i := range kids {
		d, err := graph.NewStore(base.g).Commit(effectiveChurn(rng, base.g, 3))
		if err != nil {
			t.Fatal(err)
		}
		if kids[i], err = base.ApplyBatch(context.Background(), d, opt, nil); err != nil {
			t.Fatal(err)
		}
	}
	if kids[0].arena != base.arena || kids[1].arena == base.arena {
		t.Fatalf("first child appended %v, second compacted %v; want both", kids[0].arena == base.arena, kids[1].arena != base.arena)
	}
	for _, ix := range []*Index{base, kids[0], kids[1]} {
		requireBitIdentical(t, ix, Build(ix.g, opt))
	}
}

// TestApplyBatchLongChain chains batches until the chain has compacted
// three times, checking every step against a fresh Build.
func TestApplyBatchLongChain(t *testing.T) {
	opt := BuildOptions{Workers: 2}
	g := randomGraph(t, 400, 0.012, 7)
	st := graph.NewStore(g)
	ix := Build(g, opt)
	ws := engine.NewWorkspace()
	defer ws.Close()
	rng := rand.New(rand.NewSource(17))
	compactions, appends := 0, 0
	for step := 0; compactions < 4; step++ {
		if step == 300 {
			t.Fatalf("%d compactions in %d steps, want 4", compactions, step)
		}
		d, err := st.Commit(effectiveChurn(rng, ix.g, 4))
		if err != nil {
			t.Fatal(err)
		}
		nix, err := ix.ApplyBatch(context.Background(), d, opt, ws)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if nix.arena == ix.arena {
			appends++
		} else {
			compactions++
		}
		requireBitIdentical(t, nix, Build(d.New, opt))
		ix = nix
	}
	if appends == 0 {
		t.Fatal("no apply appended")
	}
}

// TestSaveAfterAppends: an index whose runs were appended, over a graph
// whose runs were appended too, saves the same bytes as a Build of its
// graph and as a Build of that graph's compact rebuild.
func TestSaveAfterAppends(t *testing.T) {
	opt := BuildOptions{Workers: 2}
	rng := rand.New(rand.NewSource(3))
	ix := forkBase(t, rng, randomGraph(t, 400, 0.012, 9), opt)
	st := graph.NewStore(ix.g)
	for i := 0; i < 3; i++ {
		d, err := st.Commit(effectiveChurn(rng, ix.g, 3))
		if err != nil {
			t.Fatal(err)
		}
		nix, err := ix.ApplyBatch(context.Background(), d, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if nix.arena != ix.arena {
			t.Fatalf("apply %d compacted, want it to append", i)
		}
		if &d.New.Dst[0] != &d.Old.Dst[0] {
			t.Fatalf("commit %d compacted, want it to append to the graph's storage", i)
		}
		ix = nix
	}
	compact, err := graph.FromEdges(ix.g.NumVertices(), ix.g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := ix.Save(&got); err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"the appended graph": ix.g, "its compact rebuild": compact} {
		var want bytes.Buffer
		if err := Build(g, opt).Save(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("Save after appends differs from Save of a Build over %s (%d vs %d bytes)", name, got.Len(), want.Len())
		}
	}
}

// TestApplyBatchConcurrentReaders extracts from a base while its child
// appends to the arena they share; run under -race, any write to a run
// the base reads is a reported race.
func TestApplyBatchConcurrentReaders(t *testing.T) {
	opt := BuildOptions{Workers: 2}
	rng := rand.New(rand.NewSource(8))
	base := forkBase(t, rng, randomGraph(t, 400, 0.012, 4), opt)
	want, err := base.QueryWorkspace(context.Background(), "0.5", 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := graph.NewStore(base.g)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			got, err := base.QueryWorkspace(context.Background(), "0.5", 3, nil)
			if err == nil && !reflect.DeepEqual([]any{got.Roles, got.CoreClusterID, got.NonCore}, []any{want.Roles, want.CoreClusterID, want.NonCore}) {
				err = fmt.Errorf("extraction %d changed while the child appended", i)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	ix, appended := base, true
	for i := 0; i < 4; i++ {
		d, err := st.Commit(effectiveChurn(rng, ix.g, 1))
		if err != nil {
			t.Fatal(err)
		}
		if ix, err = ix.ApplyBatch(context.Background(), d, opt, nil); err != nil {
			t.Fatal(err)
		}
		appended = appended && ix.arena == base.arena
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !appended {
		t.Fatal("the chain compacted: not every child appended beside the readers")
	}
}

// BenchmarkApplyBatch times one repair as serve-churn's commits run it:
// chained 64-op batches on the benchmark's community graph (1000 planted
// communities of 50, seed 1), each 32 seeded inserts plus the deletes of
// the inserts two batches earlier, on 2 workers and one pooled workspace.
// Appends and the compactions between them are both in the time per
// batch; the commits are not.
func BenchmarkApplyBatch(b *testing.B) {
	g := gen.PlantedPartition(1000, 50, 0.5, 3/50000., 1)
	opt := BuildOptions{Workers: 2}
	ix, st := Build(g, opt), graph.NewStore(g)
	ws := engine.NewWorkspace()
	defer ws.Close()
	rng := rand.New(rand.NewSource(1))
	var inserted [2][]graph.EdgeOp // the inserts of the last two batches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var ins []graph.EdgeOp
		for len(ins) < 32 {
			u, v := rng.Int31n(g.NumVertices()), rng.Int31n(g.NumVertices())
			if u != v && !ix.g.HasEdge(u, v) {
				ins = append(ins, graph.EdgeOp{U: u, V: v})
			}
		}
		batch := slices.Clone(ins)
		for _, e := range inserted[0] {
			batch = append(batch, graph.EdgeOp{U: e.U, V: e.V, Del: true})
		}
		inserted[0], inserted[1] = inserted[1], ins
		d, err := st.Commit(batch)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if ix, err = ix.ApplyBatch(context.Background(), d, opt, ws); err != nil {
			b.Fatal(err)
		}
	}
}
