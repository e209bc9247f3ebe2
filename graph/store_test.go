package graph

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// mustGraph builds a graph from edges or fails the test.
func mustGraph(t *testing.T, n int32, edges []Edge) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

// edgeSet converts a graph back to its undirected edge set.
func edgeSet(g *Graph) map[Edge]bool {
	set := map[Edge]bool{}
	for _, e := range g.Edges() {
		set[e] = true
	}
	return set
}

// requireSameGraph checks g matches the ground-truth rebuild from want's
// edge set (identical Off/Dst arrays, not just the same edge set).
func requireSameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("committed graph invalid: %v", err)
	}
	if got.NumVertices() != want.NumVertices() {
		t.Fatalf("NumVertices = %d, want %d", got.NumVertices(), want.NumVertices())
	}
	if len(got.Off) != len(want.Off) || len(got.Dst) != len(want.Dst) {
		t.Fatalf("layout size mismatch: off %d/%d dst %d/%d",
			len(got.Off), len(want.Off), len(got.Dst), len(want.Dst))
	}
	for i := range got.Off {
		if got.Off[i] != want.Off[i] {
			t.Fatalf("Off[%d] = %d, want %d", i, got.Off[i], want.Off[i])
		}
	}
	for i := range got.Dst {
		if got.Dst[i] != want.Dst[i] {
			t.Fatalf("Dst[%d] = %d, want %d", i, got.Dst[i], want.Dst[i])
		}
	}
}

func TestStoreCommitBasic(t *testing.T) {
	g := mustGraph(t, 5, []Edge{{0, 1}, {1, 2}, {2, 3}})
	st := NewStore(g)
	if st.Epoch() != 0 {
		t.Fatalf("initial epoch = %d, want 0", st.Epoch())
	}
	d, err := st.Commit([]EdgeOp{
		{U: 3, V: 4},            // insert
		{U: 2, V: 1, Del: true}, // delete, reversed orientation
	})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if d.Epoch() != 1 || st.Epoch() != 1 {
		t.Fatalf("epoch after commit = %d/%d, want 1", d.Epoch(), st.Epoch())
	}
	if len(d.Added) != 1 || d.Added[0] != (Edge{3, 4}) {
		t.Fatalf("Added = %v, want [{3 4}]", d.Added)
	}
	if len(d.Removed) != 1 || d.Removed[0] != (Edge{1, 2}) {
		t.Fatalf("Removed = %v, want [{1 2}]", d.Removed)
	}
	wantTouched := []int32{1, 2, 3, 4}
	if len(d.Touched) != len(wantTouched) {
		t.Fatalf("Touched = %v, want %v", d.Touched, wantTouched)
	}
	for i, u := range wantTouched {
		if d.Touched[i] != u {
			t.Fatalf("Touched = %v, want %v", d.Touched, wantTouched)
		}
	}
	want := mustGraph(t, 5, []Edge{{0, 1}, {2, 3}, {3, 4}})
	requireSameGraph(t, st.Graph(), want)
	// The old snapshot is untouched.
	if g.HasEdge(3, 4) || !g.HasEdge(1, 2) {
		t.Fatal("commit mutated the old snapshot")
	}
}

func TestStoreCommitNormalization(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{0, 1}})
	st := NewStore(g)
	d, err := st.Commit([]EdgeOp{
		{U: 2, V: 2},            // self loop: ignored
		{U: 0, V: 1},            // insert existing: ignored
		{U: 2, V: 3, Del: true}, // delete missing: ignored
		{U: 1, V: 2},            // superseded by the delete below
		{U: 1, V: 2, Del: true}, // last op wins: net no-op on a missing edge
	})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if !d.Empty() {
		t.Fatalf("delta not empty: added=%v removed=%v", d.Added, d.Removed)
	}
	if d.Old != d.New {
		t.Fatal("no-op commit produced a new snapshot")
	}
	if st.Epoch() != 0 {
		t.Fatalf("no-op commit advanced epoch to %d", st.Epoch())
	}
	if d.Ignored != 5 {
		t.Fatalf("Ignored = %d, want 5", d.Ignored)
	}
	// Duplicate ops where the last one is effective.
	d, err = st.Commit([]EdgeOp{
		{U: 1, V: 2, Del: true}, // superseded
		{U: 1, V: 2},            // effective insert
		{U: 2, V: 1},            // duplicate insert of the same edge, superseded
	})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if len(d.Added) != 1 || d.Added[0] != (Edge{1, 2}) {
		t.Fatalf("Added = %v, want [{1 2}]", d.Added)
	}
	if st.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", st.Epoch())
	}
}

func TestStoreCommitOutOfRange(t *testing.T) {
	st := NewStore(mustGraph(t, 3, []Edge{{0, 1}}))
	if _, err := st.Commit([]EdgeOp{{U: 0, V: 3}}); err == nil {
		t.Fatal("expected error for out-of-range vertex")
	}
	if _, err := st.Commit([]EdgeOp{{U: -1, V: 1}}); err == nil {
		t.Fatal("expected error for negative vertex")
	}
	if st.Epoch() != 0 {
		t.Fatalf("failed commit advanced epoch to %d", st.Epoch())
	}
}

func TestStoreDeleteToIsolatedVertex(t *testing.T) {
	// Vertex 1 has every incident edge removed: it must remain a valid
	// isolated vertex, not vanish.
	st := NewStore(mustGraph(t, 4, []Edge{{0, 1}, {1, 2}, {1, 3}, {2, 3}}))
	d, err := st.Commit([]EdgeOp{
		{U: 0, V: 1, Del: true},
		{U: 1, V: 2, Del: true},
		{U: 1, V: 3, Del: true},
	})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	g := d.New
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if deg := g.Degree(1); deg != 0 {
		t.Fatalf("Degree(1) = %d, want 0", deg)
	}
	requireSameGraph(t, g, mustGraph(t, 4, []Edge{{2, 3}}))
	// And re-inserting brings it back.
	d, err = st.Commit([]EdgeOp{{U: 1, V: 3}})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	requireSameGraph(t, d.New, mustGraph(t, 4, []Edge{{1, 3}, {2, 3}}))
}

// TestStoreSnapshotLifecycle: a graph loaded before a commit keeps its
// view — epoch and edges — while the store moves on to the next one.
func TestStoreSnapshotLifecycle(t *testing.T) {
	st := NewStore(mustGraph(t, 4, []Edge{{0, 1}, {1, 2}}))
	g0 := st.Graph()
	if g0.Epoch() != 0 || st.Epoch() != 0 {
		t.Fatalf("epochs = %d / %d, want 0", g0.Epoch(), st.Epoch())
	}
	if _, err := st.Commit([]EdgeOp{{U: 2, V: 3}}); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if g0.Epoch() != 0 || g0.HasEdge(2, 3) {
		t.Fatalf("old snapshot changed: epoch %d, sees the new edge %v", g0.Epoch(), g0.HasEdge(2, 3))
	}
	if g1 := st.Graph(); g1 == g0 || g1.Epoch() != 1 || st.Epoch() != 1 || !g1.HasEdge(2, 3) {
		t.Fatalf("current snapshot: epoch %d, store epoch %d", g1.Epoch(), st.Epoch())
	}
}

func TestStoreCommitWithAbort(t *testing.T) {
	st := NewStore(mustGraph(t, 4, []Edge{{0, 1}}))
	failed := fmt.Errorf("derived state refused")
	d, err := st.CommitWith([]EdgeOp{{U: 1, V: 2}}, func(d *Delta) error {
		if d.New.Epoch() != 1 {
			t.Fatalf("prepare saw epoch %d, want 1", d.New.Epoch())
		}
		return failed
	})
	if err != failed || d != nil {
		t.Fatalf("CommitWith = (%v, %v), want (nil, refusal)", d, err)
	}
	if st.Epoch() != 0 || st.Graph().HasEdge(1, 2) {
		t.Fatal("aborted commit was published")
	}
	// A panicking prepare must not publish either.
	func() {
		defer func() { _ = recover() }()
		_, _ = st.CommitWith([]EdgeOp{{U: 1, V: 2}}, func(*Delta) error { panic("boom") })
		t.Fatal("prepare panic did not propagate")
	}()
	if st.Epoch() != 0 || st.Graph().HasEdge(1, 2) {
		t.Fatal("panicked commit was published")
	}
	// And the store is still usable afterwards (the commit lock was
	// released on the panic path).
	if _, err := st.Commit([]EdgeOp{{U: 1, V: 2}}); err != nil {
		t.Fatalf("Commit after aborts: %v", err)
	}
	if st.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", st.Epoch())
	}
}

// TestStoreRandomizedChurn cross-checks COW commits against from-scratch
// rebuilds over many random batches.
func TestStoreRandomizedChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 40
	var edges []Edge
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(5) == 0 {
				edges = append(edges, Edge{u, v})
			}
		}
	}
	st := NewStore(mustGraph(t, n, edges))
	truth := edgeSet(st.Graph())
	for round := 0; round < 30; round++ {
		batch := make([]EdgeOp, 0, 12)
		for i := 0; i < 12; i++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			batch = append(batch, EdgeOp{U: u, V: v, Del: rng.Intn(2) == 0})
		}
		d, err := st.Commit(batch)
		if err != nil {
			t.Fatalf("round %d: Commit: %v", round, err)
		}
		// Apply normalized batch to the truth set and rebuild.
		for _, e := range d.Removed {
			delete(truth, e)
		}
		for _, e := range d.Added {
			truth[e] = true
		}
		wantEdges := make([]Edge, 0, len(truth))
		for e := range truth {
			wantEdges = append(wantEdges, e)
		}
		requireSameGraph(t, st.Graph(), mustGraph(t, n, wantEdges))
		if !d.Empty() && d.Epoch() != st.Epoch() {
			t.Fatalf("round %d: delta epoch %d != store epoch %d", round, d.Epoch(), st.Epoch())
		}
	}
}

// TestStoreConcurrentReaders races lock-free readers against Commits;
// run under -race this validates the publication protocol: every loaded
// snapshot is a whole CSR, and the epoch a reader sees never goes back.
func TestStoreConcurrentReaders(t *testing.T) {
	st := NewStore(mustGraph(t, 16, []Edge{{0, 1}, {1, 2}, {2, 3}}))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := st.Graph()
				if err := g.Validate(); err != nil {
					t.Errorf("snapshot invalid: %v", err)
					return
				}
				if g.Epoch() < last {
					t.Errorf("epoch went back: %d after %d", g.Epoch(), last)
					return
				}
				last = g.Epoch()
			}
		}()
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		batch := []EdgeOp{
			{U: int32(rng.Intn(16)), V: int32(rng.Intn(16)), Del: rng.Intn(2) == 0},
			{U: int32(rng.Intn(16)), V: int32(rng.Intn(16))},
		}
		if _, err := st.Commit(batch); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}
