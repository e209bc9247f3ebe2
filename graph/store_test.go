package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
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
// edge set: identical Off arrays and, vertex by vertex, identical runs,
// wherever the commit placed them in Dst.
func requireSameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("committed graph invalid: %v", err)
	}
	if got.NumVertices() != want.NumVertices() {
		t.Fatalf("NumVertices = %d, want %d", got.NumVertices(), want.NumVertices())
	}
	if !slices.Equal(got.Off, want.Off) {
		t.Fatalf("Off = %v, want %v", got.Off, want.Off)
	}
	for u := int32(0); u < got.NumVertices(); u++ {
		if !slices.Equal(got.Neighbors(u), want.Neighbors(u)) {
			t.Fatalf("Neighbors(%d) = %v, want %v", u, got.Neighbors(u), want.Neighbors(u))
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

// TestStoreCommitOffsetsAtEnds: the offset pass shifts old.Off only at
// touched vertices, so batches that touch vertex 0, vertex n−1 and runs of
// adjacent vertices must still lay out exactly what FromEdges does.
func TestStoreCommitOffsetsAtEnds(t *testing.T) {
	const n = 8
	st := NewStore(mustGraph(t, n, []Edge{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}}))
	truth := edgeSet(st.Graph())
	for i, batch := range [][]EdgeOp{
		{{U: 0, V: n - 1}},                   // both ends, isolated before
		{{U: 0, V: 1}, {U: n - 2, V: n - 1}}, // each end and its neighbor
		{{U: 2, V: 3, Del: true}, {U: 3, V: 4, Del: true}, {U: 4, V: 5, Del: true}}, // adjacent, shrinking
		{{U: 0, V: n - 1, Del: true}, {U: 0, V: 1, Del: true}},                      // vertex 0 isolated again
		{{U: n - 1, V: n - 2, Del: true}, {U: 3, V: 5}, {U: 4, V: 6}},               // vertex n−1 isolated, adjacent growing
	} {
		d, err := st.Commit(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		for _, e := range d.Removed {
			delete(truth, e)
		}
		for _, e := range d.Added {
			truth[e] = true
		}
		var want []Edge
		for e := range truth {
			want = append(want, e)
		}
		requireSameGraph(t, st.Graph(), mustGraph(t, n, want))
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

// ringWithChords is a 200-vertex ring plus every chord {u, u+7}: 800 arcs,
// so a compacted snapshot has 200 spare slots, room for a few appends.
func ringWithChords(t *testing.T) *Graph {
	var edges []Edge
	for u := int32(0); u < 200; u++ {
		edges = append(edges, Edge{u, (u + 1) % 200}, Edge{u, (u + 7) % 200})
	}
	return mustGraph(t, 200, edges)
}

// TestStoreCommitChainSharesArena: the first commit compacts the built
// graph into an arena with headroom; the next ones append their touched
// runs to it, sharing every other run with their predecessor, until one
// does not fit and compacts again. Every snapshot of the chain equals
// FromEdges on its edge set, and still does after the last commit.
func TestStoreCommitChainSharesArena(t *testing.T) {
	st := NewStore(ringWithChords(t))
	rng := rand.New(rand.NewSource(11))
	type snap struct {
		g    *Graph
		want *Graph
	}
	var chain []snap
	appends, compactions := 0, 0
	for compactions < 2 {
		old := st.Graph()
		var batch []EdgeOp
		truth := old.Edges()
		for len(batch) < 4 {
			u, v := int32(rng.Intn(200)), int32(rng.Intn(200))
			if u != v && !old.HasEdge(u, v) {
				batch = append(batch, EdgeOp{U: u, V: v})
				truth = append(truth, Edge{u, v})
			}
		}
		d, err := st.Commit(batch)
		if err != nil {
			t.Fatal(err)
		}
		g := d.New
		switch {
		case g.arena == old.arena:
			appends++
			if g.at == nil || &g.Dst[0] != &old.Dst[0] || len(g.Dst) <= len(old.Dst) {
				t.Fatalf("commit %d appended without sharing its predecessor's runs", len(chain))
			}
			for u := int32(0); u < g.NumVertices(); u++ {
				if !slices.Contains(d.Touched, u) && g.start(u) != old.start(u) {
					t.Fatalf("commit %d copied the untouched run of %d", len(chain), u)
				}
			}
		default:
			compactions++
			if g.at != nil || len(g.Dst) != int(g.NumDirectedEdges()) || cap(g.Dst) != len(g.Dst)+len(g.Dst)/headroom {
				t.Fatalf("commit %d compacted to len %d cap %d, at set %v", len(chain), len(g.Dst), cap(g.Dst), g.at != nil)
			}
		}
		chain = append(chain, snap{g, mustGraph(t, 200, truth)})
		requireSameGraph(t, g, chain[len(chain)-1].want)
	}
	if appends < 2 {
		t.Fatalf("%d appends between %d compactions, want at least 2", appends, compactions)
	}
	for _, s := range chain {
		requireSameGraph(t, s.g, s.want)
	}
}

// TestStoreCommitFork: two stores commit different batches onto one base
// snapshot. The first appends to the base's tail; the second finds it
// taken and compacts, so neither overwrites a run the other reads.
func TestStoreCommitFork(t *testing.T) {
	st := NewStore(ringWithChords(t))
	d, err := st.Commit([]EdgeOp{{U: 0, V: 100}}) // compacts into an arena
	if err != nil {
		t.Fatal(err)
	}
	base, baseEdges := d.New, d.New.Edges()
	var kids, want [2]*Graph
	for i := range kids {
		batch := []Edge{{int32(i), 150}, {10, 50 + int32(i)}}
		d, err := NewStore(base).Commit([]EdgeOp{{U: batch[0].U, V: batch[0].V}, {U: batch[1].U, V: batch[1].V}})
		if err != nil {
			t.Fatal(err)
		}
		kids[i], want[i] = d.New, mustGraph(t, 200, append(slices.Clone(baseEdges), batch...))
	}
	if kids[0].arena != base.arena || kids[1].arena == base.arena {
		t.Fatalf("fork: first appended %v, second appended %v; want only the first", kids[0].arena == base.arena, kids[1].arena == base.arena)
	}
	for i := range kids {
		requireSameGraph(t, kids[i], want[i])
	}
	requireSameGraph(t, base, mustGraph(t, 200, baseEdges))
}

// TestStoreAbortedCommitHandsBackTail: a CommitWith whose prepare fails
// hands its claim back, so the next commit appends where the aborted one
// would have, while a reader walks the snapshot the abort started from.
// Under -race, a commit writing a run that reader reads is a reported race.
func TestStoreAbortedCommitHandsBackTail(t *testing.T) {
	st := NewStore(ringWithChords(t))
	if _, err := st.Commit([]EdgeOp{{U: 0, V: 100}}); err != nil { // compacts into an arena
		t.Fatal(err)
	}
	g0 := st.Graph()
	want := g0.Edges()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !slices.Equal(g0.Edges(), want) {
				t.Error("the held snapshot changed under a commit")
				return
			}
		}
	}()
	failed := fmt.Errorf("derived state refused")
	if _, err := st.CommitWith([]EdgeOp{{U: 1, V: 101}}, func(*Delta) error { return failed }); err != failed {
		t.Fatalf("CommitWith = %v, want the refusal", err)
	}
	if used := g0.arena.used.Load(); used != int64(len(g0.Dst)) {
		t.Fatalf("arena used = %d after the abort, want %d", used, len(g0.Dst))
	}
	for i := int32(0); i < 3; i++ {
		d, err := st.Commit([]EdgeOp{{U: 2 + i, V: 102 + i}})
		if err != nil {
			t.Fatal(err)
		}
		if d.New.arena != g0.arena {
			t.Fatalf("commit %d after the abort compacted, want it to append", i)
		}
	}
	if got := st.Graph().at[2]; got != int64(len(g0.Dst)) {
		t.Fatalf("first commit after the abort placed its first run at %d, want the handed-back tail %d", got, len(g0.Dst))
	}
	close(stop)
	wg.Wait()
}

// TestWriteBinaryAppended: an appended snapshot writes the bytes of the
// compact graph FromEdges builds from its edge set.
func TestWriteBinaryAppended(t *testing.T) {
	st := NewStore(ringWithChords(t))
	for i := int32(0); i < 3; i++ {
		if _, err := st.Commit([]EdgeOp{{U: i, V: 100 + i}, {U: 50 + i, V: 51 + i, Del: true}}); err != nil {
			t.Fatal(err)
		}
	}
	g := st.Graph()
	if g.at == nil {
		t.Fatal("the last commit compacted, want it appended")
	}
	var got, want bytes.Buffer
	if err := WriteBinary(&got, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&want, mustGraph(t, g.NumVertices(), g.Edges())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteBinary of the appended snapshot differs (%d vs %d bytes)", got.Len(), want.Len())
	}
	back, err := ReadBinary(&got)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGraph(t, back, g)
}
