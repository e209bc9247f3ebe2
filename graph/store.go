// Epoch-versioned snapshot store: batched edge mutations over the
// immutable CSR.
//
// Every Graph in this package is immutable — that is what lets eight
// algorithm backends, the GS*-Index and the HTTP serving stack share one
// CSR without locks. A Store layers mutability on top without giving that
// up: mutations are batched into a Commit, each Commit produces a brand
// new immutable *Graph snapshot (copy-on-write per affected adjacency
// run; untouched runs are bulk-copied, touched runs are re-merged), and
// an epoch counter versions the sequence. In-flight readers keep whatever
// snapshot they loaded — a mutation can never tear a running query — and
// the store holds only the current one, so a superseded snapshot lives
// exactly as long as its last reader's pointer.
package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// EdgeOp is one edge mutation: insert (Del false) or delete (Del true) of
// the undirected edge {U, V}. Orientation does not matter; {V, U} names
// the same edge.
type EdgeOp struct {
	U, V int32
	Del  bool
}

// Delta describes what one Commit actually changed: the snapshot pair,
// the normalized edge sets that were applied, and the vertices whose
// adjacency runs were rewritten. It is the input contract of incremental
// index maintenance (gsindex.Index.ApplyBatch): everything an updater
// must recompute is incident to Touched.
type Delta struct {
	// Old and New are the pre- and post-commit snapshots. A no-op commit
	// (every operation ignored) has Old == New.
	Old, New *Graph
	// Added and Removed hold the edges actually applied, normalized to
	// U < V and sorted lexicographically. Inserts of present edges and
	// deletes of absent edges are dropped (counted in Ignored), as are
	// self loops; within one batch the last operation on an edge wins.
	Added, Removed []Edge
	// Touched lists, sorted and unique, every vertex incident to an
	// applied operation — exactly the vertices whose adjacency run (and
	// degree) differs between Old and New.
	Touched []int32
	// Ignored counts operations the batch dropped: duplicates superseded
	// within the batch, inserts of existing edges, deletes of missing
	// edges, and self loops.
	Ignored int
}

// Epoch returns the epoch of the post-commit snapshot.
func (d *Delta) Epoch() uint64 { return d.New.Epoch() }

// Empty reports whether the commit changed nothing.
func (d *Delta) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// Store versions one logical graph through batched edge mutations. Reads
// (Graph, Epoch) are one lock-free atomic load; Commits serialize against
// each other but never block readers. The zero value is not ready; use
// NewStore.
type Store struct {
	commitMu sync.Mutex // serializes Commit
	cur      atomic.Pointer[Graph]
}

// NewStore creates a store whose epoch-0 snapshot is g. The store assumes
// ownership of nothing: g must not be mutated by the caller afterwards
// (the usual immutability contract of this package).
func NewStore(g *Graph) *Store {
	s := &Store{}
	s.cur.Store(g)
	return s
}

// Epoch returns the current snapshot's version.
func (s *Store) Epoch() uint64 { return s.cur.Load().Epoch() }

// Graph returns the current snapshot. A reader that loaded it keeps a
// consistent view for as long as it holds the pointer: the graph is
// immutable, and a later Commit publishes a new one beside it.
func (s *Store) Graph() *Graph { return s.cur.Load() }

// Commit applies one mutation batch and publishes the resulting snapshot
// under the next epoch. The batch is normalized first (orientation, last
// op per edge wins, no-ops dropped — see Delta); a batch that changes
// nothing returns a Delta with Old == New and does NOT advance the epoch,
// so pure-duplicate traffic cannot churn caches keyed by it. Endpoints
// must lie in [0, NumVertices()); the vertex set is fixed at NewStore
// (deleting every edge of a vertex leaves it isolated, it never
// disappears).
//
// Concurrent Commits serialize; each sees the graph its predecessor
// produced. Readers are never blocked and never observe a partial batch.
func (s *Store) Commit(batch []EdgeOp) (*Delta, error) {
	return s.CommitWith(batch, nil)
}

// CommitWith is Commit with a pre-publication hook: prepare is invoked on
// the resulting delta after the new snapshot is built but BEFORE it is
// published, still under the commit lock. When prepare returns an error
// (or panics), the commit is abandoned — the epoch does not advance and
// readers never observe the prepared snapshot. This is how derived state
// (e.g. the GS*-Index) stays transactional with the graph: the caller
// updates its derivation inside prepare, and a failed update aborts the
// whole mutation instead of leaving graph and index at different epochs.
// A nil prepare behaves exactly like Commit; prepare is not called for
// no-op batches.
func (s *Store) CommitWith(batch []EdgeOp, prepare func(*Delta) error) (*Delta, error) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	old := s.cur.Load()
	d, err := applyBatch(old, batch)
	if err != nil {
		return nil, err
	}
	if d.Empty() {
		return d, nil
	}
	//lint:snapfreeze pre-publication: d.New is the next snapshot, invisible to readers until the Store below
	d.New.epoch = old.Epoch() + 1
	if prepare != nil {
		if err := prepare(d); err != nil {
			return nil, err
		}
	}
	s.cur.Store(d.New)
	return d, nil
}

// applyBatch normalizes batch against old and builds the new CSR. Pure
// function of its inputs — Commit wraps it with epoch/publication.
func applyBatch(old *Graph, batch []EdgeOp) (*Delta, error) {
	n := old.NumVertices()
	// Normalize: validate range, drop self loops, orient U < V, last op
	// per edge wins (preserving batch order semantics).
	type verdict struct {
		del bool
		seq int
	}
	ops := make(map[Edge]verdict, len(batch))
	ignored := 0
	for i, op := range batch {
		if op.U < 0 || op.U >= n || op.V < 0 || op.V >= n {
			return nil, fmt.Errorf("graph: edge op (%d,%d) out of range [0,%d)", op.U, op.V, n)
		}
		if op.U == op.V {
			ignored++
			continue
		}
		e := Edge{U: op.U, V: op.V}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		if _, dup := ops[e]; dup {
			ignored++ // the earlier op on this edge is superseded
		}
		ops[e] = verdict{del: op.Del, seq: i}
	}
	// Split into effective adds/removes against the current edge set.
	var added, removed []Edge
	for e, v := range ops {
		present := old.HasEdge(e.U, e.V)
		switch {
		case v.del && present:
			removed = append(removed, e)
		case !v.del && !present:
			added = append(added, e)
		default:
			ignored++ // insert of an existing edge / delete of a missing one
		}
	}
	sortEdges(added)
	sortEdges(removed)
	d := &Delta{Old: old, New: old, Added: added, Removed: removed, Ignored: ignored}
	if d.Empty() {
		return d, nil
	}
	// Touched vertices and their per-vertex change lists.
	addsOf := map[int32][]int32{}
	delsOf := map[int32][]int32{}
	for _, e := range added {
		addsOf[e.U] = append(addsOf[e.U], e.V)
		addsOf[e.V] = append(addsOf[e.V], e.U)
	}
	for _, e := range removed {
		delsOf[e.U] = append(delsOf[e.U], e.V)
		delsOf[e.V] = append(delsOf[e.V], e.U)
	}
	touched := make([]int32, 0, len(addsOf)+len(delsOf))
	for u := range addsOf {
		touched = append(touched, u)
	}
	for u := range delsOf {
		if _, also := addsOf[u]; !also {
			touched = append(touched, u)
		}
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
	d.Touched = touched

	// New offsets from per-vertex degree deltas.
	off := make([]int64, n+1)
	for u := int32(0); u < n; u++ {
		deg := int64(old.Degree(u)) + int64(len(addsOf[u])) - int64(len(delsOf[u]))
		off[u+1] = off[u] + deg
	}
	dst := make([]int32, off[n])
	// Copy-on-write per adjacency run: untouched vertices form contiguous
	// spans in both layouts, copied in bulk; each touched run is re-merged
	// from its old run and sorted change lists.
	var nextTouched int
	for u := int32(0); u < n; {
		if nextTouched < len(touched) && touched[nextTouched] == u {
			merged := mergeRun(old.Neighbors(u), addsOf[u], delsOf[u])
			copy(dst[off[u]:off[u+1]], merged)
			nextTouched++
			u++
			continue
		}
		// Extend the untouched span as far as possible, then bulk-copy it.
		stop := n
		if nextTouched < len(touched) {
			stop = touched[nextTouched]
		}
		copy(dst[off[u]:off[stop]], old.Dst[old.Off[u]:old.Off[stop]])
		u = stop
	}
	d.New = newGraph(off, dst)
	return d, nil
}

// mergeRun produces the new sorted neighbor run: old minus dels plus
// adds. adds and dels are small and unsorted; they are sorted in place.
func mergeRun(old, adds, dels []int32) []int32 {
	sortInt32(adds)
	sortInt32(dels)
	out := make([]int32, 0, len(old)+len(adds))
	ai, di := 0, 0
	for _, v := range old {
		for ai < len(adds) && adds[ai] < v {
			out = append(out, adds[ai])
			ai++
		}
		if di < len(dels) && dels[di] == v {
			di++
			continue
		}
		out = append(out, v)
	}
	out = append(out, adds[ai:]...)
	return out
}

func sortEdges(edges []Edge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
}

func sortInt32(s []int32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
