// Incremental index maintenance: ApplyBatch repairs an index across one
// graph.Store commit instead of rebuilding it.
//
// Two observations make the repair proportional to the batch rather than
// to the graph:
//
//  1. cn locality. cn(u, v) = |Γ(u) ∩ Γ(v)| changes only when some w
//     enters or leaves the common neighborhood, which requires a mutation
//     on (u, w) or (v, w) with the third vertex adjacent to the opposite
//     endpoint. Each such change is an exact ±1: inserting (a, b) adds b
//     to the common neighborhood of every surviving pair (a, v) with
//     v ∈ Γnew(a) ∩ Γnew(b); deleting (a, b) removes it for
//     v ∈ Γnew(a) ∩ Γold(b). Walking those merges per mutation and adding
//     the delta to both directed slots maintains every surviving count
//     without a single intersection; a pair the batch itself inserts takes
//     its count from the same walk. Two guards keep the deltas exact:
//     pairs that are themselves inserted are skipped (their walk already
//     sees every w), and when both (a, w) and (v, w) are mutated the
//     shared w is counted from the smaller endpoint only. Every other
//     count is copied.
//  2. order factorization. The neighbor order of u compares entries by
//     cn²/((d(u)+1)(d(v)+1)), and the (d(u)+1) factor is common to both
//     sides of every within-run comparison — the run's relative order
//     depends only on each entry's (cn(u, v), d(v)) pair. A run can
//     therefore change only if u's adjacency changed (touched), a delta
//     landed on one of its counts, or a neighbor's degree changed
//     (affected). Every other run is copied.
//
// Touched and affected runs go through sortRun, the routine Build sorts
// every run with: a touched run is presorted afresh by a float key, and
// an untouched affected run keeps its copied order; either is finished by
// one exact insertion pass. The run comparator is a strict total order
// (similarity ties break on vertex id), so the sorted permutation is
// unique: the repaired arrays are bit-identical to what a from-scratch
// Build over the new snapshot would produce — the invariant the
// equivalence tests pin down.
package gsindex

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"ppscan/graph"
	"ppscan/internal/engine"
	"ppscan/internal/sched"
	"ppscan/internal/simdef"
)

// applyWorker is one worker's grow-only run-sorting scratch, used by
// Build and ApplyBatch alike. cnr and nbrs borrow the counts and the
// adjacency of the run being sorted; dv1 caches each entry's d(v)+1, and
// keys holds a fresh run's presort words.
type applyWorker struct {
	cnr, nbrs []int32
	dv1       []uint64
	keys      []uint64
}

// compare orders the current run's entries a, b: higher similarity
// first, ties on smaller neighbor id. The (d(u)+1) factor common to both
// sides is dropped — the comparison is exact without it. When both cn
// values fit 20 bits and both d(v)+1 keys fit 21 bits (the common case by
// a wide margin), one 64-bit multiply per side is exact:
// cn² · (d(v)+1) < 2⁴⁰ · 2²¹. Larger operands take the 128-bit path.
func (w *applyWorker) compare(a, b int32) int {
	ca, cb := uint64(uint32(w.cnr[a])), uint64(uint32(w.cnr[b]))
	da, db := w.dv1[a], w.dv1[b]
	var c int
	if (ca|cb) < 1<<20 && (da|db) < 1<<21 {
		c = cmp.Compare(cb*cb*da, ca*ca*db)
	} else {
		c = -simdef.CompareSimValues(w.cnr[a], da, w.cnr[b], db)
	}
	if c != 0 {
		return c
	}
	return cmp.Compare(w.nbrs[a], w.nbrs[b])
}

// bind points w's comparator at u's run and returns the run's order.
func (w *applyWorker) bind(ix *Index, u int32) []int32 {
	g := ix.g
	off, nbrs := g.Off[u], g.Neighbors(u)
	w.cnr, w.nbrs = ix.cn[off:off+int64(len(nbrs))], nbrs
	w.dv1 = grow(w.dv1, len(nbrs))
	for i, v := range nbrs {
		w.dv1[i] = uint64(g.Degree(v)) + 1
	}
	return ix.order[off : off+int64(len(nbrs))]
}

// misordered returns the first position k > 0 at which u's run is not
// strictly increasing under compare, or 0 when the whole run is. The run
// must be a permutation of its positions.
func (w *applyWorker) misordered(ix *Index, u int32) int {
	ord := w.bind(ix, u)
	for k := 1; k < len(ord); k++ {
		if w.compare(ord[k-1], ord[k]) >= 0 {
			return k
		}
	}
	return 0
}

// sortRun sorts u's neighbor-order run under compare; it is the one
// routine that orders runs, for Build and ApplyBatch alike. A fresh run is
// first presorted by a float key: each entry's word is
// ^float32bits(cn²/(d(v)+1))<<32 | run index, so an ascending slices.Sort
// puts higher similarity first and breaks key ties on the index, which is
// neighbor order. While cn < 2²⁶ the key is a composition of correctly
// rounded operations, so it never puts a larger similarity after a smaller
// one; it can only merge distinct similarities into one key. A run that is
// not fresh keeps the permutation it holds. Either way one exact insertion
// pass under compare finishes the sort, at the cost of a pass over the run
// plus a slot per displaced entry — so compare decides every order.
//
//lint:snapfreeze pre-publication: receiver is always the still-private index under construction or repair
func (ix *Index) sortRun(u int32, w *applyWorker, fresh bool) {
	ord := w.bind(ix, u)
	if fresh {
		w.keys = grow(w.keys, len(ord))
		for i, c := range w.cnr {
			cf := float64(c)
			key := ^math.Float32bits(float32(cf * cf / float64(w.dv1[i])))
			w.keys[i] = uint64(key)<<32 | uint64(i)
		}
		slices.Sort(w.keys)
		for i, k := range w.keys {
			ord[i] = int32(uint32(k))
		}
	}
	for k := 1; k < len(ord); k++ {
		x, j := ord[k], k
		for ; j > 0 && w.compare(x, ord[j-1]) < 0; j-- {
			ord[j] = ord[j-1]
		}
		ord[j] = x
	}
}

// applyScratch is the grow-only scratch ApplyBatch parks in the
// workspace: shared pair lists plus per-worker sort buffers.
type applyScratch struct {
	// addList/remList hold both directed orientations of the batch's
	// inserted/removed edges, packed u<<32|v and sorted — the per-vertex
	// mutation segments the delta walks consult. addOff/remOff are their
	// counting-sort segment starts (len n+1), so a vertex's segment is an
	// O(1) lookup instead of a binary search per walk.
	addList, remList []uint64
	addOff, remOff   []int32
	// touchedB/affectedB: per-vertex bitsets (adjacency changed / order
	// needs repair), cleared wholesale each apply — n/8 bytes.
	touchedB, affectedB []uint64
	w                   []*applyWorker
}

// applyScratchKey identifies the repair scratch in Workspace.Scratch.
const applyScratchKey = "gsindex.apply"

// grow returns s resized to n, reallocating only when capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2+8)
	}
	return s[:n]
}

// ApplyBatch derives the index for d.New from the index over d.Old,
// recomputing only what the commit can have changed. The receiver must be
// the index of d.Old (pointer identity); the receiver itself is not
// modified — like a Store commit, maintenance produces a new immutable
// Index so in-flight queries against the old snapshot stay consistent. A
// no-op delta returns the receiver unchanged.
//
// Scratch (bitmaps, pair lists, per-worker sort buffers) is drawn from
// ws; only the new index payload is allocated. A nil ws uses a throwaway
// workspace. ctx cancels between passes and between scheduler task
// batches, exactly like BuildContext; a cancelled apply returns
// (nil, ctx.Err()) with no partial index.
//
// Cost: O(|spans| + Σ_{(a,b) ∈ batch} (d(a)+d(b)) + |added|·d̄ +
// Σ_{u ∈ affected} d(u) log d(u)) against Build's O(Σ_u d(u)·d̄ +
// Σ_u d(u) log d(u)) — surviving counts are maintained by ±1 deltas,
// so only batch-inserted pairs pay an intersection, and only touched and
// affected runs are sorted.
//
//lint:snapfreeze pre-publication: every write lands in nix, which no reader can see until this returns
func (ix *Index) ApplyBatch(ctx context.Context, d *graph.Delta, opt BuildOptions, ws *engine.Workspace) (*Index, error) {
	if d == nil || d.Old != ix.g {
		return nil, fmt.Errorf("gsindex: ApplyBatch delta does not extend this index's snapshot (epoch %d)", ix.g.Epoch())
	}
	if d.Empty() {
		return ix, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if ws == nil {
		ws = engine.NewWorkspace()
		defer ws.Close()
	}
	start := time.Now()
	oldG, newG := d.Old, d.New
	n := newG.NumVertices()
	nix := &Index{
		g:       newG,
		cn:      make([]int32, newG.NumDirectedEdges()),
		order:   make([]int32, newG.NumDirectedEdges()),
		workers: ix.workers,
	}

	sc := ws.Scratch(applyScratchKey, func() any { return new(applyScratch) }).(*applyScratch)
	for len(sc.w) < opt.workers() {
		sc.w = append(sc.w, new(applyWorker))
	}
	// The workers' comparator state borrows runs of the new snapshot's cn
	// and adjacency arrays; drop it on every exit path, or an idle pooled
	// workspace pins a whole superseded epoch until its next apply.
	defer func() {
		for _, w := range sc.w {
			w.cnr, w.nbrs = nil, nil
		}
	}()

	// Bitmaps: touched (adjacency changed) and affected (order needs
	// repair — see pass 3). Bitsets clear in n/8 bytes per apply, where
	// bool arrays would memclr 8× that.
	sc.touchedB = grow(sc.touchedB, int(n>>6)+1)
	sc.affectedB = grow(sc.affectedB, int(n>>6)+1)
	touched, affected := sc.touchedB, sc.affectedB
	clear(touched)
	clear(affected)
	for _, u := range d.Touched {
		touched[u>>6] |= 1 << (uint(u) & 63)
	}

	// Pass 0: lay out the batch's directed mutation segments — both
	// orientations of inserted and removed edges, sorted — which the
	// delta walks of pass 2 consult per vertex.
	addList := sc.addList[:0]
	for _, e := range d.Added {
		addList = append(addList,
			uint64(uint32(e.U))<<32|uint64(uint32(e.V)),
			uint64(uint32(e.V))<<32|uint64(uint32(e.U)))
	}
	slices.Sort(addList)
	remList := sc.remList[:0]
	for _, e := range d.Removed {
		remList = append(remList,
			uint64(uint32(e.U))<<32|uint64(uint32(e.V)),
			uint64(uint32(e.V))<<32|uint64(uint32(e.U)))
	}
	slices.Sort(remList)
	sc.addOff = grow(sc.addOff, int(n)+1)
	sc.remOff = grow(sc.remOff, int(n)+1)
	segOffsets := func(off []int32, list []uint64) {
		k := 0
		for u := int32(0); u <= n; u++ {
			for k < len(list) && int32(list[k]>>32) < u {
				k++
			}
			off[u] = int32(k)
		}
	}
	segOffsets(sc.addOff, addList)
	segOffsets(sc.remOff, remList)
	addSeg := func(u int32) []uint64 { return addList[sc.addOff[u]:sc.addOff[u+1]] }
	remSeg := func(u int32) []uint64 { return remList[sc.remOff[u]:sc.remOff[u+1]] }
	sc.addList, sc.remList = addList, remList
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Pass 1: copy every surviving intersection count and the order runs
	// of untouched vertices. Untouched spans between consecutive touched
	// vertices are identical in both snapshots (only at shifted offsets);
	// touched runs align their surviving neighbors by one merge walk.
	// Order entries are run-relative, so they survive the offset shift
	// unchanged.
	var next int
	for u := int32(0); u < n; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if next < len(d.Touched) && d.Touched[next] == u {
			next++
			u++
			continue
		}
		stop := n
		if next < len(d.Touched) {
			stop = d.Touched[next]
		}
		copy(nix.cn[newG.Off[u]:newG.Off[stop]], ix.cn[oldG.Off[u]:oldG.Off[stop]])
		copy(nix.order[newG.Off[u]:newG.Off[stop]], ix.order[oldG.Off[u]:oldG.Off[stop]])
		u = stop
	}
	for _, u := range d.Touched {
		oldNbrs, newNbrs := oldG.Neighbors(u), newG.Neighbors(u)
		oo, no := oldG.Off[u], newG.Off[u]
		i, j := 0, 0
		for i < len(oldNbrs) && j < len(newNbrs) {
			switch {
			case oldNbrs[i] == newNbrs[j]:
				nix.cn[no+int64(j)] = ix.cn[oo+int64(i)]
				i++
				j++
			case oldNbrs[i] < newNbrs[j]:
				i++ // removed: slot dropped
			default:
				j++ // inserted: counted in pass 2
			}
		}
	}

	// Pass 2: maintain the counts. Every changed count of a surviving
	// pair is an exact ±1 per mutation: inserting (a, b) walks
	// v ∈ Γnew(a) ∩ Γnew(b) (b joined those common neighborhoods),
	// deleting (a, b) walks v ∈ Γnew(a) ∩ Γold(b) (b left them), each
	// orientation of each mutation once. Pairs that are themselves
	// inserted are skipped — their count falls out of the same walk: the
	// merge contribAdd(a, b) traverses IS |Γnew(a) ∩ Γnew(b)|, so the
	// inserted pair's count is the walk's common-neighbor tally and no
	// intersection is ever recomputed. A w whose edges to both endpoints
	// were mutated is counted from the smaller endpoint only. Deltas land
	// on both directed slots, and both owners are marked affected.
	applyDelta := func(a, v int32, slotU int64, delta int32) {
		nix.cn[slotU] += delta
		// A search per changed count, not per arc: reverse positions built
		// per epoch would add O(m) to every commit.
		nix.cn[newG.EdgeOffset(v, a)] += delta
		affected[a>>6] |= 1 << (uint(a) & 63)
		affected[v>>6] |= 1 << (uint(v) & 63)
	}
	contribAdd := func(a, b int32) int32 {
		an, bn := newG.Neighbors(a), newG.Neighbors(b)
		adA, adB := addSeg(a), addSeg(b)
		base := newG.Off[a]
		common := int32(0)
		i, j, pa, pb := 0, 0, 0, 0
		for i < len(an) && j < len(bn) {
			va, vb := an[i], bn[j]
			if va < vb {
				i++
				continue
			}
			if va > vb {
				j++
				continue
			}
			v, idx := va, i
			i++
			j++
			common++
			for pa < len(adA) && int32(uint32(adA[pa])) < v {
				pa++
			}
			if pa < len(adA) && int32(uint32(adA[pa])) == v {
				continue // (a, v) itself inserted: recomputed in full
			}
			for pb < len(adB) && int32(uint32(adB[pb])) < v {
				pb++
			}
			if pb < len(adB) && int32(uint32(adB[pb])) == v && a > v {
				continue // (v, b) also inserted: (v, b)'s walk counts this w
			}
			applyDelta(a, v, base+int64(idx), 1)
		}
		return common
	}
	contribDel := func(a, b int32) {
		an, bo := newG.Neighbors(a), oldG.Neighbors(b)
		adA, rmB := addSeg(a), remSeg(b)
		base := newG.Off[a]
		i, j, pa, pb := 0, 0, 0, 0
		for i < len(an) && j < len(bo) {
			va, vb := an[i], bo[j]
			if va < vb {
				i++
				continue
			}
			if va > vb {
				j++
				continue
			}
			v, idx := va, i
			i++
			j++
			for pa < len(adA) && int32(uint32(adA[pa])) < v {
				pa++
			}
			if pa < len(adA) && int32(uint32(adA[pa])) == v {
				continue // (a, v) itself inserted: recomputed in full
			}
			for pb < len(rmB) && int32(uint32(rmB[pb])) < v {
				pb++
			}
			if pb < len(rmB) && int32(uint32(rmB[pb])) == v && a > v {
				continue // (v, b) also removed: (v, b)'s walk counts this w
			}
			applyDelta(a, v, base+int64(idx), -1)
		}
	}
	for _, e := range d.Added {
		c := contribAdd(e.U, e.V) + 2
		contribAdd(e.V, e.U)
		// Two searches per inserted edge, not per arc (see applyDelta).
		nix.cn[newG.EdgeOffset(e.U, e.V)] = c
		nix.cn[newG.EdgeOffset(e.V, e.U)] = c
	}
	for _, e := range d.Removed {
		contribDel(e.U, e.V)
		contribDel(e.V, e.U)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Pass 3: sort the runs that can have changed order — touched runs
	// (afresh), runs that own a changed count (marked by pass 2), and
	// runs with a neighbor whose degree changed (marked here). Every other
	// run keeps its copied order, because the d(u) factor cancels within
	// a run.
	for _, u := range d.Touched {
		affected[u>>6] |= 1 << (uint(u) & 63)
		if oldG.Degree(u) == newG.Degree(u) {
			continue
		}
		for _, v := range newG.Neighbors(u) {
			affected[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	schedOpt := sched.Options{Workers: opt.Workers, DegreeThreshold: opt.DegreeThreshold}
	err := sched.ForEachVertexCtx(ctx, schedOpt, n,
		func(u int32) bool { return affected[u>>6]>>(uint(u)&63)&1 != 0 },
		newG.Degree,
		func(u int32, worker int) {
			nix.sortRun(u, sc.w[worker], touched[u>>6]>>(uint(u)&63)&1 != 0)
		})
	if err != nil {
		return nil, fmt.Errorf("gsindex: apply aborted during repair pass after %v: %w", time.Since(start), err)
	}
	nix.buildTime = time.Since(start)
	return nix, nil
}
