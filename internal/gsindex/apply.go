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
//     shared w is counted from the smaller endpoint only. The walks
//     collect (owner, neighbor, value) entries; every other count is
//     kept with its run.
//  2. order factorization. The neighbor order of u compares entries by
//     cn²/((d(u)+1)(d(v)+1)), and the (d(u)+1) factor is common to both
//     sides of every within-run comparison — the run's relative order
//     depends only on each entry's (cn(u, v), d(v)) pair. A run can
//     therefore change only if u's adjacency changed (touched), a delta
//     landed on one of its counts, or a neighbor's degree changed
//     (affected). Every other run is kept in place.
//
// Runs hold vertex ids and a commit never renumbers them, so a run that
// did not change is shared, not copied: the new index copies its base's
// run starts (Index.at) and appends only the runs it rewrites to the
// arena behind nbr and cn. Those go through sortRun, Build's routine: a
// touched run is loaded position-major and presorted afresh by a float
// key, an untouched affected run starts from its old order, and one exact
// insertion pass finishes either. The run comparator is a strict total
// order (similarity ties break on vertex id), so every repaired run is
// bit-identical to a from-scratch Build's, and Save writes the same bytes.
//
// Only the index whose extent ends at the arena's used mark may append:
// it claims its worst case (Σ new degree over the runs it may rewrite)
// with one CAS, so no apply overwrites a run a live index reads. An apply
// that cannot claim, or whose worst case does not fit, compacts (copyRuns).
package gsindex

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"ppscan/graph"
	"ppscan/internal/engine"
	"ppscan/internal/sched"
	"ppscan/internal/simdef"
)

// applyWorker is one worker's grow-only run-sorting scratch, used by
// Build and ApplyBatch alike. The run being sorted is the entries
// (cnr[i], nbrs[i]): position-major (nbrs the adjacency, cnr in buf) as
// Build and a touched run load it, an untouched run's old order
// otherwise. dv1 caches each entry's d(v)+1, ord is the permutation being
// sorted, and keys holds a fresh run's presort words.
type applyWorker struct {
	cnr, nbrs []int32
	buf, ord  []int32
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

// bind points w's comparator at the entries (cnr[i], nbrs[i]) of g.
func (w *applyWorker) bind(g *graph.Graph, cnr, nbrs []int32) {
	w.cnr, w.nbrs = cnr, nbrs
	w.dv1 = grow(w.dv1, len(nbrs))
	for i, v := range nbrs {
		w.dv1[i] = uint64(g.Degree(v)) + 1
	}
}

// load binds w to u's position-major run in g and returns its counts, for
// the caller to fill; ord is sized to the run.
func (w *applyWorker) load(g *graph.Graph, u int32) []int32 {
	nbrs := g.Neighbors(u)
	w.buf, w.ord = grow(w.buf, len(nbrs)), grow(w.ord, len(nbrs))
	w.bind(g, w.buf, nbrs)
	return w.buf
}

// misordered returns the first position k > 0 at which the bound
// entries are not strictly increasing under compare, or 0 when they all
// are.
func (w *applyWorker) misordered() int {
	for k := int32(1); k < int32(len(w.nbrs)); k++ {
		if w.compare(k-1, k) >= 0 {
			return int(k)
		}
	}
	return 0
}

// stillInOrder reports whether the run (cn, nbr), in order before a commit
// that changed none of its counts, is still in order in g. Only an entry
// whose neighbor's degree changed — a neighbor in touched — can have
// moved, so each such entry is compared with the entries beside it.
func (w *applyWorker) stillInOrder(g *graph.Graph, cn, nbr []int32, touched []uint64) bool {
	for k, v := range nbr {
		if touched[v>>6]>>(uint(v)&63)&1 == 0 {
			continue
		}
		lo, hi := max(k-1, 0), min(k+2, len(nbr))
		if w.bind(g, cn[lo:hi], nbr[lo:hi]); w.misordered() != 0 {
			return false
		}
	}
	return true
}

// misorderedRun is misordered on u's order-major run of ix.
func (w *applyWorker) misorderedRun(ix *Index, u int32) int {
	nbr, cn := ix.run(u)
	w.bind(ix.g, cn, nbr)
	return w.misordered()
}

// sortRun sorts the run w is loaded with under compare and writes it out
// as u's order-major run of ix; it is the one routine that orders runs,
// for Build and ApplyBatch alike. A fresh run is
// first presorted by a float key: each entry's word is
// ^float32bits(cn²/(d(v)+1))<<32 | run index, so an ascending slices.Sort
// puts higher similarity first and breaks key ties on the index, which is
// neighbor order. While cn < 2²⁶ the key is a composition of correctly
// rounded operations, so it never puts a larger similarity after a smaller
// one; it can only merge distinct similarities into one key. A run that is
// not fresh starts from the permutation the caller put in w.ord. Either
// way one exact insertion pass under compare finishes the sort, at the
// cost of a pass over the run plus a slot per displaced entry — so
// compare decides every order.
//
//lint:snapfreeze pre-publication: receiver is always the still-private index under construction or repair
func (ix *Index) sortRun(u int32, w *applyWorker, fresh bool) {
	ord := w.ord
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
	off := ix.at[u]
	nbr, cn := ix.nbr[off:off+int64(len(ord))], ix.cn[off:off+int64(len(ord))]
	for k, i := range ord {
		nbr[k], cn[k] = w.nbrs[i], w.cnr[i]
	}
}

const headroom = 4 // a compacted arena spares m/headroom slots per array for m arcs

// arena is the storage behind a chain of indexes' nbr and cn, their
// capacity. No run a live index reads lies at or past used.
type arena struct{ used atomic.Int64 }

// applyScratch is the grow-only scratch ApplyBatch parks in the
// workspace: shared pair and entry lists plus per-worker sort buffers.
type applyScratch struct {
	// addList/remList hold both directed orientations of the batch's
	// inserted/removed edges, packed u<<32|v and sorted — the per-vertex
	// mutation segments the delta walks consult. addOff/remOff are their
	// counting-sort segment starts (len n+1), so a vertex's segment is an
	// O(1) lookup instead of a binary search per walk.
	addList, remList []uint64
	addOff, remOff   []int32
	// entries holds pass 2's count changes, sorted by (owner, neighbor):
	// ±1 deltas and inserted pairs' whole counts; entOff is their segment
	// starts per owner, like addOff.
	entries []countEntry
	entOff  []int32
	// touchedB/affectedB: per-vertex bitsets (adjacency changed / order
	// needs repair), cleared wholesale each apply — n/8 bytes.
	touchedB, affectedB []uint64
	w                   []*applyWorker
}

// countEntry adds val to the count of neighbor int32(key) in the run of
// owner key>>32.
type countEntry struct {
	key uint64
	val int32
}

// applyScratchKey identifies the repair scratch in Workspace.Scratch.
const applyScratchKey = "gsindex.apply"

// segOffsets fills off (len n+1) with the segment starts of a list of
// count words sorted by their owner, key(k)>>32.
func segOffsets(off []int32, count int, key func(k int) uint64) {
	k := 0
	for u := range off {
		for k < count && key(k)>>32 < uint64(u) {
			k++
		}
		off[u] = int32(k)
	}
}

// packPairs appends both orientations of edges, packed u<<32|v, sorted.
func packPairs(dst []uint64, edges []graph.Edge) []uint64 {
	for _, e := range edges {
		dst = append(dst, uint64(uint32(e.U))<<32|uint64(uint32(e.V)), uint64(uint32(e.V))<<32|uint64(uint32(e.U)))
	}
	slices.Sort(dst)
	return dst
}

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
// ws; only at and the rewritten runs are allocated. A nil ws uses a
// throwaway workspace. ctx cancels between passes and between scheduler
// task batches, exactly like BuildContext; a cancelled apply returns
// (nil, ctx.Err()) with no partial index.
//
// Cost: O(n + Σ_{(a,b) ∈ batch} (d(a)+d(b)) + |added|·d̄ +
// Σ_{u ∈ affected} d(u) log d(u)) against Build's O(Σ_u d(u)·d̄ +
// Σ_u d(u) log d(u)), the n an 8 B copy of at per vertex: only
// batch-inserted pairs pay an intersection, and only affected runs are
// sorted and written (every run, when the apply compacts).
//
//lint:snapfreeze pre-publication: every write lands in nix — a fresh arena, or past ix's extent in the tail the CAS claimed — which no reader can see until this returns
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

	sc := ws.Scratch(applyScratchKey, func() any { return new(applyScratch) }).(*applyScratch)
	for len(sc.w) < opt.workers() {
		sc.w = append(sc.w, new(applyWorker))
	}
	// The workers' comparator state borrows runs of the new snapshot's
	// adjacency and of the old index; drop it on every exit path, or an
	// idle pooled workspace pins whole epochs until its next apply.
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
	addList := packPairs(sc.addList[:0], d.Added)
	remList := packPairs(sc.remList[:0], d.Removed)
	sc.addOff = grow(sc.addOff, int(n)+1)
	sc.remOff = grow(sc.remOff, int(n)+1)
	segOffsets(sc.addOff, len(addList), func(k int) uint64 { return addList[k] })
	segOffsets(sc.remOff, len(remList), func(k int) uint64 { return remList[k] })
	addSeg := func(u int32) []uint64 { return addList[sc.addOff[u]:sc.addOff[u+1]] }
	remSeg := func(u int32) []uint64 { return remList[sc.remOff[u]:sc.remOff[u+1]] }
	sc.addList, sc.remList = addList, remList
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Pass 2: maintain the counts. Every changed count of a surviving
	// pair is an exact ±1 per mutation: inserting (a, b) walks
	// v ∈ Γnew(a) ∩ Γnew(b) (b joined those common neighborhoods),
	// deleting (a, b) walks v ∈ Γnew(a) ∩ Γold(b) (b left them), each
	// orientation of each mutation once. Pairs that are themselves
	// inserted are skipped — their count falls out of the same walk: the
	// merge an insert's walk traverses IS |Γnew(a) ∩ Γnew(b)|, so the
	// inserted pair's count is the walk's common-neighbor tally and no
	// intersection is ever recomputed. A w whose edges to both endpoints
	// were mutated is counted from the smaller endpoint only. Each change
	// is an entry for both directed arcs, and both owners are marked
	// affected; pass 3 applies the entries as it re-sorts the runs.
	entries := sc.entries[:0]
	entry := func(a, v, val int32) {
		entries = append(entries,
			countEntry{uint64(uint32(a))<<32 | uint64(uint32(v)), val},
			countEntry{uint64(uint32(v))<<32 | uint64(uint32(a)), val})
		affected[a>>6] |= 1 << (uint(a) & 63)
		affected[v>>6] |= 1 << (uint(v) & 63)
	}
	// contrib walks v ∈ Γnew(a) ∩ bn, where bn is b's new (insert) or old
	// (delete) adjacency and bMut its segment of the same mutation kind,
	// and returns the walk's common-neighbor tally.
	contrib := func(a int32, bn []int32, bMut []uint64, delta int32) int32 {
		an, adA := newG.Neighbors(a), addSeg(a)
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
			v := va
			i++
			j++
			common++
			for pa < len(adA) && int32(uint32(adA[pa])) < v {
				pa++
			}
			if pa < len(adA) && int32(uint32(adA[pa])) == v {
				continue // (a, v) itself inserted: recomputed in full
			}
			for pb < len(bMut) && int32(uint32(bMut[pb])) < v {
				pb++
			}
			if pb < len(bMut) && int32(uint32(bMut[pb])) == v && a > v {
				continue // (v, b) mutated alike: (v, b)'s walk counts this w
			}
			entry(a, v, delta)
		}
		return common
	}
	for _, e := range d.Added {
		entry(e.U, e.V, contrib(e.U, newG.Neighbors(e.V), addSeg(e.V), 1)+2)
		contrib(e.V, newG.Neighbors(e.U), addSeg(e.U), 1)
	}
	for _, e := range d.Removed {
		contrib(e.U, oldG.Neighbors(e.V), remSeg(e.V), -1)
		contrib(e.V, oldG.Neighbors(e.U), remSeg(e.U), -1)
	}
	slices.SortFunc(entries, func(x, y countEntry) int { return cmp.Compare(x.key, y.key) })
	sc.entries = entries
	sc.entOff = grow(sc.entOff, int(n)+1)
	segOffsets(sc.entOff, len(entries), func(k int) uint64 { return entries[k].key })
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Pass 3 rewrites the runs that can have changed — touched runs, runs
	// owning a changed count (marked by pass 2), and runs with a neighbor
	// whose degree changed (marked here) — with their entries, at most worst
	// arcs. Other runs keep their order: the d(u) factor cancels in a run.
	for _, u := range d.Touched {
		affected[u>>6] |= 1 << (uint(u) & 63)
		if oldG.Degree(u) == newG.Degree(u) {
			continue
		}
		for _, v := range newG.Neighbors(u) {
			affected[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	var worst int64
	for i, word := range affected {
		for ; word != 0; word &= word - 1 {
			worst += int64(newG.Degree(int32(i<<6 + bits.TrailingZeros64(word))))
		}
	}
	// Append past ix's extent if ix owns the arena's tail and worst fits;
	// compact otherwise. end+tail is the append cursor.
	end := int64(len(ix.nbr))
	var nix *Index
	var tail atomic.Int64
	appending := end+worst <= int64(cap(ix.nbr)) && ix.arena.used.CompareAndSwap(end, end+worst)
	if appending {
		nix = &Index{g: newG, at: slices.Clone(ix.at), nbr: ix.nbr[:end+worst], cn: ix.cn[:end+worst], arena: ix.arena, workers: ix.workers}
	} else {
		nix = newIndex(newG, ix.workers, newG.NumDirectedEdges()/headroom)
		nix.copyRuns(ix, touched)
	}
	// place returns where u's rewritten run goes (appending: the tail's next slots).
	place := func(u int32) int64 {
		if appending {
			du := int64(newG.Degree(u))
			nix.at[u] = end + tail.Add(du) - du
		}
		return nix.at[u]
	}
	schedOpt := sched.Options{Workers: opt.Workers, DegreeThreshold: opt.DegreeThreshold}
	err := sched.ForEachVertexCtx(ctx, schedOpt, n,
		func(u int32) bool { return affected[u>>6]>>(uint(u)&63)&1 != 0 },
		newG.Degree,
		func(u int32, worker int) {
			w, ents := sc.w[worker], entries[sc.entOff[u]:sc.entOff[u+1]]
			oldNbr, cnr := ix.run(u)
			if touched[u>>6]>>(uint(u)&63)&1 != 0 {
				// The adjacency changed: load the run position-major, one
				// search per entry, and sort it afresh. An inserted
				// neighbor's entry holds its whole count.
				pos := w.load(newG, u)
				clear(pos)
				for k, v := range oldNbr {
					if i, ok := slices.BinarySearch(w.nbrs, v); ok { // not a removed neighbor
						pos[i] = cnr[k]
					}
				}
				for _, e := range ents {
					i, _ := slices.BinarySearch(w.nbrs, int32(uint32(e.key)))
					pos[i] += e.val
				}
				place(u)
				nix.sortRun(u, w, true)
				return
			}
			// The same neighbors: sort the old run from its old order, its
			// ±1 entries found by one search each among the run's entries.
			if len(ents) > 0 {
				w.buf = grow(w.buf, len(cnr))
				cnr = w.buf[:copy(w.buf, cnr)]
				for k, v := range oldNbr {
					j, _ := slices.BinarySearchFunc(ents, v, func(e countEntry, v int32) int { return cmp.Compare(int32(uint32(e.key)), v) })
					for ; j < len(ents) && int32(uint32(ents[j].key)) == v; j++ {
						cnr[k] += ents[j].val
					}
				}
			}
			if len(ents) == 0 && w.stillInOrder(newG, cnr, oldNbr, touched) {
				return // the same counts, still in order: kept in place
			}
			w.bind(newG, cnr, oldNbr)
			w.ord = grow(w.ord, len(cnr))
			for k := range w.ord {
				w.ord[k] = int32(k)
			}
			place(u)
			nix.sortRun(u, w, false)
		})
	if err != nil {
		return nil, fmt.Errorf("gsindex: apply aborted during repair pass after %v: %w", time.Since(start), err)
	}
	if used := end + tail.Load(); appending { // end nix at its last run; hand back the rest of the claim
		nix.nbr, nix.cn = nix.nbr[:used], nix.cn[:used]
		ix.arena.used.CompareAndSwap(end+worst, used)
	}
	nix.buildTime = time.Since(start)
	return nix, nil
}

// copyRuns is pass 1 of a compacting apply, whose nix is a fresh arena
// laid out at its graph's offsets: it copies every untouched run of ix
// there, one copy per stretch contiguous in ix. Pass 3 writes the rest.
//
//lint:snapfreeze pre-publication: nix is the still-private index ApplyBatch is repairing
func (nix *Index) copyRuns(ix *Index, touched []uint64) {
	isTouched := func(u int32) bool { return touched[u>>6]>>(uint(u)&63)&1 != 0 }
	for u, n := int32(0), nix.g.NumVertices(); u < n; {
		if isTouched(u) {
			u++
			continue
		}
		src, dst, v := ix.at[u], nix.at[u], u+1
		for v < n && !isTouched(v) && ix.at[v]-src == nix.at[v]-dst {
			v++
		}
		k := nix.at[v] - dst
		copy(nix.nbr[dst:dst+k], ix.nbr[src:src+k])
		copy(nix.cn[dst:dst+k], ix.cn[src:src+k])
		u = v
	}
}
