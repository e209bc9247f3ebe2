// Package snapfix exercises the snapfreeze analyzer against miniature
// mirrors of graph.Graph and gsindex.Index. directElementWrite is the
// historically-real shape: one stray store into a published CSR array
// races every lock-free reader of that epoch.
package snapfix

import "sort"

// Graph mirrors ppscan/graph.Graph's frozen surface.
type Graph struct {
	Off   []int64
	Dst   []int32
	at    []int64
	epoch uint64
}

// Index mirrors ppscan/internal/gsindex.Index's frozen surface.
type Index struct {
	cn    []int32
	nbr   []int32
	at    []int64
	arena *arena
}

// arena mirrors the storage a chain of indexes shares.
type arena struct{ used int64 }

// Neighbors mirrors the aliasing accessor: the returned slice shares
// backing with g.Dst. Slicing in read position is not a write, so the
// accessor itself needs no annotation.
func (g *Graph) Neighbors(u int32) []int32 {
	return g.Dst[g.Off[u]:g.Off[u+1]]
}

// directElementWrite is the real bug shape: a store into a published CSR
// array.
func directElementWrite(g *Graph) {
	g.Dst[0] = 1 // want `write to Graph.Dst`
}

func wholeFieldWrite(g *Graph, dst []int32) {
	g.Dst = dst // want `write to Graph.Dst`
}

func offsetWrite(g *Graph) {
	g.Off[2] = 9 // want `write to Graph.Off`
}

// graphRunStartWrite: repointing a published graph's run is a write too.
func graphRunStartWrite(g *Graph, u int) {
	g.at[u] = 4 // want `write to Graph.at`
}

func epochStamp(g *Graph) {
	g.epoch++ // want `write to Graph.epoch`
}

func indexWrite(ix *Index) {
	ix.cn[3] = 7 // want `write to Index.cn`
}

func nbrWrite(ix *Index, i int) {
	ix.nbr[i]-- // want `write to Index.nbr`
}

// runStartWrite: repointing a published index's run is a write too.
func runStartWrite(ix *Index, u int) {
	ix.at[u] = 4 // want `write to Index.at`
}

func arenaSwap(ix *Index) {
	ix.arena = &arena{} // want `write to Index.arena`
}

// aliasThroughNeighbors: the slice returned by Neighbors shares backing
// with g.Dst, so a store through it is a graph write.
func aliasThroughNeighbors(g *Graph) {
	nbrs := g.Neighbors(0)
	nbrs[0] = 2 // want `write to nbrs \(aliases Graph.Neighbors\(\)\)`
}

// aliasThroughSliceExpr: same for a manual slice of the field.
func aliasThroughSliceExpr(g *Graph) {
	row := g.Dst[0:4]
	row[1] = 7 // want `write to row \(aliases Graph.Dst\)`
}

// aliasOfAlias: re-slicing an alias still aliases the graph.
func aliasOfAlias(g *Graph) {
	row := g.Dst[0:4]
	sub := row[1:]
	sub[0] = 3 // want `write to sub \(aliases row \(aliases Graph.Dst\)\)`
}

func copyIntoField(g *Graph, src []int32) {
	copy(g.Dst, src) // want `write to Graph.Dst`
}

func copyIntoAlias(g *Graph, src []int32) {
	nbrs := g.Neighbors(1)
	copy(nbrs, src) // want `write to nbrs \(aliases Graph.Neighbors\(\)\)`
}

func sortField(g *Graph) {
	sort.Slice(g.Dst[0:4], func(i, j int) bool { return true }) // want `write to Graph.Dst`
}

// readsAreFine: loads from frozen fields and aliases are what the arrays
// are for.
func readsAreFine(g *Graph) int32 {
	nbrs := g.Neighbors(0)
	total := int32(len(nbrs))
	for _, v := range nbrs {
		total += v
	}
	return total + g.Dst[0] + int32(g.Off[1])
}

// localBuildIsFine: the construction idiom — build in locals, publish via
// a composite literal — never touches a frozen field.
func localBuildIsFine(off []int64, dst []int32) *Graph {
	sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
	for i := range dst {
		dst[i]++
	}
	return &Graph{Off: off, Dst: dst}
}

// rebindIsFine: reassigning the alias variable itself is not a write to
// the graph.
func rebindIsFine(g *Graph, other []int32) []int32 {
	nbrs := g.Neighbors(0)
	nbrs = other
	return nbrs
}

// annotatedBuilder shows the escape hatch for pre-publication mutation.
//
//lint:snapfreeze fixture: graph is unpublished until this builder returns
func annotatedBuilder(g *Graph) {
	g.Dst[0] = 1
	g.epoch = 1
}
