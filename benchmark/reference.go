package main

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ppscan"
	"ppscan/graph"
	"ppscan/internal/simdef"
)

// reference answers (ε, µ) clusterings straight from the SCAN definitions,
// sharing no code with any engine, kernel or the GS*-Index: one plain merge
// per arc gives |Γ(u) ∩ Γ(v)|, after which every key is a linear pass. It
// is the oracle all six workloads are checked against, cheap enough (one
// pass over the arcs per key) to run outside the window on every run.
type reference struct {
	g   *graph.Graph
	off []int64 // off[u] is the position of u's first arc
	cn  []int32 // per arc u→v: |Γ(u) ∩ Γ(v)| + 2, the closed-neighbourhood overlap
}

func newReference(g *graph.Graph) *reference {
	n := g.NumVertices()
	r := &reference{g: g, off: make([]int64, n+1)}
	for u := int32(0); u < n; u++ {
		r.off[u+1] = r.off[u] + int64(g.Degree(u))
	}
	r.cn = make([]int32, r.off[n])
	// Each arc is computed on its own (twice per edge): no mirror lookup,
	// and the vertex ranges split cleanly over the cores.
	workers := runtime.GOMAXPROCS(0)
	var next atomic.Int32
	const stride = 512
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := next.Add(stride) - stride
				if lo >= n {
					return
				}
				for u := lo; u < min(lo+stride, n); u++ {
					nu := g.Neighbors(u)
					for i, v := range nu {
						r.cn[r.off[u]+int64(i)] = overlap(nu, g.Neighbors(v)) + 2
					}
				}
			}
		}()
	}
	wg.Wait()
	return r
}

// overlap is |a ∩ b| for sorted lists. Skewed pairs binary-search the long
// list so a hub's arcs cost deg(small)·log(deg(hub)), not deg(hub).
func overlap(a, b []int32) int32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	var cn int32
	if len(b) > 16*len(a) {
		for _, x := range a {
			lo, hi := 0, len(b)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if b[mid] < x {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < len(b) && b[lo] == x {
				cn++
			}
			b = b[lo:]
		}
		return cn
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			cn++
			i++
			j++
		}
	}
	return cn
}

// cluster returns the exact clustering for one key: cores by counting
// similar neighbours, clusters as components of similar core–core edges
// named by their smallest core, and every similar (core, non-core) pair as
// a membership.
func (r *reference) cluster(eps string, mu int) (*ppscan.Result, error) {
	e, err := simdef.ParseEpsilon(eps)
	if err != nil {
		return nil, err
	}
	g, n := r.g, r.g.NumVertices()
	similar := func(u int32, i int, v int32) bool {
		return e.Pred(r.cn[r.off[u]+int64(i)], g.Degree(u), g.Degree(v))
	}
	res := &ppscan.Result{
		Eps:           eps,
		Mu:            int32(mu),
		Roles:         make([]ppscan.Role, n),
		CoreClusterID: make([]int32, n),
	}
	for u := int32(0); u < n; u++ {
		cnt := 0
		for i, v := range g.Neighbors(u) {
			if similar(u, i, v) {
				cnt++
			}
		}
		res.Roles[u] = ppscan.RoleNonCore
		if cnt >= mu {
			res.Roles[u] = ppscan.RoleCore
		}
	}
	parent := make([]int32, n)
	for u := range parent {
		parent[u] = int32(u)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := int32(0); u < n; u++ {
		if res.Roles[u] != ppscan.RoleCore {
			continue
		}
		for i, v := range g.Neighbors(u) {
			if u < v && res.Roles[v] == ppscan.RoleCore && similar(u, i, v) {
				// Union towards the smaller root, so a root is always its
				// component's smallest core: the cluster id.
				a, b := find(u), find(v)
				if a < b {
					parent[b] = a
				} else {
					parent[a] = b
				}
			}
		}
	}
	for u := int32(0); u < n; u++ {
		res.CoreClusterID[u] = -1
		if res.Roles[u] == ppscan.RoleCore {
			res.CoreClusterID[u] = find(u)
		}
	}
	for u := int32(0); u < n; u++ {
		if res.Roles[u] != ppscan.RoleCore {
			continue
		}
		for i, v := range g.Neighbors(u) {
			if res.Roles[v] == ppscan.RoleNonCore && similar(u, i, v) {
				res.NonCore = append(res.NonCore, ppscan.Membership{V: v, ClusterID: res.CoreClusterID[u]})
			}
		}
	}
	res.Normalize()
	return res, nil
}

// answer is what GET /cluster reports about a clustering; serving
// workloads compare these three counts.
type answer struct {
	Clusters, Cores, Memberships int
}

func answerOf(r *ppscan.Result) answer {
	return answer{Clusters: r.NumClusters(), Cores: r.NumCores(), Memberships: len(r.NonCore)}
}
