// Package pscan implements the sequential pSCAN algorithm (Chang et al.,
// ICDE 2016; Algorithm 2 of the ppSCAN paper): pruning-based structural
// clustering with min-max pruning, similarity-value reuse, and union-find
// based core clustering.
//
// pSCAN is the state-of-the-art sequential baseline that ppSCAN
// parallelizes; Figures 1–4 compare against it.
package pscan

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"time"

	"ppscan/graph"
	"ppscan/internal/engine"
	"ppscan/internal/intersect"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
	"ppscan/internal/unionfind"
)

// Order selects the vertex processing order of the core-checking loop.
// pSCAN processes vertices in non-increasing effective-degree order to
// maximize min-max pruning; ppSCAN drops that priority queue (§4.1) after
// verifying experimentally that its effect on workload reduction is
// negligible. The alternatives exist to reproduce that ablation.
type Order int

const (
	// OrderEffectiveDegree is pSCAN's dynamic non-increasing ed order via
	// a lazy max-heap (the faithful default).
	OrderEffectiveDegree Order = iota
	// OrderStaticDegree processes vertices by non-increasing initial
	// degree (a static approximation of the ed order).
	OrderStaticDegree
	// OrderNatural processes vertices in id order (no priority at all,
	// ppSCAN's choice).
	OrderNatural
)

// String implements fmt.Stringer.
func (o Order) String() string {
	switch o {
	case OrderEffectiveDegree:
		return "effective-degree"
	case OrderStaticDegree:
		return "static-degree"
	case OrderNatural:
		return "natural"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// Options carries the two experiment knobs engine.Options has no place for.
type Options struct {
	// Breakdown enables the fine-grained similarity-vs-reduction timers
	// used by the Figure 1 experiment. Per-edge timer reads cost real time
	// on edge-heavy graphs, so they are off by default.
	Breakdown bool
	// Order selects the core-checking vertex order (ablation knob; the
	// default is the paper-faithful effective-degree order).
	Order Order
}

func init() {
	engine.Register(engine.Engine{Name: "pscan", Kernel: intersect.MergeEarly,
		Run: func(_ context.Context, g *graph.Graph, th simdef.Threshold, opt engine.Options, ws *engine.Workspace) (*result.Result, error) {
			return Run(g, th, opt, Options{}, ws), nil
		}})
}

// Run executes pSCAN on g and returns the clustering result; of opt it
// reads Kernel alone (the faithful baseline is intersect.MergeEarly: merge
// with min-max early termination). The O(n+m) scratch (similarity labels,
// the sd/ed bound arrays and the union-find) is drawn from a pooled
// workspace; nil ws runs on a transient one. Result slices never alias ws
// memory — only internal scratch is pooled here.
func Run(g *graph.Graph, th simdef.Threshold, opt engine.Options, x Options, ws *engine.Workspace) *result.Result {
	if ws == nil {
		ws = engine.NewWorkspace()
		defer ws.Close()
	}
	start := time.Now()
	n := g.NumVertices()
	s := &state{
		g:      g,
		th:     th,
		kernel: opt.Kernel,
		timing: x.Breakdown,
		roles:  make([]result.Role, n),
	}
	s.sim = ws.EdgeSims(int(g.NumDirectedEdges()))
	s.sd, s.ed = ws.Bounds(int(n))
	s.uf = ws.SequentialUF(n)
	for u := int32(0); u < n; u++ {
		s.ed[u] = g.Degree(u)
	}

	switch x.Order {
	case OrderEffectiveDegree:
		s.runEffectiveDegreeOrder()
	case OrderStaticDegree:
		order := make([]int32, n)
		for u := int32(0); u < n; u++ {
			order[u] = u
		}
		sort.Slice(order, func(i, j int) bool {
			di, dj := g.Degree(order[i]), g.Degree(order[j])
			if di != dj {
				return di > dj
			}
			return order[i] < order[j]
		})
		s.runStaticOrder(order)
	case OrderNatural:
		order := make([]int32, n)
		for u := int32(0); u < n; u++ {
			order[u] = u
		}
		s.runStaticOrder(order)
	default:
		panic(fmt.Sprintf("pscan: unknown order %v", x.Order))
	}

	return s.finalize(start)
}

// runEffectiveDegreeOrder performs core checking and clustering in
// non-increasing ed order via a lazy max-heap: stale entries (whose key no
// longer matches ed[u]) are re-pushed with the current key.
func (s *state) runEffectiveDegreeOrder() {
	n := s.g.NumVertices()
	var t0 time.Time
	if s.timing {
		t0 = time.Now()
	}
	h := make(edHeap, 0, n)
	for u := int32(0); u < n; u++ {
		h = append(h, edEntry{ed: s.ed[u], u: u})
	}
	heap.Init(&h)
	if s.timing {
		s.reductionTime += time.Since(t0)
		t0 = time.Now()
	}
	for h.Len() > 0 {
		top := heap.Pop(&h).(edEntry)
		u := top.u
		if s.roles[u] != result.RoleUnknown {
			continue
		}
		if top.ed != s.ed[u] {
			heap.Push(&h, edEntry{ed: s.ed[u], u: u})
			continue
		}
		if s.timing {
			s.reductionTime += time.Since(t0)
		}
		s.checkCore(u)
		if s.roles[u] == result.RoleCore {
			s.clusterCore(u)
		}
		if s.timing {
			t0 = time.Now()
		}
	}
}

// runStaticOrder performs core checking and clustering in a fixed vertex
// order (the §4.1 ablation: the priority queue's effect on workload
// reduction is negligible).
func (s *state) runStaticOrder(order []int32) {
	for _, u := range order {
		if s.roles[u] != result.RoleUnknown {
			continue
		}
		s.checkCore(u)
		if s.roles[u] == result.RoleCore {
			s.clusterCore(u)
		}
	}
}

type state struct {
	g             *graph.Graph
	th            simdef.Threshold
	kernel        intersect.Kind
	timing        bool
	roles         []result.Role
	sim           []simdef.EdgeSim
	sd, ed        []int32
	uf            *unionfind.Sequential
	compSimCalls  int64
	simTime       time.Duration
	reductionTime time.Duration
}

// compSim evaluates one structural similarity and stores it on both
// directed edges (similarity-value reuse, §3.2.1), updating the sd/ed
// bounds of both endpoints. Edges decidable by similarity-predicate pruning
// (§3.2.2) are labeled from the endpoint degrees alone and do not count as
// set-intersection invocations.
func (s *state) compSim(u int32, e int64, v int32) simdef.EdgeSim {
	g := s.g
	var t0 time.Time
	if s.timing {
		t0 = time.Now()
	}
	var val simdef.EdgeSim
	if pr := s.th.Eps.PruneResult(g.Degree(u), g.Degree(v)); pr != simdef.Unknown {
		val = pr
	} else {
		val = intersect.Sim(s.kernel, s.th.Eps, g.Neighbors(u), g.Neighbors(v), nil)
		s.compSimCalls++
	}
	if s.timing {
		s.simTime += time.Since(t0)
		t0 = time.Now()
	}
	s.sim[e] = val
	rev := g.EdgeOffset(v, u) // the baseline's binary-search cross-link, as in the paper
	s.sim[rev] = val
	for _, w := range [2]int32{u, v} {
		if val == simdef.Sim {
			s.sd[w]++
		} else {
			s.ed[w]--
		}
	}
	if s.timing {
		s.reductionTime += time.Since(t0)
	}
	return val
}

// checkCore is Algorithm 2's CheckCore with min-max pruning.
func (s *state) checkCore(u int32) {
	g := s.g
	mu := s.th.Mu
	if s.sd[u] < mu && s.ed[u] >= mu {
		uOff := g.Off[u]
		for i, v := range g.Neighbors(u) {
			e := uOff + int64(i)
			if s.sim[e] != simdef.Unknown {
				continue
			}
			s.compSim(u, e, v)
			if s.sd[u] >= mu || s.ed[u] < mu {
				break
			}
		}
	}
	if s.sd[u] >= mu {
		s.roles[u] = result.RoleCore
	} else {
		s.roles[u] = result.RoleNonCore
	}
}

// clusterCore is Algorithm 2's ClusterCore: union u with neighboring proven
// cores over similar edges, with union-find pruning.
func (s *state) clusterCore(u int32) {
	g := s.g
	mu := s.th.Mu
	uOff := g.Off[u]
	for i, v := range g.Neighbors(u) {
		if s.sd[v] < mu || s.uf.Same(u, v) {
			continue
		}
		e := uOff + int64(i)
		if s.sim[e] == simdef.Unknown {
			s.compSim(u, e, v)
		}
		if s.sim[e] == simdef.Sim {
			s.uf.Union(u, v)
		}
	}
}

// finalize runs cluster-id initialization and non-core clustering
// (Algorithm 2 line 8) and assembles the result.
func (s *state) finalize(start time.Time) *result.Result {
	g := s.g
	n := g.NumVertices()
	res := &result.Result{
		Eps:           s.th.Eps.String(),
		Mu:            s.th.Mu,
		Roles:         s.roles,
		CoreClusterID: result.CoreClusterIDs(s.roles, s.uf),
	}
	// ClusterNonCores: cores assign their cluster id to similar non-core
	// neighbors, computing still-unknown similarities on demand.
	for u := int32(0); u < n; u++ {
		if s.roles[u] != result.RoleCore {
			continue
		}
		id := res.CoreClusterID[u]
		uOff := g.Off[u]
		for i, v := range g.Neighbors(u) {
			if s.roles[v] != result.RoleNonCore {
				continue
			}
			e := uOff + int64(i)
			if s.sim[e] == simdef.Unknown {
				s.compSim(u, e, v)
			}
			if s.sim[e] == simdef.Sim {
				res.NonCore = append(res.NonCore, result.Membership{V: v, ClusterID: id})
			}
		}
	}
	res.Normalize()
	res.Stats = result.Stats{
		Algorithm:      "pSCAN",
		Workers:        1,
		CompSimCalls:   s.compSimCalls,
		Total:          time.Since(start),
		SimilarityTime: s.simTime,
		ReductionTime:  s.reductionTime,
	}
	return res
}

// edEntry is a lazy max-heap entry keyed by effective degree.
type edEntry struct {
	ed int32
	u  int32
}

type edHeap []edEntry

func (h edHeap) Len() int { return len(h) }
func (h edHeap) Less(i, j int) bool {
	if h[i].ed != h[j].ed {
		return h[i].ed > h[j].ed // max-heap on ed
	}
	return h[i].u < h[j].u
}
func (h edHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *edHeap) Push(x any)   { *h = append(*h, x.(edEntry)) }
func (h *edHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

var _ heap.Interface = (*edHeap)(nil)
