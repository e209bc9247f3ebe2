// Package result defines the common output representation shared by every
// structural clustering algorithm in this module, plus canonicalization,
// equality checking and hub/outlier classification.
//
// SCAN semantics (Definitions 2.9–2.10): cores partition into disjoint
// clusters (Lemma 3.5); a non-core vertex may belong to *several* clusters
// (one per similar neighboring core's cluster); vertices in no cluster are
// hubs (if they bridge two clusters) or outliers. Cluster ids follow
// Definition 3.7: the id of a cluster is the minimum core vertex id in it.
package result

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"ppscan/graph"
	"ppscan/internal/intersect"
	"ppscan/internal/simdef"
)

// Role is a vertex role (Definition 2.5).
type Role int8

const (
	// RoleUnknown is the pre-computation role.
	RoleUnknown Role = iota
	// RoleCore marks vertices with at least µ+1 ε-neighbors.
	RoleCore
	// RoleNonCore marks all other vertices.
	RoleNonCore
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleUnknown:
		return "Unknown"
	case RoleCore:
		return "Core"
	case RoleNonCore:
		return "NonCore"
	default:
		return fmt.Sprintf("Role(%d)", int8(r))
	}
}

// Membership records that non-core vertex V belongs to the cluster with id
// ClusterID.
type Membership struct {
	V         int32
	ClusterID int32
}

// PhaseID indexes the four reported stages of ppSCAN (Figure 6).
type PhaseID int

const (
	// PhasePruning is the similarity-predicate pruning stage.
	PhasePruning PhaseID = iota
	// PhaseCheckCore is core checking + consolidating.
	PhaseCheckCore
	// PhaseClusterCore is two-phase core clustering + cluster-id init.
	PhaseClusterCore
	// PhaseClusterNonCore is the non-core clustering stage.
	PhaseClusterNonCore
	// NumPhases is the stage count.
	NumPhases
)

// PhaseNames are the display names of the four stages, matching Figure 6.
var PhaseNames = [NumPhases]string{
	"similarity-pruning",
	"core-checking",
	"core-clustering",
	"non-core-clustering",
}

// Stats carries per-run instrumentation.
type Stats struct {
	// Algorithm is the producing algorithm's name.
	Algorithm string
	// Workers is the worker count used (1 for sequential algorithms).
	Workers int
	// CompSimCalls counts structural similarity computations (set
	// intersections actually executed), the quantity of Figure 4.
	CompSimCalls int64
	// CompSimByPhase decomposes CompSimCalls per ppSCAN stage (only filled
	// by ppSCAN): almost all intersections happen in core checking; the
	// clustering stages mop up the few edges pruning skipped.
	CompSimByPhase [NumPhases]int64
	// Kernel aggregates set-intersection telemetry across workers (filled
	// by every ppSCAN run): call outcomes, the pruning-bound and
	// early-termination decisions of Definition 3.9, and vectorized-vs-scalar
	// work.
	Kernel intersect.Stats
	// PhaseTimes records wall time per ppSCAN stage (zero for algorithms
	// without that stage).
	PhaseTimes [NumPhases]time.Duration
	// Total is the end-to-end in-memory processing time.
	Total time.Duration
	// CommBytes counts bytes moved between partitions (only filled by the
	// distributed surrogate; the paper's §3.3 communication overhead).
	CommBytes int64
	// SimilarityTime is time spent in similarity evaluation (Figure 1's
	// breakdown); only filled by the sequential baselines.
	SimilarityTime time.Duration
	// ReductionTime is time spent in workload-reduction bookkeeping
	// (Figure 1); only filled by the sequential baselines.
	ReductionTime time.Duration
}

// Result is the output of a structural clustering run.
type Result struct {
	// Eps and Mu echo the parameters of the run.
	Eps string
	Mu  int32
	// Roles holds the final role of every vertex (never RoleUnknown after
	// a completed run).
	Roles []Role
	// CoreClusterID maps each core vertex to its cluster id (the minimum
	// core id in its cluster); -1 for non-cores.
	CoreClusterID []int32
	// NonCore lists non-core cluster memberships, sorted by (V, ClusterID)
	// and deduplicated.
	NonCore []Membership
	// Stats carries instrumentation for the experiment harness.
	Stats Stats
}

// Normalize sorts and deduplicates the non-core membership list in place.
// Algorithms call it once before returning. slices.SortFunc (not
// sort.Slice) keeps the call allocation-free, which the pooled serving
// hot path depends on.
func (r *Result) Normalize() {
	slices.SortFunc(r.NonCore, func(a, b Membership) int {
		if a.V != b.V {
			return int(a.V) - int(b.V)
		}
		return int(a.ClusterID) - int(b.ClusterID)
	})
	out := r.NonCore[:0]
	for i, m := range r.NonCore {
		if i == 0 || m != r.NonCore[i-1] {
			out = append(out, m)
		}
	}
	r.NonCore = out
}

// Clone returns a deep copy of r whose slices share no memory with the
// original. Runs executed on a pooled workspace return results that alias
// workspace buffers (valid only until the workspace's next run); Clone is
// how callers — the server's response cache, conformance suites comparing
// across runs — retain such a result.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	c := *r
	c.Roles = slices.Clone(r.Roles)
	c.CoreClusterID = slices.Clone(r.CoreClusterID)
	c.NonCore = slices.Clone(r.NonCore)
	return &c
}

// NumCores returns the number of core vertices.
func (r *Result) NumCores() int {
	n := 0
	for _, role := range r.Roles {
		if role == RoleCore {
			n++
		}
	}
	return n
}

// NumClusters returns the number of distinct clusters: the cores that
// are their own cluster's id (Definition 3.7), so it allocates nothing.
func (r *Result) NumClusters() int {
	n := 0
	for u, id := range r.CoreClusterID {
		if id == int32(u) {
			n++
		}
	}
	return n
}

// Clusters materializes clusters as a map from cluster id to the sorted
// member list (cores first by construction of ids, then non-cores; members
// are sorted and unique, but a non-core vertex may appear in several
// clusters).
func (r *Result) Clusters() map[int32][]int32 {
	out := make(map[int32][]int32)
	for v, id := range r.CoreClusterID {
		if id >= 0 {
			out[id] = append(out[id], int32(v))
		}
	}
	for _, m := range r.NonCore {
		out[m.ClusterID] = append(out[m.ClusterID], m.V)
	}
	for id := range out {
		members := out[id]
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		// Dedup (a vertex cannot be both core and non-core, and NonCore is
		// already deduped, so this is defensive only).
		uniq := members[:0]
		for i, v := range members {
			if i == 0 || v != members[i-1] {
				uniq = append(uniq, v)
			}
		}
		out[id] = uniq
	}
	return out
}

// Clustered reports, per vertex, whether it belongs to at least one cluster.
func (r *Result) Clustered() []bool {
	out := make([]bool, len(r.Roles))
	for v, id := range r.CoreClusterID {
		if id >= 0 {
			out[v] = true
		}
	}
	for _, m := range r.NonCore {
		out[m.V] = true
	}
	return out
}

// Equal compares two results for semantic equality (same roles, same core
// partition with identical cluster ids, same non-core memberships) and
// returns a descriptive error on the first difference. Stats are ignored.
func Equal(a, b *Result) error {
	if len(a.Roles) != len(b.Roles) {
		return fmt.Errorf("result: vertex counts differ: %d vs %d", len(a.Roles), len(b.Roles))
	}
	for v := range a.Roles {
		if a.Roles[v] != b.Roles[v] {
			return fmt.Errorf("result: role of %d differs: %v vs %v", v, a.Roles[v], b.Roles[v])
		}
	}
	for v := range a.CoreClusterID {
		if a.CoreClusterID[v] != b.CoreClusterID[v] {
			return fmt.Errorf("result: cluster id of core %d differs: %d vs %d",
				v, a.CoreClusterID[v], b.CoreClusterID[v])
		}
	}
	if len(a.NonCore) != len(b.NonCore) {
		return fmt.Errorf("result: non-core membership counts differ: %d vs %d",
			len(a.NonCore), len(b.NonCore))
	}
	for i := range a.NonCore {
		if a.NonCore[i] != b.NonCore[i] {
			return fmt.Errorf("result: non-core membership %d differs: %+v vs %+v",
				i, a.NonCore[i], b.NonCore[i])
		}
	}
	return nil
}

// Attachment classifies vertices that are in no cluster (Definition 2.10).
type Attachment int8

const (
	// AttachClustered marks vertices inside at least one cluster.
	AttachClustered Attachment = iota
	// AttachHub marks unclustered vertices adjacent to two different
	// clusters.
	AttachHub
	// AttachOutlier marks the remaining unclustered vertices.
	AttachOutlier
)

// String implements fmt.Stringer.
func (a Attachment) String() string {
	switch a {
	case AttachClustered:
		return "Clustered"
	case AttachHub:
		return "Hub"
	case AttachOutlier:
		return "Outlier"
	default:
		return fmt.Sprintf("Attachment(%d)", int8(a))
	}
}

// MembershipsOf returns v's run in the (V, ClusterID)-sorted NonCore list,
// found by binary search: no allocation, no pass over the list.
func (r *Result) MembershipsOf(v int32) []Membership {
	lo, _ := slices.BinarySearchFunc(r.NonCore, v, func(m Membership, v int32) int { return cmp.Compare(m.V, v) })
	hi := lo
	for hi < len(r.NonCore) && r.NonCore[hi].V == v {
		hi++
	}
	return r.NonCore[lo:hi]
}

// ClassifyVertex labels u as clustered, hub or outlier (after Definition
// 2.10): a vertex in no cluster is a hub iff two of its neighbors belong to
// different clusters; neighbors contribute every cluster they belong to
// (cores one, non-cores possibly several). It allocates nothing, so asking
// about one vertex costs its adjacency, not the graph.
func ClassifyVertex(g *graph.Graph, r *Result, u int32) Attachment {
	if r.CoreClusterID[u] >= 0 || len(r.MembershipsOf(u)) > 0 {
		return AttachClustered
	}
	seen := int32(-1)
	for _, v := range g.Neighbors(u) {
		if id := r.CoreClusterID[v]; id >= 0 {
			if seen >= 0 && seen != id {
				return AttachHub
			}
			seen = id
			continue
		}
		for _, m := range r.MembershipsOf(v) {
			if seen >= 0 && seen != m.ClusterID {
				return AttachHub
			}
			seen = m.ClusterID
		}
	}
	return AttachOutlier
}

// ClassifyHubsOutliers is ClassifyVertex for every vertex.
func ClassifyHubsOutliers(g *graph.Graph, r *Result) []Attachment {
	out := make([]Attachment, g.NumVertices())
	for u := range out {
		out[u] = ClassifyVertex(g, r, int32(u))
	}
	return out
}

// ValidateAgainst cross-checks a result against the SCAN definitions on the
// input graph: role correctness by brute-force ε-neighborhood counting,
// core-cluster connectivity via similar core edges, and membership validity.
// It is O(sum of d²) and intended for tests on small graphs.
func ValidateAgainst(g *graph.Graph, r *Result, eps simdef.Epsilon, mu int32) error {
	n := g.NumVertices()
	if int32(len(r.Roles)) != n {
		return fmt.Errorf("result: %d roles for %d vertices", len(r.Roles), n)
	}
	simEdge := func(u, v int32) bool {
		cn := bruteIntersect(g.Neighbors(u), g.Neighbors(v)) + 2
		return eps.Pred(cn, g.Degree(u), g.Degree(v))
	}
	// 1. Roles by definition.
	for u := int32(0); u < n; u++ {
		similar := int32(0)
		for _, v := range g.Neighbors(u) {
			if simEdge(u, v) {
				similar++
			}
		}
		wantCore := similar >= mu // |N_eps(u)| = similar+1 >= mu+1
		if wantCore && r.Roles[u] != RoleCore {
			return fmt.Errorf("result: %d should be Core (similar=%d)", u, similar)
		}
		if !wantCore && r.Roles[u] != RoleNonCore {
			return fmt.Errorf("result: %d should be NonCore (similar=%d)", u, similar)
		}
	}
	// 2. Core clusters = connected components of the similar-core graph.
	uf := newSimpleUF(n)
	for u := int32(0); u < n; u++ {
		if r.Roles[u] != RoleCore {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if u < v && r.Roles[v] == RoleCore && simEdge(u, v) {
				uf.union(u, v)
			}
		}
	}
	// Expected id = min core id per component.
	minID := make(map[int32]int32)
	for u := int32(0); u < n; u++ {
		if r.Roles[u] != RoleCore {
			continue
		}
		root := uf.find(u)
		if cur, ok := minID[root]; !ok || u < cur {
			minID[root] = u
		}
	}
	for u := int32(0); u < n; u++ {
		want := int32(-1)
		if r.Roles[u] == RoleCore {
			want = minID[uf.find(u)]
		}
		if r.CoreClusterID[u] != want {
			return fmt.Errorf("result: cluster id of %d = %d, want %d", u, r.CoreClusterID[u], want)
		}
	}
	// 3. Non-core memberships: exactly those (v, id) with a core neighbor u
	// in cluster id and sim(u,v).
	want := make(map[Membership]struct{})
	for u := int32(0); u < n; u++ {
		if r.Roles[u] != RoleCore {
			continue
		}
		id := minID[uf.find(u)]
		for _, v := range g.Neighbors(u) {
			if r.Roles[v] == RoleNonCore && simEdge(u, v) {
				want[Membership{V: v, ClusterID: id}] = struct{}{}
			}
		}
	}
	if len(want) != len(r.NonCore) {
		return fmt.Errorf("result: %d non-core memberships, want %d", len(r.NonCore), len(want))
	}
	for _, m := range r.NonCore {
		if _, ok := want[m]; !ok {
			return fmt.Errorf("result: unexpected membership %+v", m)
		}
	}
	return nil
}

func bruteIntersect(a, b []int32) int32 {
	var cn int32
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

type simpleUF struct{ parent []int32 }

func newSimpleUF(n int32) *simpleUF {
	u := &simpleUF{parent: make([]int32, n)}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

func (u *simpleUF) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *simpleUF) union(x, y int32) {
	rx, ry := u.find(x), u.find(y)
	if rx != ry {
		if rx > ry {
			rx, ry = ry, rx
		}
		u.parent[ry] = rx
	}
}
