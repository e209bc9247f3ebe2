// Package quality provides standard cluster-quality metrics (modularity,
// conductance, coverage) for evaluating structural clustering results.
//
// SCAN produces overlapping memberships (a non-core vertex can belong to
// several clusters). The partition-based metrics here resolve overlaps by
// assigning each vertex to its lowest-id cluster; the per-cluster metrics
// (Conductance, InternalDensity) evaluate each cluster's full member set
// including shared vertices.
package quality

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"ppscan/graph"
	"ppscan/internal/result"
)

// PrimaryAssignment resolves a clustering result to a non-overlapping
// vertex->cluster assignment: cores keep their cluster; non-cores take
// their lowest cluster id; unclustered vertices get -1.
func PrimaryAssignment(r *result.Result) []int32 {
	assign := make([]int32, len(r.Roles))
	copy(assign, r.CoreClusterID)
	// NonCore is sorted by (V, ClusterID); the first membership per vertex
	// is its lowest cluster id.
	for _, m := range r.NonCore {
		if assign[m.V] < 0 {
			assign[m.V] = m.ClusterID
		}
	}
	return assign
}

// Modularity computes Newman–Girvan modularity of the primary assignment:
//
//	Q = Σ_c ( e_c/m − (deg_c/2m)² )
//
// where e_c is the number of intra-cluster edges, deg_c the total degree of
// cluster c's vertices and m = |E|. Unclustered vertices contribute nothing
// (each forms no community). Returns 0 for edgeless graphs.
func Modularity(g *graph.Graph, r *result.Result) float64 {
	m := float64(g.NumEdges())
	if m == 0 {
		return 0
	}
	// Cluster ids are vertex ids, so the per-cluster sums are arrays and
	// the total is summed in ascending cluster-id order: one fixed order,
	// one bit pattern for one clustering.
	assign := PrimaryAssignment(r)
	intra := make([]float64, g.NumVertices())
	degSum := make([]float64, g.NumVertices())
	for u := int32(0); u < g.NumVertices(); u++ {
		c := assign[u]
		if c < 0 {
			continue
		}
		degSum[c] += float64(g.Degree(u))
		for _, v := range g.Neighbors(u) {
			if u < v && assign[v] == c {
				intra[c]++
			}
		}
	}
	// An id that names no cluster adds exactly zero.
	var q float64
	for c, e := range intra {
		frac := degSum[c] / (2 * m)
		q += e/m - frac*frac
	}
	return q
}

// Conductance returns the conductance of one vertex set S:
//
//	φ(S) = cut(S) / min(vol(S), vol(V\S))
//
// where cut is the number of edges leaving S and vol the degree sum.
// Smaller is better. Returns NaN when either side has zero volume.
func Conductance(g *graph.Graph, members []int32) float64 {
	in := make(map[int32]struct{}, len(members))
	for _, v := range members {
		in[v] = struct{}{}
	}
	var cut, vol float64
	for _, u := range members {
		vol += float64(g.Degree(u))
		for _, v := range g.Neighbors(u) {
			if _, ok := in[v]; !ok {
				cut++
			}
		}
	}
	total := float64(g.NumDirectedEdges())
	outVol := total - vol
	denom := math.Min(vol, outVol)
	if denom <= 0 {
		return math.NaN()
	}
	return cut / denom
}

// InternalDensity returns the fraction of possible intra-cluster edges
// that exist: 2·e_c / (|S|·(|S|−1)). Returns NaN for singleton sets.
func InternalDensity(g *graph.Graph, members []int32) float64 {
	n := len(members)
	if n < 2 {
		return math.NaN()
	}
	in := make(map[int32]struct{}, n)
	for _, v := range members {
		in[v] = struct{}{}
	}
	var e float64
	for _, u := range members {
		for _, v := range g.Neighbors(u) {
			if _, ok := in[v]; ok && u < v {
				e++
			}
		}
	}
	return 2 * e / float64(n*(n-1))
}

// Coverage returns the fraction of vertices inside at least one cluster:
// the cores plus the distinct non-core V of the sorted NonCore list,
// counted without allocating.
func Coverage(r *result.Result) float64 {
	covered := r.NumCores()
	for i, m := range r.NonCore {
		if (i == 0 || m.V != r.NonCore[i-1].V) && r.Roles[m.V] != result.RoleCore {
			covered++
		}
	}
	return float64(covered) / float64(max(len(r.Roles), 1)) // an empty graph has coverage 0
}

// ClusterReport summarizes one cluster.
type ClusterReport struct {
	ID              int32
	Size            int
	Conductance     float64
	InternalDensity float64
}

// Report builds per-cluster reports sorted by descending size (ties by id).
func Report(g *graph.Graph, r *result.Result) []ClusterReport {
	clusters := r.Clusters()
	out := make([]ClusterReport, 0, len(clusters))
	for id, members := range clusters {
		out = append(out, ClusterReport{
			ID:              id,
			Size:            len(members),
			Conductance:     Conductance(g, members),
			InternalDensity: InternalDensity(g, members),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Size != out[j].Size {
			return out[i].Size > out[j].Size
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// MarshalJSON writes a NaN metric — the conductance of a cluster holding
// its whole component's volume, the density of a singleton — as null,
// since JSON has no NaN.
func (c ClusterReport) MarshalJSON() ([]byte, error) {
	orNull := func(x float64) *float64 {
		if math.IsNaN(x) {
			return nil
		}
		return &x
	}
	return json.Marshal(struct {
		ID                           int32
		Size                         int
		Conductance, InternalDensity *float64
	}{c.ID, c.Size, orNull(c.Conductance), orNull(c.InternalDensity)})
}

// String implements fmt.Stringer.
func (c ClusterReport) String() string {
	return fmt.Sprintf("cluster %d: size=%d conductance=%.3f density=%.3f",
		c.ID, c.Size, c.Conductance, c.InternalDensity)
}
