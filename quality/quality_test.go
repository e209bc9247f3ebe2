package quality

import (
	"encoding/json"
	"math"
	"testing"

	"ppscan/graph"
	"ppscan/internal/result"
)

// twoCliques: two K4s joined by one bridge edge (3,4).
func twoCliques(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(8, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3},
		{U: 4, V: 5}, {U: 4, V: 6}, {U: 4, V: 7}, {U: 5, V: 6}, {U: 5, V: 7}, {U: 6, V: 7},
		{U: 3, V: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func twoCliquesResult() *result.Result {
	return &result.Result{
		Roles: []result.Role{
			result.RoleCore, result.RoleCore, result.RoleCore, result.RoleCore,
			result.RoleCore, result.RoleCore, result.RoleCore, result.RoleCore,
		},
		CoreClusterID: []int32{0, 0, 0, 0, 4, 4, 4, 4},
	}
}

func TestPrimaryAssignment(t *testing.T) {
	r := &result.Result{
		Roles:         []result.Role{result.RoleCore, result.RoleNonCore, result.RoleNonCore},
		CoreClusterID: []int32{0, -1, -1},
		NonCore:       []result.Membership{{V: 1, ClusterID: 0}, {V: 1, ClusterID: 5}},
	}
	r.Normalize()
	assign := PrimaryAssignment(r)
	if assign[0] != 0 || assign[1] != 0 || assign[2] != -1 {
		t.Errorf("assignment = %v", assign)
	}
}

func TestModularityTwoCliques(t *testing.T) {
	g := twoCliques(t)
	r := twoCliquesResult()
	q := Modularity(g, r)
	// m=13; each cluster: 6 intra edges, degree sum 13.
	want := 2 * (6.0/13.0 - math.Pow(13.0/26.0, 2))
	if math.Abs(q-want) > 1e-12 {
		t.Errorf("modularity = %f, want %f", q, want)
	}
	if q < 0.4 {
		t.Errorf("two-clique modularity should be high, got %f", q)
	}
}

func TestModularitySingleCluster(t *testing.T) {
	// Everything in one cluster: Q = e/m - (1)^2... = 1 - 1 = 0 when all
	// edges intra and all degrees counted.
	g := twoCliques(t)
	r := twoCliquesResult()
	for v := range r.CoreClusterID {
		r.CoreClusterID[v] = 0
	}
	q := Modularity(g, r)
	if math.Abs(q) > 1e-12 {
		t.Errorf("single-cluster modularity = %f, want 0", q)
	}
}

func TestModularityEdgelessAndUnclustered(t *testing.T) {
	g, _ := graph.FromEdges(3, nil)
	r := &result.Result{
		Roles:         []result.Role{result.RoleNonCore, result.RoleNonCore, result.RoleNonCore},
		CoreClusterID: []int32{-1, -1, -1},
	}
	if q := Modularity(g, r); q != 0 {
		t.Errorf("edgeless modularity = %f", q)
	}
	g2 := twoCliques(t)
	r2 := &result.Result{
		Roles:         make([]result.Role, 8),
		CoreClusterID: []int32{-1, -1, -1, -1, -1, -1, -1, -1},
	}
	if q := Modularity(g2, r2); q != 0 {
		t.Errorf("fully unclustered modularity = %f", q)
	}
}

// TestModularityDeterministic: one clustering gives one bit pattern, call
// after call. 400 cliques of 3 to 7 vertices, chained by bridges, make
// 400 unequal per-cluster terms, so a sum whose order varied between
// calls would show in the last bits.
func TestModularityDeterministic(t *testing.T) {
	var edges []graph.Edge
	var ids []int32
	for c, base := 0, int32(0); c < 400; c++ {
		k := int32(3 + c%5)
		for i := base; i < base+k; i++ {
			ids = append(ids, base)
			for j := i + 1; j < base+k; j++ {
				edges = append(edges, graph.Edge{U: i, V: j})
			}
		}
		if c > 0 {
			edges = append(edges, graph.Edge{U: base - 1, V: base})
		}
		base += k
	}
	g, err := graph.FromEdges(int32(len(ids)), edges)
	if err != nil {
		t.Fatal(err)
	}
	r := &result.Result{Roles: make([]result.Role, len(ids)), CoreClusterID: ids}
	for i := range r.Roles {
		r.Roles[i] = result.RoleCore
	}
	want := math.Float64bits(Modularity(g, r))
	for i := 0; i < 50; i++ {
		if got := math.Float64bits(Modularity(g, r)); got != want {
			t.Fatalf("call %d: modularity bits %#x, first call %#x", i, got, want)
		}
	}
}

func TestConductance(t *testing.T) {
	g := twoCliques(t)
	// One clique: cut = 1 (bridge), vol = 13.
	phi := Conductance(g, []int32{0, 1, 2, 3})
	if math.Abs(phi-1.0/13.0) > 1e-12 {
		t.Errorf("conductance = %f, want %f", phi, 1.0/13.0)
	}
	// Whole graph: no cut, denominator 0 -> NaN.
	if !math.IsNaN(Conductance(g, []int32{0, 1, 2, 3, 4, 5, 6, 7})) {
		t.Errorf("whole-graph conductance should be NaN")
	}
	// Empty set -> NaN.
	if !math.IsNaN(Conductance(g, nil)) {
		t.Errorf("empty-set conductance should be NaN")
	}
}

func TestInternalDensity(t *testing.T) {
	g := twoCliques(t)
	if d := InternalDensity(g, []int32{0, 1, 2, 3}); math.Abs(d-1.0) > 1e-12 {
		t.Errorf("clique density = %f, want 1", d)
	}
	if d := InternalDensity(g, []int32{0, 5}); d != 0 {
		t.Errorf("disconnected pair density = %f, want 0", d)
	}
	if !math.IsNaN(InternalDensity(g, []int32{3})) {
		t.Errorf("singleton density should be NaN")
	}
}

func TestCoverage(t *testing.T) {
	r := twoCliquesResult()
	if c := Coverage(r); c != 1 {
		t.Errorf("full coverage = %f", c)
	}
	r.CoreClusterID[7] = -1
	r.Roles[7] = result.RoleNonCore
	if c := Coverage(r); math.Abs(c-7.0/8.0) > 1e-12 {
		t.Errorf("coverage = %f, want 7/8", c)
	}
	if c := Coverage(&result.Result{}); c != 0 {
		t.Errorf("empty coverage = %f", c)
	}
}

func TestReport(t *testing.T) {
	g := twoCliques(t)
	r := twoCliquesResult()
	reports := Report(g, r)
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, rep := range reports {
		if rep.Size != 4 {
			t.Errorf("size = %d", rep.Size)
		}
		if math.Abs(rep.InternalDensity-1.0) > 1e-12 {
			t.Errorf("density = %f", rep.InternalDensity)
		}
		if rep.String() == "" {
			t.Errorf("empty report string")
		}
	}
	// Sorted by size desc then id: equal sizes -> id order.
	if reports[0].ID != 0 || reports[1].ID != 4 {
		t.Errorf("order = %d, %d", reports[0].ID, reports[1].ID)
	}
}

// TestClusterReportJSON: a NaN metric encodes as null, a finite one as
// itself — encoding/json refuses NaN, which once left GET /quality with
// an empty 200 body for a cluster spanning its whole component.
func TestClusterReportJSON(t *testing.T) {
	b, err := json.Marshal([]ClusterReport{
		{ID: 0, Size: 1, Conductance: 0.25, InternalDensity: math.NaN()},
		{ID: 1, Size: 4, Conductance: math.NaN(), InternalDensity: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"ID":0,"Size":1,"Conductance":0.25,"InternalDensity":null},` +
		`{"ID":1,"Size":4,"Conductance":null,"InternalDensity":1}]`
	if string(b) != want {
		t.Errorf("got  %s\nwant %s", b, want)
	}
}
