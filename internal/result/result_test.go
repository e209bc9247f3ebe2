package result

import (
	"testing"

	"ppscan/graph"
	"ppscan/internal/simdef"
)

func TestRoleString(t *testing.T) {
	if RoleUnknown.String() != "Unknown" || RoleCore.String() != "Core" || RoleNonCore.String() != "NonCore" {
		t.Errorf("role strings wrong")
	}
	if Role(9).String() == "" {
		t.Errorf("unknown role should stringify")
	}
}

func TestAttachmentString(t *testing.T) {
	if AttachClustered.String() != "Clustered" || AttachHub.String() != "Hub" || AttachOutlier.String() != "Outlier" {
		t.Errorf("attachment strings wrong")
	}
	if Attachment(9).String() == "" {
		t.Errorf("unknown attachment should stringify")
	}
}

func TestNormalizeSortsAndDedups(t *testing.T) {
	r := &Result{NonCore: []Membership{
		{V: 5, ClusterID: 2},
		{V: 1, ClusterID: 3},
		{V: 5, ClusterID: 2}, // dup
		{V: 1, ClusterID: 1},
	}}
	r.Normalize()
	want := []Membership{{1, 1}, {1, 3}, {5, 2}}
	if len(r.NonCore) != len(want) {
		t.Fatalf("NonCore = %v", r.NonCore)
	}
	for i := range want {
		if r.NonCore[i] != want[i] {
			t.Fatalf("NonCore = %v, want %v", r.NonCore, want)
		}
	}
}

func smallResult() *Result {
	return &Result{
		Roles:         []Role{RoleCore, RoleCore, RoleNonCore, RoleNonCore},
		CoreClusterID: []int32{0, 0, -1, -1},
		NonCore:       []Membership{{V: 2, ClusterID: 0}},
	}
}

func TestCountsAndClusters(t *testing.T) {
	r := smallResult()
	if r.NumCores() != 2 {
		t.Errorf("NumCores = %d", r.NumCores())
	}
	if r.NumClusters() != 1 {
		t.Errorf("NumClusters = %d", r.NumClusters())
	}
	cl := r.Clusters()
	members := cl[0]
	if len(members) != 3 || members[0] != 0 || members[1] != 1 || members[2] != 2 {
		t.Errorf("cluster 0 = %v", members)
	}
	clustered := r.Clustered()
	wantClustered := []bool{true, true, true, false}
	for i := range wantClustered {
		if clustered[i] != wantClustered[i] {
			t.Errorf("Clustered[%d] = %v", i, clustered[i])
		}
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	a := smallResult()
	if err := Equal(a, smallResult()); err != nil {
		t.Fatalf("identical results unequal: %v", err)
	}
	b := smallResult()
	b.Roles[2] = RoleCore
	if Equal(a, b) == nil {
		t.Errorf("role difference not detected")
	}
	b = smallResult()
	b.CoreClusterID[1] = 1
	if Equal(a, b) == nil {
		t.Errorf("cluster id difference not detected")
	}
	b = smallResult()
	b.NonCore = nil
	if Equal(a, b) == nil {
		t.Errorf("membership count difference not detected")
	}
	b = smallResult()
	b.NonCore[0].ClusterID = 7
	if Equal(a, b) == nil {
		t.Errorf("membership difference not detected")
	}
	b = &Result{Roles: []Role{RoleCore}}
	if Equal(a, b) == nil {
		t.Errorf("size difference not detected")
	}
}

// hubGraph: two triangles {0,1,2} and {3,4,5}; vertex 6 bridges to 0 and 3;
// vertex 7 hangs off 6. With eps=0.6, mu=2: triangles are clusters, 6 is a
// hub, 7 is an outlier (worked out by hand in the test comments).
func hubGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(8, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
		{U: 6, V: 0}, {U: 6, V: 3}, {U: 6, V: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func hubResult() *Result {
	return &Result{
		Roles: []Role{
			RoleCore, RoleCore, RoleCore,
			RoleCore, RoleCore, RoleCore,
			RoleNonCore, RoleNonCore,
		},
		CoreClusterID: []int32{0, 0, 0, 3, 3, 3, -1, -1},
		NonCore:       nil,
	}
}

func TestClassifyHubsOutliers(t *testing.T) {
	g := hubGraph(t)
	r := hubResult()
	att := ClassifyHubsOutliers(g, r)
	want := []Attachment{
		AttachClustered, AttachClustered, AttachClustered,
		AttachClustered, AttachClustered, AttachClustered,
		AttachHub, AttachOutlier,
	}
	for v := range want {
		if att[v] != want[v] {
			t.Errorf("attachment of %d = %v, want %v", v, att[v], want[v])
		}
	}
}

func TestClassifyHubViaNonCoreMembership(t *testing.T) {
	// An unclustered vertex whose neighbors are non-cores belonging to two
	// different clusters must also be a hub.
	g, err := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	r := &Result{
		Roles:         []Role{RoleNonCore, RoleNonCore, RoleNonCore},
		CoreClusterID: []int32{-1, -1, -1},
		NonCore:       []Membership{{V: 0, ClusterID: 10}, {V: 2, ClusterID: 20}},
	}
	r.Normalize()
	att := ClassifyHubsOutliers(g, r)
	if att[1] != AttachHub {
		t.Errorf("vertex 1 = %v, want Hub", att[1])
	}
	if att[0] != AttachClustered || att[2] != AttachClustered {
		t.Errorf("membership vertices should be clustered: %v", att)
	}
}

func TestClassifySingleClusterNeighborIsOutlier(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	r := &Result{
		Roles:         []Role{RoleNonCore, RoleNonCore, RoleNonCore},
		CoreClusterID: []int32{-1, -1, -1},
		NonCore:       []Membership{{V: 1, ClusterID: 5}, {V: 2, ClusterID: 5}},
	}
	r.Normalize()
	att := ClassifyHubsOutliers(g, r)
	if att[0] != AttachOutlier {
		t.Errorf("vertex 0 = %v, want Outlier (both neighbors in one cluster)", att[0])
	}
}

// TestClassifyParallelMatchesSequential: the whole-graph pass and the
// one-vertex answer agree on every vertex, and the empty graph does not panic.
func TestClassifyParallelMatchesSequential(t *testing.T) {
	g := hubGraph(t)
	r := hubResult()
	r.Normalize()
	got := ClassifyHubsOutliers(g, r)
	if len(got) != int(g.NumVertices()) {
		t.Fatalf("%d attachments for %d vertices", len(got), g.NumVertices())
	}
	for v := range got {
		if want := ClassifyVertex(g, r, int32(v)); got[v] != want {
			t.Fatalf("vertex %d = %v, want %v", v, got[v], want)
		}
	}
	eg := &Result{}
	egGraph, _ := graph.FromEdges(0, nil)
	if got := ClassifyHubsOutliers(egGraph, eg); len(got) != 0 {
		t.Errorf("empty classify = %v", got)
	}
}

func TestValidateAgainstAcceptsCorrectResult(t *testing.T) {
	g := hubGraph(t)
	r := hubResult()
	r.Normalize()
	eps := simdef.MustEpsilon("0.6")
	if err := ValidateAgainst(g, r, eps, 2); err != nil {
		t.Fatalf("ValidateAgainst rejected the hand-checked result: %v", err)
	}
}

func TestValidateAgainstRejectsWrongResults(t *testing.T) {
	g := hubGraph(t)
	eps := simdef.MustEpsilon("0.6")

	r := hubResult()
	r.Roles[0] = RoleNonCore
	if ValidateAgainst(g, r, eps, 2) == nil {
		t.Errorf("wrong role accepted")
	}

	r = hubResult()
	r.CoreClusterID[1] = 3
	if ValidateAgainst(g, r, eps, 2) == nil {
		t.Errorf("wrong cluster id accepted")
	}

	r = hubResult()
	r.NonCore = []Membership{{V: 6, ClusterID: 0}}
	if ValidateAgainst(g, r, eps, 2) == nil {
		t.Errorf("spurious membership accepted")
	}

	r = &Result{Roles: []Role{RoleCore}}
	if ValidateAgainst(g, r, eps, 2) == nil {
		t.Errorf("size mismatch accepted")
	}
}

func TestPhaseNamesComplete(t *testing.T) {
	for i, name := range PhaseNames {
		if name == "" {
			t.Errorf("phase %d has no name", i)
		}
	}
}
