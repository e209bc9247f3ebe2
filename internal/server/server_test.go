package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"ppscan"
	"ppscan/graph"
	"ppscan/internal/gen"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
	"ppscan/quality"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	// Two K4s bridged (same as the public-API kite graph).
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

func get(t *testing.T, ts *httptest.Server, path string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", path, err)
	}
	return body
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(New(testGraph(t), 2).Handler())
	defer ts.Close()
	body := get(t, ts, "/healthz", http.StatusOK)
	if body["status"] != "ok" {
		t.Errorf("status = %v", body["status"])
	}
	if body["vertices"].(float64) != 8 || body["edges"].(float64) != 13 {
		t.Errorf("graph shape = %v / %v", body["vertices"], body["edges"])
	}
	if body["indexed"] != false {
		t.Errorf("indexed should be false")
	}
}

func TestClusterEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(testGraph(t), 2).Handler())
	defer ts.Close()
	body := get(t, ts, "/cluster?eps=0.7&mu=2", http.StatusOK)
	if body["clusters"].(float64) != 2 {
		t.Errorf("clusters = %v, want 2", body["clusters"])
	}
	if body["cores"].(float64) != 8 {
		t.Errorf("cores = %v, want 8", body["cores"])
	}
	if body["algorithm"] != "GS*-Index" {
		t.Errorf("algorithm = %v, want GS*-Index (the first miss builds the index)", body["algorithm"])
	}
	// With member lists.
	body = get(t, ts, "/cluster?eps=0.7&mu=2&members=true", http.StatusOK)
	members := body["members"].(map[string]any)
	if len(members) != 2 {
		t.Errorf("member lists = %v", members)
	}
	// algo= is ignored like any unknown parameter: every answer is the
	// same clustering.
	for _, algo := range []string{"pscan", "q"} {
		body = get(t, ts, "/cluster?eps=0.7&mu=2&algo="+algo, http.StatusOK)
		if body["algorithm"] != "GS*-Index" || body["clusters"].(float64) != 2 {
			t.Errorf("algo=%s: %v, want the index's 2 clusters", algo, body)
		}
	}
}

func TestClusterEndpointErrors(t *testing.T) {
	ts := httptest.NewServer(New(testGraph(t), 2).Handler())
	defer ts.Close()
	get(t, ts, "/cluster?mu=2", http.StatusBadRequest)         // missing eps
	get(t, ts, "/cluster?eps=0.7", http.StatusBadRequest)      // missing mu
	get(t, ts, "/cluster?eps=0.7&mu=x", http.StatusBadRequest) // bad mu
	get(t, ts, "/cluster?eps=7&mu=2", http.StatusBadRequest)   // bad eps
}

func TestVertexEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(testGraph(t), 2).Handler())
	defer ts.Close()
	body := get(t, ts, "/vertex?v=0&eps=0.7&mu=2", http.StatusOK)
	if body["role"] != "Core" {
		t.Errorf("role = %v", body["role"])
	}
	if body["attachment"] != "Clustered" {
		t.Errorf("attachment = %v", body["attachment"])
	}
	clusters := body["clusters"].([]any)
	if len(clusters) != 1 || clusters[0].(float64) != 0 {
		t.Errorf("clusters = %v", clusters)
	}
	get(t, ts, "/vertex?v=99&eps=0.7&mu=2", http.StatusBadRequest)
	get(t, ts, "/vertex?v=-1&eps=0.7&mu=2", http.StatusBadRequest)
	get(t, ts, "/vertex?v=x&eps=0.7&mu=2", http.StatusBadRequest)
}

func TestQualityEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(testGraph(t), 2).Handler())
	defer ts.Close()
	body := get(t, ts, "/quality?eps=0.7&mu=2", http.StatusOK)
	if body["modularity"].(float64) <= 0 {
		t.Errorf("modularity = %v", body["modularity"])
	}
	top := body["topClusters"].([]any)
	if len(top) != 2 {
		t.Errorf("topClusters = %v", top)
	}
}

func TestIndexServing(t *testing.T) {
	g := testGraph(t)
	ix := ppscan.BuildIndex(g, 2)
	ts := httptest.NewServer(New(g, 2).WithIndex(ix).Handler())
	defer ts.Close()
	body := get(t, ts, "/healthz", http.StatusOK)
	if body["indexed"] != true {
		t.Errorf("indexed should be true")
	}
	body = get(t, ts, "/cluster?eps=0.7&mu=2", http.StatusOK)
	if body["clusters"].(float64) != 2 {
		t.Errorf("index-served clusters = %v", body["clusters"])
	}
	if body["algorithm"] != "GS*-Index" {
		t.Errorf("algorithm = %v", body["algorithm"])
	}
}

func TestVertexAndQualityErrorPaths(t *testing.T) {
	ts := httptest.NewServer(New(testGraph(t), 2).Handler())
	defer ts.Close()
	get(t, ts, "/vertex?v=0&mu=2", http.StatusBadRequest)       // missing eps
	get(t, ts, "/vertex?v=0&eps=9&mu=2", http.StatusBadRequest) // bad eps reaches resolve
	get(t, ts, "/quality?mu=2", http.StatusBadRequest)          // missing eps
	get(t, ts, "/quality?eps=9&mu=2", http.StatusBadRequest)    // bad eps reaches resolve
}

func TestIndexRejectsBadMu(t *testing.T) {
	g := testGraph(t)
	ts := httptest.NewServer(New(g, 2).WithIndex(ppscan.BuildIndex(g, 2)).Handler())
	defer ts.Close()
	get(t, ts, "/cluster?eps=0.7&mu=0", http.StatusBadRequest)
	get(t, ts, "/cluster?eps=0.7&mu=-3", http.StatusBadRequest)
}

func TestVertexWithMemberships(t *testing.T) {
	// Bridge vertex 8 between two K4s is a non-core with two memberships
	// at the right parameters (see the root-package overlap test).
	g, err := graph.FromEdges(9, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3},
		{U: 4, V: 5}, {U: 4, V: 6}, {U: 4, V: 7}, {U: 5, V: 6}, {U: 5, V: 7}, {U: 6, V: 7},
		{U: 8, V: 0}, {U: 8, V: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(g, 2).Handler())
	defer ts.Close()
	// Find parameters where 8 has two memberships, as in the root test.
	for _, eps := range []string{"0.4", "0.5", "0.6"} {
		body := get(t, ts, "/vertex?v=8&eps="+eps+"&mu=3", http.StatusOK)
		if body["role"] == "NonCore" {
			if cl, ok := body["clusters"].([]any); ok && len(cl) >= 2 {
				return // covered the membership-listing path with overlap
			}
		}
	}
	t.Log("no overlapping-membership parameters found; membership path still exercised")
}

func TestQualityTruncatesTopClusters(t *testing.T) {
	// Many tiny clusters: response must cap topClusters at 10.
	g := gen.CliqueChain(30, 4)
	ts := httptest.NewServer(New(g, 2).Handler())
	defer ts.Close()
	body := get(t, ts, "/quality?eps=0.8&mu=2", http.StatusOK)
	top := body["topClusters"].([]any)
	if len(top) != 10 {
		t.Errorf("topClusters = %d, want 10 (truncated)", len(top))
	}
}

func TestResponseCaching(t *testing.T) {
	g := gen.PlantedPartition(10, 30, 0.4, 0.01, 11)
	srv := New(g, 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get(t, ts, "/cluster?eps=0.5&mu=3", http.StatusOK)
	n := srv.cache.len()
	if n != 1 {
		t.Fatalf("cache entries = %d", n)
	}
	// Repeat: still one entry, same pointer reused.
	get(t, ts, "/cluster?eps=0.5&mu=3", http.StatusOK)
	get(t, ts, "/vertex?v=0&eps=0.5&mu=3", http.StatusOK)
	n = srv.cache.len()
	if n != 1 {
		t.Fatalf("cache entries after repeats = %d", n)
	}
	// Different params -> new entry.
	get(t, ts, "/cluster?eps=0.6&mu=3", http.StatusOK)
	n = srv.cache.len()
	if n != 2 {
		t.Fatalf("cache entries after new params = %d", n)
	}
}

// asJSON round-trips v through JSON, so a computed body compares with a
// decoded response.
func asJSON(t *testing.T, v any) map[string]any {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// oracle is ppscan.Run's clustering of g at (eps, mu).
func oracle(t *testing.T, g *graph.Graph, eps string, mu int) *ppscan.Result {
	t.Helper()
	ref, err := ppscan.Run(g, ppscan.Options{Epsilon: eps, Mu: mu, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// sameClustering reports every clustering field of a /cluster?members=true
// body that differs from ref's.
func sameClustering(t *testing.T, what string, got map[string]any, ref *ppscan.Result) {
	t.Helper()
	want := asJSON(t, summarize("", 0, ref, true))
	for _, k := range []string{"clusters", "cores", "memberships", "coverage", "members"} {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Errorf("%s: %s = %v, ppscan.Run says %v", what, k, got[k], want[k])
		}
	}
}

// TestEveryRouteMatchesOracle: on a server with no index, /cluster,
// /vertex and /quality answer exactly what ppscan.Run gives across an
// (ε, µ) grid — µ = 1 and µ past the largest degree included — and the
// whole grid costs one index build.
func TestEveryRouteMatchesOracle(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"planted": gen.PlantedPartition(6, 25, 0.4, 0.02, 13),
		"star":    gen.Star(12),
	} {
		t.Run(name, func(t *testing.T) {
			srv := New(g, 2)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			for _, eps := range []string{"0.2", "0.4", "0.5", "0.6", "1"} {
				for _, mu := range []int{1, 2, 3, int(g.MaxDegree()) + 1} {
					q := fmt.Sprintf("eps=%s&mu=%d", eps, mu)
					ref := oracle(t, g, eps, mu)
					sameClustering(t, q, get(t, ts, "/cluster?members=true&"+q, http.StatusOK), ref)
					reports := quality.Report(g, ref)
					if len(reports) > 10 {
						reports = reports[:10]
					}
					want := asJSON(t, qualityInfo{quality.Modularity(g, ref), quality.Coverage(ref), reports})
					got := get(t, ts, "/quality?"+q, http.StatusOK)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("/quality?%s = %v, ppscan.Run says %v", q, got, want)
					}
				}
			}
			// Every vertex of one key.
			ref := oracle(t, g, "0.5", 2)
			for v := int32(0); v < g.NumVertices(); v++ {
				var clusters []int32
				if id := ref.CoreClusterID[v]; id >= 0 {
					clusters = append(clusters, id)
				}
				for _, m := range ref.MembershipsOf(v) {
					clusters = append(clusters, m.ClusterID)
				}
				want := asJSON(t, vertexInfo{v, g.Degree(v), ref.Roles[v].String(), clusters,
					result.ClassifyVertex(g, ref, v).String()})
				if got := get(t, ts, fmt.Sprintf("/vertex?v=%d&eps=0.5&mu=2", v), http.StatusOK); !reflect.DeepEqual(got, want) {
					t.Errorf("/vertex?v=%d = %v, ppscan.Run says %v", v, got, want)
				}
			}
			if v := srv.indexBuilds.Value(); v != 1 {
				t.Errorf("%s = %d after the grid, want 1", obsv.MetricServerIndexBuilds, v)
			}
		})
	}
}

// TestRoutesMatchHandler pins Routes() — the list docs tooling checks the
// README against — to what Handler actually registers.
func TestRoutesMatchHandler(t *testing.T) {
	srv := New(testGraph(t), 1)
	mux := srv.Handler().(*http.ServeMux)
	for _, path := range Routes() {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		if _, pattern := mux.Handler(r); pattern != path {
			t.Errorf("route %s resolves to pattern %q; not registered?", path, pattern)
		}
	}
	if len(Routes()) != len(srv.routes()) {
		t.Errorf("Routes() and routes() diverge")
	}
}
