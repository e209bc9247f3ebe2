package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ppscan/graph"
	"ppscan/internal/obsv"
	"ppscan/internal/shard"
)

// shardedServer builds a Server whose compute backend is an in-process
// worker fleet (httptest scanshard workers), returning the server, the
// coordinator and the worker test servers for fault injection.
func shardedServer(t *testing.T, g *graph.Graph, shards int) (*Server, *shard.Coordinator, []*httptest.Server) {
	t.Helper()
	var fleet []string
	var wsrvs []*httptest.Server
	for s := 0; s < shards; s++ {
		w, err := shard.NewWorker(g, shard.WorkerOptions{Shard: s, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		ws := httptest.NewServer(w.Handler())
		t.Cleanup(ws.Close)
		wsrvs = append(wsrvs, ws)
		fleet = append(fleet, ws.URL)
	}
	coord, err := shard.NewCoordinator(g, shard.Options{
		Shards:          fleet,
		RetryBackoff:    time.Millisecond,
		MaxRetryBackoff: 10 * time.Millisecond,
		MaxAttempts:     2,
		Registry:        obsv.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(g, 2).WithShards(coord), coord, wsrvs
}

func TestShardedClusterMatchesDirect(t *testing.T) {
	g := testGraph(t)
	direct := httptest.NewServer(New(g, 2).Handler())
	defer direct.Close()
	srv, _, _ := shardedServer(t, g, 3)
	sharded := httptest.NewServer(srv.Handler())
	defer sharded.Close()

	want := get(t, direct, "/cluster?eps=0.6&mu=3&members=true", http.StatusOK)
	got := get(t, sharded, "/cluster?eps=0.6&mu=3&members=true", http.StatusOK)
	for _, k := range []string{"clusters", "cores", "memberships", "coverage"} {
		if want[k] != got[k] {
			t.Errorf("%s: direct %v, sharded %v", k, want[k], got[k])
		}
	}
	if got["algorithm"] != "shard-scan(s=3)" {
		t.Errorf("algorithm label %v", got["algorithm"])
	}
}

func TestShardedDegradesTo503WhenFleetDead(t *testing.T) {
	g := testGraph(t)
	srv, _, wsrvs := shardedServer(t, g, 2)
	wsrvs[1].Close() // shard 1's worker is gone
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/cluster?eps=0.6&mu=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 when a shard is unavailable", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	var body map[string]any
	mustDecode(t, resp, &body)
	if body["kind"] != "shard_unavailable" {
		t.Errorf("error kind %v", body["kind"])
	}
	if body["shard"].(float64) != 1 {
		t.Errorf("blast radius names shard %v, want 1", body["shard"])
	}
}

func TestShardedResponseCache(t *testing.T) {
	g := testGraph(t)
	coord, reg := newFleet(t, g, 2)
	ts := httptest.NewServer(New(g, 2).WithShards(coord).Handler())
	defer ts.Close()
	rpcs := reg.Counter(obsv.MetricShardRPCs)
	get(t, ts, "/cluster?eps=0.6&mu=3", http.StatusOK)
	before := rpcs.Value()
	if before == 0 {
		t.Fatal("first query sent no round RPCs")
	}
	get(t, ts, "/cluster?eps=0.6&mu=3", http.StatusOK)
	// The second identical request must be a cache hit: no new rounds go
	// to the workers.
	if after := rpcs.Value(); after != before {
		t.Errorf("cached request still hit the fleet: rpcs %d -> %d", before, after)
	}
}

func TestShardedMutationPublishesEpoch(t *testing.T) {
	g := testGraph(t)
	srv, coord, _ := shardedServer(t, g, 2)
	srv = srv.WithMutations()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := get(t, ts, "/cluster?eps=0.6&mu=3", http.StatusOK)
	// Commit a mutation batch; the coordinator must follow the epoch.
	body := strings.NewReader(`{"op":"add","u":2,"v":5}`)
	resp, err := http.Post(ts.URL+"/edges", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutation status %d", resp.StatusCode)
	}
	if coord.Epoch() == g.Epoch() {
		t.Fatal("coordinator epoch did not advance after the commit")
	}
	// The next query runs at the new epoch: workers 409, get synced, and
	// serve the post-mutation graph — the answer changes.
	after := get(t, ts, "/cluster?eps=0.6&mu=3", http.StatusOK)
	if before["memberships"] == after["memberships"] && before["clusters"] == after["clusters"] && before["cores"] == after["cores"] {
		t.Logf("warning: mutation did not change the clustering summary (possible but unusual): before=%v after=%v", before, after)
	}
}

func mustDecode(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}
