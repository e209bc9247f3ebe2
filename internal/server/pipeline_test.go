package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ppscan"
	"ppscan/graph"
	"ppscan/internal/gen"
	"ppscan/internal/obsv"
	"ppscan/internal/shard"
)

// newFleet starts an in-process worker fleet over g and returns its
// coordinator together with the registry the coordinator counts into, so
// a test can tell whether the compute backend was reached.
func newFleet(t *testing.T, g *graph.Graph, shards int) (*shard.Coordinator, *obsv.Registry) {
	t.Helper()
	var fleet [][]string
	for s := 0; s < shards; s++ {
		w, err := shard.NewWorker(g, shard.WorkerOptions{Shard: s, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		ws := httptest.NewServer(w.Handler())
		t.Cleanup(ws.Close)
		fleet = append(fleet, []string{ws.URL})
	}
	reg := obsv.New()
	coord, err := shard.NewCoordinator(g, shard.Options{
		Shards: fleet, HeartbeatEvery: -1, MaxAttempts: 2, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		coord.Shutdown(ctx)
	})
	return coord, reg
}

// TestPipelineStageOrder arms every combination of the three optional
// stages and checks which one answered a /cluster miss — the fixed order
// is index, then coalescer, then the compute backend (fleet, else engine)
// — and that /cluster and the matching /cluster/sweep line both equal the
// direct answer whatever the combination.
func TestPipelineStageOrder(t *testing.T) {
	g := gen.PlantedPartition(6, 25, 0.4, 0.02, 13)
	direct := httptest.NewServer(New(g, 2).Handler())
	defer direct.Close()
	const query = "eps=0.4&mu=3&members=true"
	want := get(t, direct, "/cluster?"+query, http.StatusOK)

	for _, tc := range []struct {
		index, coalesce, fleet bool
		algorithm              string
		flights, queries, runs int64
	}{
		{false, false, false, "ppSCAN", 0, 0, 1},
		{false, false, true, "shard-scan(s=2)", 0, 1, 0},
		{false, true, false, "GS*-Index", 1, 0, 0},
		{false, true, true, "GS*-Index", 1, 0, 0},
		{true, false, false, "GS*-Index", 0, 0, 0},
		{true, false, true, "GS*-Index", 0, 0, 0},
		{true, true, false, "GS*-Index", 0, 0, 0},
		{true, true, true, "GS*-Index", 0, 0, 0},
	} {
		t.Run(fmt.Sprintf("index=%v,coalesce=%v,fleet=%v", tc.index, tc.coalesce, tc.fleet), func(t *testing.T) {
			srv := New(g, 2)
			fleetReg := obsv.New()
			if tc.fleet {
				var coord *shard.Coordinator
				coord, fleetReg = newFleet(t, g, 2)
				srv.WithShards(coord)
			}
			if tc.coalesce {
				srv.WithCoalescing(0)
			}
			if tc.index {
				srv.WithIndex(ppscan.BuildIndex(g, 2))
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			got := get(t, ts, "/cluster?"+query, http.StatusOK)
			if got["algorithm"] != tc.algorithm {
				t.Errorf("answered by %v, want %s", got["algorithm"], tc.algorithm)
			}
			if v := srv.reg.Counter(obsv.MetricServerCoalesceFlights).Value(); v != tc.flights {
				t.Errorf("coalesce flights = %d, want %d", v, tc.flights)
			}
			if v := fleetReg.Counter(obsv.MetricShardQueries).Value(); v != tc.queries {
				t.Errorf("fleet queries = %d, want %d", v, tc.queries)
			}
			if v := srv.computeNs.Count(); v != tc.runs {
				t.Errorf("in-process runs = %d, want %d", v, tc.runs)
			}
			lines := sweepLines(t, ts, "/cluster/sweep?"+query)
			if len(lines) != 1 {
				t.Fatalf("sweep lines = %d, want 1", len(lines))
			}
			if lines[0]["algorithm"] != "GS*-Index" {
				t.Errorf("sweep step answered by %v, want an extraction", lines[0]["algorithm"])
			}
			for _, k := range []string{"clusters", "cores", "memberships", "coverage", "members"} {
				if !reflect.DeepEqual(got[k], want[k]) {
					t.Errorf("/cluster %s = %v, direct %v", k, got[k], want[k])
				}
				if !reflect.DeepEqual(lines[0][k], want[k]) {
					t.Errorf("/cluster/sweep %s = %v, direct %v", k, lines[0][k], want[k])
				}
			}
		})
	}
}

// TestParseStageRejectsBeforeAnyWork: a junk ε or a µ outside [1, 2^30]
// is a 400 from the shared parse stage on every clustering route, before
// the cache is consulted, a flight opens, the fleet is asked or a
// workspace leaves the pool. At the parent commit eps=abc bought a full
// similarity pass under coalescing, and mu=4294967301 was answered by the
// fleet as µ=5.
func TestParseStageRejectsBeforeAnyWork(t *testing.T) {
	g := gen.PlantedPartition(6, 25, 0.4, 0.02, 13)
	coord, fleetReg := newFleet(t, g, 2)
	servers := map[string]*Server{
		"engine":    New(g, 2),
		"coalescer": New(g, 2).WithCoalescing(0),
		"fleet":     New(g, 2).WithShards(coord),
		"index":     New(g, 2).WithIndex(ppscan.BuildIndex(g, 2)),
	}
	for name, srv := range servers {
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		for _, route := range []string{"/cluster?", "/vertex?v=0&", "/quality?", "/cluster/sweep?"} {
			for _, params := range []string{"eps=abc&mu=3", "eps=0.5&mu=4294967301", "eps=0.5&mu=0"} {
				resp, err := http.Get(ts.URL + route + params)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("%s: GET %s%s: status %d, want 400", name, route, params, resp.StatusCode)
				}
			}
		}
		if v := srv.reg.Counter(obsv.MetricCacheMisses).Value(); v != 0 {
			t.Errorf("%s: %d cache lookups for unanswerable requests, want 0", name, v)
		}
		if v := srv.reg.Counter(obsv.MetricServerCoalesceFlights).Value(); v != 0 {
			t.Errorf("%s: %d flights started for unanswerable requests, want 0", name, v)
		}
		if st := srv.pool.Stats(); st.Hits+st.Misses != 0 {
			t.Errorf("%s: %d workspaces acquired for unanswerable requests, want 0", name, st.Hits+st.Misses)
		}
	}
	if v := fleetReg.Counter(obsv.MetricShardQueries).Value(); v != 0 {
		t.Errorf("fleet ran %d unanswerable queries, want 0", v)
	}
}

// TestPurgedEpochStaysOutOfCache: a request that loaded epoch 0, was still
// computing when a mutation batch published epoch 1 and purged the cache,
// must not re-insert its epoch-0 answer afterwards — nobody can request
// that epoch again, so the entry would only displace live ones.
func TestPurgedEpochStaysOutOfCache(t *testing.T) {
	srv := New(testGraph(t), 2).WithMutations()
	entered, release := make(chan struct{}), make(chan struct{})
	var once atomic.Bool
	real := srv.runFn
	srv.runFn = func(ctx context.Context, g *graph.Graph, opt ppscan.Options, ws *ppscan.Workspace) (*ppscan.Result, error) {
		if once.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		return real(ctx, g, opt, ws)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/cluster?eps=0.7&mu=2")
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-entered
	postEdges(t, ts, `{"u":0,"v":5}`, http.StatusOK)
	close(release)
	if status := <-done; status != http.StatusOK {
		t.Fatalf("the overtaken request answered %d, want 200 (its own snapshot is still valid)", status)
	}
	if n := counterValue(t, ts, obsv.MetricCacheSize); n != 0 {
		t.Errorf("cache holds %v entries below the live epoch, want 0", n)
	}
	// The live epoch caches as usual.
	get(t, ts, "/cluster?eps=0.7&mu=2", http.StatusOK)
	if n := counterValue(t, ts, obsv.MetricCacheSize); n != 1 {
		t.Errorf("cache size after a live-epoch request = %v, want 1", n)
	}
}
