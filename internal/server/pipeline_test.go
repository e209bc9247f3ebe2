package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"
	"time"

	"ppscan"
	"ppscan/graph"
	"ppscan/internal/gen"
	"ppscan/internal/obsv"
	"ppscan/internal/shard"
	"ppscan/internal/simdef"
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

// TestPipelineStageOrder arms every combination of the two optional
// stages and checks which one answered a /cluster miss — the fixed order
// is the epoch's index (attached, or built by the first miss), then the
// fleet, which only a -shards server's index-less epoch reaches. The sweep
// asks for the /cluster miss's gridpoint only, so the cache answers it and
// it builds nothing: on the fleet's index-less epoch the later /cluster
// goes to the fleet too. Every /cluster answer and the sweep line equal
// ppscan.Run whatever the combination.
func TestPipelineStageOrder(t *testing.T) {
	g := gen.PlantedPartition(6, 25, 0.4, 0.02, 13)
	const query, later = "eps=0.4&mu=3&members=true", "eps=0.5&mu=2&members=true"
	want, wantLater := oracle(t, g, "0.4", 3), oracle(t, g, "0.5", 2)

	for _, tc := range []struct {
		index, fleet    bool
		before, after   string // who answers /cluster before and after the sweep
		queries, builds int64
	}{
		{false, false, "GS*-Index", "GS*-Index", 0, 1},
		{false, true, "shard-scan(s=2)", "shard-scan(s=2)", 2, 0},
		{true, false, "GS*-Index", "GS*-Index", 0, 0},
		{true, true, "GS*-Index", "GS*-Index", 0, 0},
	} {
		t.Run(fmt.Sprintf("index=%v,fleet=%v", tc.index, tc.fleet), func(t *testing.T) {
			srv := New(g, 2)
			fleetReg := obsv.New()
			if tc.fleet {
				var coord *shard.Coordinator
				coord, fleetReg = newFleet(t, g, 2)
				srv.WithShards(coord)
			}
			if tc.index {
				srv.WithIndex(ppscan.BuildIndex(g, 2))
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			got := get(t, ts, "/cluster?"+query, http.StatusOK)
			if got["algorithm"] != tc.before {
				t.Errorf("answered by %v, want %s", got["algorithm"], tc.before)
			}
			sameClustering(t, "/cluster", got, want)
			lines := sweepLines(t, ts, "/cluster/sweep?"+query)
			if len(lines) != 1 {
				t.Fatalf("sweep lines = %d, want 1", len(lines))
			}
			// The step's key is the /cluster miss's: the cache answers it.
			if lines[0]["algorithm"] != tc.before {
				t.Errorf("sweep step answered by %v, want the cached %s answer", lines[0]["algorithm"], tc.before)
			}
			sameClustering(t, "/cluster/sweep", lines[0], want)
			after := get(t, ts, "/cluster?"+later, http.StatusOK)
			if after["algorithm"] != tc.after {
				t.Errorf("after the sweep answered by %v, want %s", after["algorithm"], tc.after)
			}
			sameClustering(t, "/cluster after the sweep", after, wantLater)

			if v := srv.indexBuilds.Value(); v != tc.builds {
				t.Errorf("index builds = %d, want %d", v, tc.builds)
			}
			if v := fleetReg.Counter(obsv.MetricShardQueries).Value(); v != tc.queries {
				t.Errorf("fleet queries = %d, want %d", v, tc.queries)
			}
		})
	}
}

// TestParseStageRejectsBeforeAnyWork: a junk ε or a µ outside [1, 2^30]
// is a 400 from the shared parse stage on every clustering route, before
// the cache is consulted, an index is built, the fleet is asked or a
// workspace leaves the pool. mu=4294967301 was once answered by the fleet
// as µ=5.
func TestParseStageRejectsBeforeAnyWork(t *testing.T) {
	g := gen.PlantedPartition(6, 25, 0.4, 0.02, 13)
	coord, fleetReg := newFleet(t, g, 2)
	servers := map[string]*Server{
		"build": New(g, 2),
		"fleet": New(g, 2).WithShards(coord),
		"index": New(g, 2).WithIndex(ppscan.BuildIndex(g, 2)),
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
		if v := srv.indexBuilds.Value(); v != 0 {
			t.Errorf("%s: %d index builds for unanswerable requests, want 0", name, v)
		}
		if st := srv.pool.Stats(); st.Hits+st.Misses != 0 {
			t.Errorf("%s: %d workspaces acquired for unanswerable requests, want 0", name, st.Hits+st.Misses)
		}
	}
	if v := fleetReg.Counter(obsv.MetricShardQueries).Value(); v != 0 {
		t.Errorf("fleet ran %d unanswerable queries, want 0", v)
	}
}

// TestPurgedEpochStaysOutOfCache: a request that loaded epoch 0 and was
// still missing when a mutation batch published epoch 1 and purged the
// cache builds and answers for its own snapshot, but publishes no index
// and does not re-insert its epoch-0 answer afterwards — nobody can
// request that epoch again, so the entry would only displace live ones.
func TestPurgedEpochStaysOutOfCache(t *testing.T) {
	srv := New(testGraph(t), 2).WithMutations()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st0 := srv.state.Load() // what the overtaken request loaded
	postEdges(t, ts, `{"u":0,"v":5}`, http.StatusOK)
	res, err := srv.resolve(context.Background(), st0, "0.7", 2)
	if err != nil {
		t.Fatalf("the overtaken request failed: %v (its own snapshot is still valid)", err)
	}
	if want := oracle(t, st0.g, "0.7", 2); res.NumClusters() != want.NumClusters() || res.NumCores() != want.NumCores() {
		t.Errorf("the overtaken request answered %d clusters, %d cores; epoch 0 has %d, %d",
			res.NumClusters(), res.NumCores(), want.NumClusters(), want.NumCores())
	}
	if n := counterValue(t, ts, obsv.MetricCacheSize); n != 0 {
		t.Errorf("cache holds %v entries below the live epoch, want 0", n)
	}
	if srv.state.Load().ix != nil {
		t.Error("the epoch-0 build was published over epoch 1")
	}
	// The live epoch builds and caches as usual.
	get(t, ts, "/cluster?eps=0.7&mu=2", http.StatusOK)
	if n := counterValue(t, ts, obsv.MetricCacheSize); n != 1 {
		t.Errorf("cache size after a live-epoch request = %v, want 1", n)
	}
	if v := srv.indexBuilds.Value(); v != 2 {
		t.Errorf("index builds = %d, want 2 (one per epoch)", v)
	}
}

// FuzzParams: whatever the query string, the parse stage never panics, and
// what it accepts is answerable — 1 ≤ µ ≤ 2^30 and every ε a valid
// threshold at that µ — and does not depend on algo=, which it ignores.
// The seed corpus is testdata/fuzz/FuzzParams.
func FuzzParams(f *testing.F) {
	s := &Server{sweepMaxSteps: DefaultSweepMaxSteps}
	f.Fuzz(func(t *testing.T, raw string, sweep bool) {
		q := (&url.URL{RawQuery: raw}).Query()
		eps, mu, err := s.params(q, sweep)
		q.Del("algo")
		eps2, mu2, err2 := s.params(q, sweep)
		if (err == nil) != (err2 == nil) || mu != mu2 || !slices.Equal(eps, eps2) {
			t.Fatalf("%q: algo= changed the parse: (%v, %d, %v) vs (%v, %d, %v)", raw, eps, mu, err, eps2, mu2, err2)
		}
		if err != nil {
			return
		}
		if mu < 1 || mu > 1<<30 || len(eps) == 0 {
			t.Fatalf("%q: accepted mu=%d with %d eps values", raw, mu, len(eps))
		}
		for _, e := range eps {
			if _, err := simdef.NewThreshold(e, int32(mu)); err != nil {
				t.Fatalf("%q: accepted eps %q: %v", raw, e, err)
			}
		}
	})
}
