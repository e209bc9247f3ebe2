package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ppscan"
	"ppscan/graph"
	"ppscan/internal/gen"
	"ppscan/internal/obsv"
)

// blockingServer returns a server whose index build parks until release
// is closed (or the request context ends), so tests can hold the build —
// and mutMu — deterministically.
func blockingServer(t *testing.T, timeout time.Duration) (s *Server, release chan struct{}, started chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	started = make(chan struct{}, 16)
	s = New(testGraph(t), 2).WithRequestTimeout(timeout)
	s.buildFn = func(ctx context.Context, g *graph.Graph, workers int) (*ppscan.Index, error) {
		started <- struct{}{}
		select {
		case <-release:
			return ppscan.BuildIndexContext(context.Background(), g, workers)
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	return s, release, started
}

// getAsync sends GET path from its own goroutine and delivers the status
// (0 when the request failed) on the returned channel.
func getAsync(t *testing.T, ts *httptest.Server, path string) chan int {
	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	return done
}

func counterValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	body := get(t, ts, "/metrics", http.StatusOK)
	v, ok := body[name].(float64)
	if !ok {
		t.Fatalf("/metrics has no numeric %q (got %T %v)", name, body[name], body[name])
	}
	return v
}

// TestAdmissionDegradesToCache: a cached key answers 200 while a miss is
// parked in the epoch's index build: a hit never waits for a build.
func TestAdmissionDegradesToCache(t *testing.T) {
	s, release, started := blockingServer(t, 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// An answer cached without a build, as one from a fleet would be: the
	// epoch stays index-less, so the next miss parks in the build.
	st := s.state.Load()
	ref, err := ppscan.Run(st.g, ppscan.Options{Epsilon: "0.6", Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.cache.add(keyFor(st, "0.6", 2), ref)

	parked := getAsync(t, ts, "/cluster?eps=0.9&mu=5")
	<-started // the miss now holds mutMu in the build

	body := get(t, ts, "/cluster?eps=0.6&mu=2&members=true", http.StatusOK)
	sameClustering(t, "cached eps=0.6", body, ref)
	close(release)
	if code := <-parked; code != http.StatusOK {
		t.Errorf("parked miss: status %d, want 200", code)
	}
}

// TestAdmissionSweepDegradesToCache: an index-less server answers a sweep
// whose every gridpoint is cached from the cache, as it does a cached
// /cluster: it builds nothing.
func TestAdmissionSweepDegradesToCache(t *testing.T) {
	g := testGraph(t)
	s := New(g, 2)
	st := s.state.Load()
	refs := map[string]*ppscan.Result{"0.5": oracle(t, g, "0.5", 2), "0.6": oracle(t, g, "0.6", 2)}
	for eps, ref := range refs {
		s.cache.add(keyFor(st, eps, 2), ref)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	lines := sweepLines(t, ts, "/cluster/sweep?eps=0.6,0.5&mu=2&members=true")
	if len(lines) != 2 {
		t.Fatalf("sweep lines = %d, want 2", len(lines))
	}
	for _, line := range lines {
		eps, _ := line["eps"].(string)
		sameClustering(t, "sweep eps="+eps, line, refs[eps])
	}
	if v := s.indexBuilds.Value(); v != 0 {
		t.Errorf("%s = %d, want 0", obsv.MetricServerIndexBuilds, v)
	}
	if s.state.Load().ix != nil {
		t.Error("a fully cached sweep published an index")
	}
}

// TestMissWaitsForParkedBuild: a miss that arrives while another miss is
// building the epoch's index waits for that build instead of being
// refused or starting a second one, and both answer.
func TestMissWaitsForParkedBuild(t *testing.T) {
	s, release, started := blockingServer(t, 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := getAsync(t, ts, "/cluster?eps=0.6&mu=2")
	<-started // the first miss is parked in the build
	second := getAsync(t, ts, "/cluster?eps=0.7&mu=3")
	inFlight := s.reg.Gauge(obsv.MetricHTTPInFlight)
	for inFlight.Value() < 2 && len(second) == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i, done := range []chan int{first, second} {
		if code := <-done; code != http.StatusOK {
			t.Errorf("miss %d: status %d, want 200", i, code)
		}
	}
	if v := s.indexBuilds.Value(); v != 1 {
		t.Errorf("%s = %d, want 1", obsv.MetricServerIndexBuilds, v)
	}
}

// TestAdmissionTimeout: a request whose build exceeds the deadline answers
// 503 + Retry-After and increments the timeout counter, with a
// deterministic seam.
func TestAdmissionTimeout(t *testing.T) {
	s, release, _ := blockingServer(t, 20*time.Millisecond)
	defer close(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/cluster?eps=0.6&mu=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("timed-out response missing Retry-After")
	}
	if v := counterValue(t, ts, obsv.MetricAdmissionTimeouts); v < 1 {
		t.Errorf("%s = %v, want >= 1", obsv.MetricAdmissionTimeouts, v)
	}
}

// TestAdmissionTimeoutRealRun: a real index build on a large graph is
// aborted by the request deadline, the request returns 503 well before the
// full build would finish, and the aborted build publishes nothing.
func TestAdmissionTimeoutRealRun(t *testing.T) {
	if testing.Short() {
		t.Skip("large graph")
	}
	g := gen.Roll(120_000, 32, 31)
	s := New(g, 2).WithRequestTimeout(5 * time.Millisecond)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	t0 := time.Now()
	resp, err := http.Get(ts.URL + "/cluster?eps=0.5&mu=4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if d := time.Since(t0); d > 10*time.Second {
		t.Errorf("timed-out request took %v, want prompt abort", d)
	}
	if v := counterValue(t, ts, obsv.MetricAdmissionTimeouts); v < 1 {
		t.Errorf("%s = %v, want >= 1", obsv.MetricAdmissionTimeouts, v)
	}
	if v := counterValue(t, ts, obsv.MetricServerIndexBuilds); v != 1 {
		t.Errorf("%s = %v, want 1", obsv.MetricServerIndexBuilds, v)
	}
	if s.state.Load().ix != nil {
		t.Error("the aborted build published an index")
	}
}

// TestMetricsExposeAdmissionConfig: /metrics always carries the request
// deadline and pre-registered zero failure counters, and none of the
// load-shedding keys.
func TestMetricsExposeAdmissionConfig(t *testing.T) {
	s := New(testGraph(t), 2).WithRequestTimeout(2 * time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := get(t, ts, "/metrics", http.StatusOK)
	if v := body[obsv.MetricAdmissionRequestTimeoutNs].(float64); v != float64(2*time.Second) {
		t.Errorf("%s = %v", obsv.MetricAdmissionRequestTimeoutNs, v)
	}
	for _, name := range []string{
		obsv.MetricAdmissionTimeouts, obsv.MetricAdmissionCanceled, obsv.MetricServerPanics,
	} {
		if v, ok := body[name].(float64); !ok || v != 0 {
			t.Errorf("/metrics %q = %v, want a pre-registered 0", name, body[name])
		}
	}
	for _, gone := range []string{"admission.rejected", "admission.max_inflight", "server.draining"} {
		if _, ok := body[gone]; ok {
			t.Errorf("/metrics still has %q", gone)
		}
	}
}

// TestDrainingHealth: SetDraining flips /healthz to 503 while other
// endpoints keep serving.
func TestDrainingHealth(t *testing.T) {
	s := New(testGraph(t), 2)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get(t, ts, "/healthz", http.StatusOK)
	s.SetDraining(true)
	body := get(t, ts, "/healthz", http.StatusServiceUnavailable)
	if body["status"] != "draining" {
		t.Errorf("status = %v, want draining", body["status"])
	}
	get(t, ts, "/cluster?eps=0.6&mu=2", http.StatusOK)
	s.SetDraining(false)
	get(t, ts, "/healthz", http.StatusOK)
}
