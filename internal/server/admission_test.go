package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"ppscan"
	"ppscan/graph"
	"ppscan/internal/gen"
	"ppscan/internal/obsv"
)

// blockingServer returns a server whose index build parks until release
// is closed (or the request context ends), so tests can hold the
// admission slot — and mutMu — deterministically.
func blockingServer(t *testing.T, maxInflight int, timeout time.Duration) (s *Server, release chan struct{}, started chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	started = make(chan struct{}, 16)
	s = New(testGraph(t), 2).WithAdmission(maxInflight, timeout)
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

func counterValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	body := get(t, ts, "/metrics", http.StatusOK)
	v, ok := body[name].(float64)
	if !ok {
		t.Fatalf("/metrics has no numeric %q (got %T %v)", name, body[name], body[name])
	}
	return v
}

// TestAdmissionRejectsWhenSaturated: with the one slot held by a miss
// building the epoch's index, and no cache entry, a second distinct
// request gets 429 + Retry-After and the rejection counter increments.
func TestAdmissionRejectsWhenSaturated(t *testing.T) {
	s, release, started := blockingServer(t, 1, 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		get(t, ts, "/cluster?eps=0.6&mu=2", http.StatusOK)
	}()
	<-started // slot is now held

	resp, err := http.Get(ts.URL + "/cluster?eps=0.7&mu=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want positive integer seconds", ra)
	}

	close(release)
	wg.Wait()
	if v := counterValue(t, ts, obsv.MetricAdmissionRejected); v < 1 {
		t.Errorf("%s = %v, want >= 1", obsv.MetricAdmissionRejected, v)
	}
}

// TestAdmissionDegradesToCache: a saturated request whose parameters are
// already cached is served 200 from the cache and counted as degraded.
func TestAdmissionDegradesToCache(t *testing.T) {
	s, release, started := blockingServer(t, 1, 0)
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

	// Saturate: the single slot is held by a miss parked in the build.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		get(t, ts, "/cluster?eps=0.9&mu=5", http.StatusOK)
	}()
	<-started

	get(t, ts, "/cluster?eps=0.6&mu=2", http.StatusOK) // cached key still serves
	if v := counterValue(t, ts, obsv.MetricAdmissionDegradedCache); v < 1 {
		t.Errorf("%s = %v, want >= 1", obsv.MetricAdmissionDegradedCache, v)
	}
	close(release)
	wg.Wait()
}

// TestAdmissionDegradesToIndex: an index-backed server answers saturated
// requests from the index instead of rejecting.
func TestAdmissionDegradesToIndex(t *testing.T) {
	g := testGraph(t)
	ix := ppscan.BuildIndex(g, 2)
	s := New(g, 2).WithIndex(ix).WithAdmission(1, 0)
	// Hold the only slot directly: an indexed epoch never builds, so
	// occupy the semaphore itself.
	s.sem <- struct{}{}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get(t, ts, "/cluster?eps=0.6&mu=2", http.StatusOK)
	if v := counterValue(t, ts, obsv.MetricAdmissionDegradedIndex); v < 1 {
		t.Errorf("%s = %v, want >= 1", obsv.MetricAdmissionDegradedIndex, v)
	}
	<-s.sem
}

// TestAdmissionTimeout: a request whose build exceeds the deadline answers
// 503 + Retry-After and increments the timeout counter, with a
// deterministic seam.
func TestAdmissionTimeout(t *testing.T) {
	s, release, _ := blockingServer(t, 0, 20*time.Millisecond)
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
	s := New(g, 2).WithAdmission(0, 5*time.Millisecond)
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

// TestMetricsExposeAdmissionConfig: /metrics always carries the admission
// configuration and pre-registered zero counters.
func TestMetricsExposeAdmissionConfig(t *testing.T) {
	s := New(testGraph(t), 2).WithAdmission(3, 2*time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := get(t, ts, "/metrics", http.StatusOK)
	if v := body["admission.max_inflight"].(float64); v != 3 {
		t.Errorf("admission.max_inflight = %v, want 3", v)
	}
	if v := body["admission.request_timeout_ns"].(float64); v != float64(2*time.Second) {
		t.Errorf("admission.request_timeout_ns = %v", v)
	}
	for _, name := range []string{
		obsv.MetricAdmissionRejected, obsv.MetricAdmissionTimeouts,
		obsv.MetricAdmissionCanceled, obsv.MetricAdmissionDegradedCache,
		obsv.MetricAdmissionDegradedIndex, obsv.MetricAdmissionInFlight,
	} {
		if _, ok := body[name].(float64); !ok {
			t.Errorf("/metrics missing pre-registered %q", name)
		}
	}
	if body["server.draining"] != false {
		t.Errorf("server.draining = %v, want false", body["server.draining"])
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
