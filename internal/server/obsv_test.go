package server

// Observability tests: /metrics must reflect the requests that were
// served, the LRU must bound the cache and count evictions, and request
// logging must emit structured lines.

import (
	"bytes"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ppscan/internal/gen"
	"ppscan/internal/obsv"
	"ppscan/internal/simdef"
)

func TestMetricsEndpoint(t *testing.T) {
	srv := New(testGraph(t), 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Two identical /cluster requests: one miss (built and extracted), one
	// hit.
	get(t, ts, "/cluster?eps=0.7&mu=2", http.StatusOK)
	get(t, ts, "/cluster?eps=0.7&mu=2", http.StatusOK)
	get(t, ts, "/cluster?eps=0.7", http.StatusBadRequest) // missing mu

	m := get(t, ts, "/metrics", http.StatusOK)
	if got := m[obsv.MetricHTTPRequestsPrefix+"cluster"].(float64); got != 3 {
		t.Errorf("cluster requests = %v, want 3", got)
	}
	if got := m[obsv.MetricHTTPErrorsPrefix+"cluster"].(float64); got != 1 {
		t.Errorf("cluster errors = %v, want 1", got)
	}
	if got := m[obsv.MetricCacheHits].(float64); got != 1 {
		t.Errorf("cache hits = %v, want 1", got)
	}
	if got := m[obsv.MetricCacheMisses].(float64); got != 1 {
		t.Errorf("cache misses = %v, want 1", got)
	}
	if got := m[obsv.MetricCacheSize].(float64); got != 1 {
		t.Errorf("cache size = %v, want 1", got)
	}
	// Latency histogram: three observations, sane quantile ordering.
	lat, ok := m[obsv.MetricHTTPLatencyPrefix+"cluster"].(map[string]any)
	if !ok {
		t.Fatalf("latency histogram missing: %v", m[obsv.MetricHTTPLatencyPrefix+"cluster"])
	}
	if lat["count"].(float64) != 3 {
		t.Errorf("latency count = %v, want 3", lat["count"])
	}
	if lat["p50"].(float64) > lat["p99"].(float64) {
		t.Errorf("latency p50 %v > p99 %v", lat["p50"], lat["p99"])
	}
	if lat["max"].(float64) <= 0 {
		t.Errorf("latency max = %v", lat["max"])
	}
	// The miss built the epoch's index and was timed.
	if got := m[obsv.MetricServerIndexBuilds].(float64); got != 1 {
		t.Errorf("%s = %v, want 1", obsv.MetricServerIndexBuilds, got)
	}
	if got := m[obsv.MetricServerComputeNs].(map[string]any)["count"].(float64); got != 1 {
		t.Errorf("%s count = %v, want 1", obsv.MetricServerComputeNs, got)
	}
	// Graph and runtime gauges.
	if m["graph.vertices"].(float64) != 8 {
		t.Errorf("graph.vertices = %v", m["graph.vertices"])
	}
	if m["runtime.goroutines"].(float64) < 1 {
		t.Errorf("runtime.goroutines = %v", m["runtime.goroutines"])
	}
	if m["server.indexed"] != true {
		t.Errorf("server.indexed = %v, want true after the first miss", m["server.indexed"])
	}
}

func TestCacheLRUEviction(t *testing.T) {
	g := gen.PlantedPartition(6, 20, 0.4, 0.02, 7)
	srv := New(g, 2).WithCacheSize(2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get(t, ts, "/cluster?eps=0.4&mu=2", http.StatusOK)
	get(t, ts, "/cluster?eps=0.5&mu=2", http.StatusOK)
	// Touch the first entry so 0.5 becomes least recently used.
	get(t, ts, "/cluster?eps=0.4&mu=2", http.StatusOK)
	// Third distinct key evicts 0.5.
	get(t, ts, "/cluster?eps=0.6&mu=2", http.StatusOK)

	size, evictions := srv.cache.len(), srv.cache.evictions
	_, has04 := srv.cache.items[cacheKey{eps: simdef.MustEpsilon("0.4"), mu: 2}]
	_, has05 := srv.cache.items[cacheKey{eps: simdef.MustEpsilon("0.5"), mu: 2}]
	if size != 2 {
		t.Errorf("cache size = %d, want 2", size)
	}
	if evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}
	if !has04 || has05 {
		t.Errorf("LRU kept wrong entries: has0.4=%v has0.5=%v", has04, has05)
	}

	m := get(t, ts, "/metrics", http.StatusOK)
	if got := m[obsv.MetricCacheEvictions].(float64); got != 1 {
		t.Errorf("/metrics evictions = %v, want 1", got)
	}
	if got := m[obsv.MetricCacheSize].(float64); got != 2 {
		t.Errorf("/metrics cache size = %v, want 2", got)
	}
}

func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	srv := New(testGraph(t), 2).WithLogging(log.New(&buf, "", 0))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get(t, ts, "/cluster?eps=0.7&mu=2", http.StatusOK)
	get(t, ts, "/cluster?eps=0.7&mu=x", http.StatusBadRequest)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("log lines = %d, want 2: %q", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "path=/cluster") || !strings.Contains(lines[0], "status=200") {
		t.Errorf("first log line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "status=400") {
		t.Errorf("second log line = %q", lines[1])
	}
	for _, l := range lines {
		for _, field := range []string{"method=GET", "query=", "bytes=", "durMs="} {
			if !strings.Contains(l, field) {
				t.Errorf("log line missing %s: %q", field, l)
			}
		}
	}
}

func TestLRUUnit(t *testing.T) {
	c := newLRU(2)
	k := func(e string) cacheKey { return cacheKey{eps: simdef.MustEpsilon(e), mu: 1} }
	c.add(k("0.1"), nil)
	c.add(k("0.2"), nil)
	if _, ok := c.get(k("0.1")); !ok {
		t.Fatal("0.1 missing")
	}
	c.add(k("0.3"), nil) // evicts 0.2 (0.1 was refreshed)
	if _, ok := c.get(k("0.2")); ok {
		t.Error("0.2 should have been evicted")
	}
	if _, ok := c.get(k("0.1")); !ok {
		t.Error("0.1 should survive")
	}
	if c.len() != 2 || c.evictions != 1 {
		t.Errorf("len=%d evictions=%d", c.len(), c.evictions)
	}
	// Re-adding an existing key refreshes, no eviction.
	c.add(k("0.1"), nil)
	if c.len() != 2 || c.evictions != 1 {
		t.Errorf("after refresh: len=%d evictions=%d", c.len(), c.evictions)
	}
	// Degenerate capacity clamps to 1.
	c1 := newLRU(0)
	c1.add(k("0.4"), nil)
	c1.add(k("0.5"), nil)
	if c1.len() != 1 {
		t.Errorf("cap-0 cache len = %d, want 1", c1.len())
	}
}
