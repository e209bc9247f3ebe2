package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ppscan"
	"ppscan/graph"
	"ppscan/internal/fault"
	"ppscan/internal/gen"
	"ppscan/internal/obsv"
	"ppscan/internal/simdef"
)

// sweepLines GETs an NDJSON sweep and decodes every line.
func sweepLines(t *testing.T, ts *httptest.Server, path string) []map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, want 200", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("GET %s: Content-Type %q, want application/x-ndjson", path, ct)
	}
	var out []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("GET %s: bad NDJSON line %q: %v", path, sc.Text(), err)
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSweepParseEps pins the exact-decimal grid expansion.
func TestSweepParseEps(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []string
	}{
		{"0.2:0.8:0.2", []string{"0.2", "0.4", "0.6", "0.8"}},
		// Mixed scales rescale to the finest; endpoints inclusive.
		{"0.2:0.3:0.05", []string{"0.2", "0.25", "0.3"}},
		// Trailing zeros trimmed so gridpoints match hand-typed /cluster eps.
		{"0.10:0.30:0.10", []string{"0.1", "0.2", "0.3"}},
		{"1:1:1", []string{"1"}},
		{"0.3,0.55,0.7", []string{"0.3", "0.55", "0.7"}},
		{"0.65", []string{"0.65"}},
	} {
		got, err := parseSweepEps(tc.spec, 256)
		if err != nil {
			t.Errorf("%q: %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: got %v, want %v", tc.spec, got, tc.want)
		}
	}
	for _, spec := range []string{
		"",            // missing
		"0.2:0.8",     // not three parts
		"0.2:0.8:0",   // zero step
		"0.8:0.2:0.1", // start > end
		"0.2:0.8:x",   // non-decimal
		"-0.2:0.8:0.1",
		"0.0001:1:0.0001",         // exceeds max steps
		"2:8:1",                   // operands outside [0, 1]
		"0.2:0.8:999999999999999", // step outside [0, 1]
		// 15-digit operands that, rescaled by the fractional step's 10^4,
		// used to overflow int64 and walk a wrapped-negative grid for ~10^15
		// iterations; must be a fast 400, not a hang.
		"922337203685222:922337203685477:1.0000",
	} {
		if _, err := parseSweepEps(spec, 256); err == nil {
			t.Errorf("%q: expected an error", spec)
		}
	}
	if _, err := parseSweepEps("0.1,0.2,0.3", 2); err == nil || !strings.Contains(err.Error(), "bound") {
		t.Errorf("comma list over max: got %v, want bound error", err)
	}
}

// FuzzParseSweepEps: whatever the spec, parseSweepEps never panics and
// either rejects it or returns at most max steps, each an ε
// simdef.ParseEpsilon accepts; a range's steps strictly increase inside
// [0, 1]. The seed corpus is testdata/fuzz/FuzzParseSweepEps.
func FuzzParseSweepEps(f *testing.F) {
	const max = DefaultSweepMaxSteps
	f.Fuzz(func(t *testing.T, spec string) {
		out, err := parseSweepEps(spec, max)
		if err != nil {
			return
		}
		if len(out) == 0 || len(out) > max {
			t.Fatalf("%q: %d steps, want 1..%d", spec, len(out), max)
		}
		var prev simdef.Epsilon
		for i, e := range out {
			eps, err := simdef.ParseEpsilon(e)
			if err != nil {
				t.Fatalf("%q: step %q does not parse: %v", spec, e, err)
			}
			if !strings.Contains(spec, ":") {
				continue
			}
			if eps.Num > eps.Den {
				t.Fatalf("%q: step %q outside [0, 1]", spec, e)
			}
			if i > 0 && eps.Num*prev.Den <= prev.Num*eps.Den {
				t.Fatalf("%q: step %q does not follow %d/%d", spec, e, prev.Num, prev.Den)
			}
			prev = eps
		}
	})
}

// TestSweepMatchesCluster: every streamed step agrees with a /cluster
// request at the same ε, and the whole sweep performed one similarity
// pass (server.index.builds == 1 on a server without -index).
func TestSweepMatchesCluster(t *testing.T) {
	g := gen.Roll(300, 8, 3)
	srv := New(g, 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	lines := sweepLines(t, ts, "/cluster/sweep?eps=0.3:0.7:0.1&mu=3")
	wantEps := []string{"0.3", "0.4", "0.5", "0.6", "0.7"}
	if len(lines) != len(wantEps) {
		t.Fatalf("got %d lines, want %d", len(lines), len(wantEps))
	}
	for i, line := range lines {
		if line["eps"] != wantEps[i] {
			t.Errorf("line %d: eps %v, want %s", i, line["eps"], wantEps[i])
		}
		ref := get(t, ts, fmt.Sprintf("/cluster?eps=%s&mu=3", wantEps[i]), http.StatusOK)
		for _, k := range []string{"clusters", "cores", "memberships", "coverage"} {
			if line[k] != ref[k] {
				t.Errorf("eps=%s: sweep %s = %v, /cluster says %v", wantEps[i], k, line[k], ref[k])
			}
		}
	}
	if v := srv.reg.Counter(obsv.MetricServerIndexBuilds).Value(); v != 1 {
		t.Errorf("index builds = %d, want 1 (one similarity pass for the whole grid)", v)
	}
	if v := srv.reg.Counter(obsv.MetricServerSweepSteps).Value(); v != int64(len(wantEps)) {
		t.Errorf("sweep.steps = %d, want %d", v, len(wantEps))
	}
	if c := srv.reg.Histogram(obsv.MetricServerSweepStepNs).Count(); c != int64(len(wantEps)) {
		t.Errorf("sweep.step_ns count = %d, want %d", c, len(wantEps))
	}

	// members=true attaches the cluster membership map per step.
	lines = sweepLines(t, ts, "/cluster/sweep?eps=0.5&mu=2&members=true")
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}
	if _, ok := lines[0]["members"]; !ok {
		t.Errorf("members=true line lacks a members field: %v", lines[0])
	}
}

// TestSweepBadParams: parameter errors are a 400 before any streaming.
func TestSweepBadParams(t *testing.T) {
	srv := New(testGraph(t), 1).WithSweepMaxSteps(4)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{
		"/cluster/sweep?eps=0.3:0.7:0.1",      // missing mu
		"/cluster/sweep?eps=0.3:0.7:0.1&mu=0", // mu out of range
		"/cluster/sweep?eps=0.3:0.7:0.1&mu=x", // mu not a number
		"/cluster/sweep?mu=2",                 // missing eps
		"/cluster/sweep?eps=0.1:0.9:0.1&mu=2", // 9 steps > max 4
		"/cluster/sweep?eps=0:1:0.5&mu=2",     // gridpoint 0 outside (0, 1]
		"/cluster/sweep?eps=0.2:0.8&mu=2",     // malformed range
		"/cluster/sweep?eps=0.3,1.5&mu=2",     // list value outside (0, 1]
	} {
		body := get(t, ts, path, http.StatusBadRequest)
		if body["error"] == "" {
			t.Errorf("%s: 400 body lacks error text", path)
		}
	}
	if v := srv.reg.Counter(obsv.MetricServerIndexBuilds).Value(); v != 0 {
		t.Errorf("index builds = %d after rejected requests, want 0", v)
	}
}

// TestSweepWithIndex: an attached GS*-Index serves the sweep with zero
// per-request builds.
func TestSweepWithIndex(t *testing.T) {
	g := gen.Roll(300, 8, 3)
	ix := ppscan.BuildIndex(g, 2)
	srv := New(g, 2).WithIndex(ix)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	lines := sweepLines(t, ts, "/cluster/sweep?eps=0.3:0.6:0.1&mu=3")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	for _, line := range lines {
		ref := get(t, ts, fmt.Sprintf("/cluster?eps=%s&mu=3", line["eps"]), http.StatusOK)
		if line["clusters"] != ref["clusters"] || line["cores"] != ref["cores"] {
			t.Errorf("eps=%v: sweep (%v clusters, %v cores) != /cluster (%v, %v)",
				line["eps"], line["clusters"], line["cores"], ref["clusters"], ref["cores"])
		}
	}
	if v := srv.reg.Counter(obsv.MetricServerIndexBuilds).Value(); v != 0 {
		t.Errorf("index builds = %d with an attached index, want 0", v)
	}
}

// TestSweepSharesClusterCache: sweep gridpoints are served through the
// shared response cache. On an index-backed server, a drill-down /cluster
// request at a swept ε hits the entry the sweep left behind, and
// repeating a sweep extracts nothing new.
func TestSweepSharesClusterCache(t *testing.T) {
	g := gen.Roll(300, 8, 3)
	ix := ppscan.BuildIndex(g, 2)
	srv := New(g, 2).WithIndex(ix)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if n := len(sweepLines(t, ts, "/cluster/sweep?eps=0.3:0.5:0.1&mu=3")); n != 3 {
		t.Fatalf("got %d lines, want 3", n)
	}
	if v := srv.reg.Counter(obsv.MetricCacheMisses).Value(); v != 3 {
		t.Errorf("cache.misses after first sweep = %d, want 3", v)
	}
	get(t, ts, "/cluster?eps=0.4&mu=3", http.StatusOK)
	if v := srv.reg.Counter(obsv.MetricCacheHits).Value(); v != 1 {
		t.Errorf("cache.hits after /cluster drill-down = %d, want 1 (sweep should have warmed the entry)", v)
	}
	if n := len(sweepLines(t, ts, "/cluster/sweep?eps=0.3:0.5:0.1&mu=3")); n != 3 {
		t.Fatalf("repeat sweep: got %d lines, want 3", n)
	}
	if v := srv.reg.Counter(obsv.MetricCacheHits).Value(); v != 4 {
		t.Errorf("cache.hits after repeated sweep = %d, want 4", v)
	}
	if c := srv.reg.Histogram(obsv.MetricServerSweepStepNs).Count(); c != 3 {
		t.Errorf("sweep.step_ns count = %d, want 3 (the repeat sweep should extract nothing)", c)
	}
}

// concurrentSweeps runs one sweep per spec concurrently and returns each
// one's status and NDJSON lines (or error body), in spec order.
func concurrentSweeps(ts *httptest.Server, specs []string) ([]int, [][]map[string]any) {
	statuses := make([]int, len(specs))
	bodies := make([][]map[string]any, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec string) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/cluster/sweep?" + spec)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			dec := json.NewDecoder(resp.Body)
			for {
				var m map[string]any
				if dec.Decode(&m) != nil {
					return
				}
				bodies[i] = append(bodies[i], m)
			}
		}(i, spec)
	}
	wg.Wait()
	return statuses, bodies
}

// matchesDirect reports every difference between a sweep's lines and
// ppscan.Run on g at each line's (ε, µ).
func matchesDirect(t *testing.T, g *graph.Graph, lines []map[string]any) {
	t.Helper()
	for _, line := range lines {
		eps, _ := line["eps"].(string)
		ref, err := ppscan.Run(g, ppscan.Options{Epsilon: eps, Mu: int(line["mu"].(float64)), Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := int(line["clusters"].(float64)), ref.NumClusters(); got != want {
			t.Errorf("eps=%s: clusters = %d, want %d", eps, got, want)
		}
		if got, want := int(line["cores"].(float64)), ref.NumCores(); got != want {
			t.Errorf("eps=%s: cores = %d, want %d", eps, got, want)
		}
		if got, want := int(line["memberships"].(float64)), len(ref.NonCore); got != want {
			t.Errorf("eps=%s: memberships = %d, want %d", eps, got, want)
		}
	}
}

// TestSweepCoalesced: two concurrent sweeps in one epoch of an index-less
// server share one index build, and a /cluster request after them
// extracts from the index they left instead of building another.
func TestSweepCoalesced(t *testing.T) {
	g := gen.Roll(300, 8, 3)
	srv := New(g, 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	statuses, lines := concurrentSweeps(ts, []string{"eps=0.3:0.6:0.1&mu=3", "eps=0.35:0.65:0.1&mu=3"})
	for i, st := range statuses {
		if st != http.StatusOK || len(lines[i]) != 4 {
			t.Fatalf("sweep %d: status %d, %d lines; want 200 and 4", i, st, len(lines[i]))
		}
		matchesDirect(t, g, lines[i])
	}
	if v := srv.indexBuilds.Value(); v != 1 {
		t.Errorf("index builds = %d, want 1 (both sweeps share the epoch's index)", v)
	}
	if got := get(t, ts, "/cluster?eps=0.42&mu=3", http.StatusOK); got["algorithm"] != "GS*-Index" {
		t.Errorf("/cluster after the sweeps answered by %v, want GS*-Index", got["algorithm"])
	}
	if v := srv.indexBuilds.Value(); v != 1 {
		t.Errorf("index builds after the /cluster miss = %d, want 1", v)
	}
}

// TestCoalescingSingleFlight: N concurrent sweeps at distinct ε on one
// epoch perform exactly ONE similarity pass between them (one index build)
// and every sweep gets the exact answer.
func TestCoalescingSingleFlight(t *testing.T) {
	g := gen.Roll(300, 8, 3)
	srv := New(g, 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specs := []string{"eps=0.3&mu=3", "eps=0.4&mu=3", "eps=0.5&mu=3", "eps=0.6&mu=3"}
	statuses, lines := concurrentSweeps(ts, specs)
	for i, st := range statuses {
		if st != http.StatusOK || len(lines[i]) != 1 {
			t.Fatalf("%s: status %d, %d lines; want 200 and 1", specs[i], st, len(lines[i]))
		}
		if lines[i][0]["algorithm"] != "GS*-Index" {
			t.Errorf("%s: algorithm = %v, want GS*-Index", specs[i], lines[i][0]["algorithm"])
		}
		matchesDirect(t, g, lines[i])
	}
	if v := srv.indexBuilds.Value(); v != 1 {
		t.Errorf("index builds = %d, want 1", v)
	}
}

// TestCoalescedFaultFanout: a worker panic injected into the epoch's index
// build gives the sweep that ran it a structured 500 (kind=worker_panic),
// and no other sweep inherits it: a sweep that was waiting builds the
// index itself and answers exactly, as does the next one, from the index
// that build published.
func TestCoalescedFaultFanout(t *testing.T) {
	t.Cleanup(fault.Disable)
	fault.Disable()
	g := gen.Roll(300, 8, 3)
	srv := New(g, 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Point: fault.WorkerTask, Action: fault.ActPanic, Start: 1, Count: 1},
	}})
	specs := []string{"eps=0.3&mu=3", "eps=0.5&mu=3", "eps=0.7&mu=3"}
	statuses, lines := concurrentSweeps(ts, specs)
	fault.Disable()

	failed := 0
	for i, st := range statuses {
		switch st {
		case http.StatusInternalServerError:
			failed++
			if kind := lines[i][0]["kind"]; kind != "worker_panic" {
				t.Errorf("%s: kind %v, want worker_panic", specs[i], kind)
			}
		case http.StatusOK:
			matchesDirect(t, g, lines[i])
		default:
			t.Errorf("%s: status %d, want 200 or 500", specs[i], st)
		}
	}
	if failed != 1 {
		t.Errorf("%d sweeps failed, want exactly the one whose build panicked", failed)
	}
	if v := srv.indexBuilds.Value(); v != 2 {
		t.Errorf("index builds = %d, want 2 (the failed build, then one that published)", v)
	}

	next := sweepLines(t, ts, "/cluster/sweep?eps=0.45&mu=3")
	matchesDirect(t, g, next)
	if v := srv.indexBuilds.Value(); v != 2 {
		t.Errorf("sweep.builds after the published build = %d, want 2", v)
	}
}

// TestSweepIndexCarriesAcrossEpochs: on a mutable server with no -index,
// the first sweep builds the epoch's index and the server keeps it;
// POST /edges then carries it to the next epoch, so a second sweep builds
// nothing and still equals ppscan.Run at the new epoch. A sweep pinned to
// a superseded epoch answers at its own epoch and publishes nothing, and
// on a server that never sweeps the first /cluster miss builds the index
// the commits then carry the same way.
func TestSweepIndexCarriesAcrossEpochs(t *testing.T) {
	g := gen.Roll(300, 8, 3)
	srv := New(g, 2).WithMutations()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const sweep = "/cluster/sweep?eps=0.3:0.6:0.1&mu=3&members=true"
	indexed := func() bool { return get(t, ts, "/healthz", http.StatusOK)["indexed"].(bool) }

	st0 := srv.state.Load()
	sweepLines(t, ts, sweep)
	if v := srv.indexBuilds.Value(); v != 1 {
		t.Errorf("first sweep: builds = %d, want 1", v)
	}
	if !indexed() {
		t.Error("indexed = false after the first sweep, want true")
	}
	if resp := postEdges(t, ts, `{"u":0,"v":150}`+"\n"+`{"u":1,"v":151}`, http.StatusOK); resp["indexed"] != true {
		t.Errorf("POST /edges: indexed = %v, want true", resp["indexed"])
	}
	lines := sweepLines(t, ts, sweep)
	if v := srv.indexBuilds.Value(); v != 1 {
		t.Errorf("sweep after a commit: builds = %d, want 1 (the commit carried the index)", v)
	}
	for _, line := range lines {
		eps := line["eps"].(string)
		sameClustering(t, "sweep at eps="+eps, line, oracle(t, srv.state.Load().g, eps, 3))
	}

	// Pinned to epoch 0, which the commit superseded: the build answers
	// for epoch 0's snapshot and leaves the live epoch's state alone.
	live := srv.state.Load()
	ix, _, err := srv.epochIndex(context.Background(), st0)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Graph() != st0.g {
		t.Error("superseded sweep built over the live snapshot, want its own")
	}
	if srv.state.Load() != live {
		t.Error("superseded sweep published its index")
	}

	quiet := New(g, 2).WithMutations()
	qs := httptest.NewServer(quiet.Handler())
	defer qs.Close()
	get(t, qs, "/cluster?eps=0.5&mu=3", http.StatusOK)
	if resp := postEdges(t, qs, `{"u":0,"v":150}`, http.StatusOK); resp["indexed"] != true {
		t.Errorf("never-swept server: POST /edges indexed = %v, want true", resp["indexed"])
	}
	got := get(t, qs, "/cluster?eps=0.5&mu=3&members=true", http.StatusOK)
	sameClustering(t, "never-swept server after the commit", got, oracle(t, quiet.state.Load().g, "0.5", 3))
	if get(t, qs, "/healthz", http.StatusOK)["indexed"] != true || quiet.indexBuilds.Value() != 1 {
		t.Errorf("never-swept server: indexed %v, builds %d; want true, 1",
			get(t, qs, "/healthz", http.StatusOK)["indexed"], quiet.indexBuilds.Value())
	}
}

// TestSweepDisconnectReleasesWorkspaceOnce: a client abandoning a sweep
// mid-grid must release the pooled workspace exactly once — no leak
// (Retained would stay 0), no double release (Retained would reach 2, or
// Discards would advance).
func TestSweepDisconnectReleasesWorkspaceOnce(t *testing.T) {
	g := gen.Roll(20000, 24, 3)
	srv := New(g, 2).WithSweepMaxSteps(400)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm sweep: seeds the pool with exactly one workspace (miss + release)
	// and counts one step.
	if n := len(sweepLines(t, ts, "/cluster/sweep?eps=0.5&mu=3")); n != 1 {
		t.Fatalf("warm sweep: %d lines, want 1", n)
	}

	// Disconnected sweep: hang up on a ~280-step grid once the server has
	// extracted one of its steps. No line is written before the last step,
	// so the request is still waiting for its headers.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/cluster/sweep?eps=0.2:0.76:0.002&mu=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	stepNs := srv.reg.Histogram(obsv.MetricServerSweepStepNs)
	for deadline := time.Now().Add(10 * time.Second); stepNs.Count() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("the sweep never extracted a step")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	<-done

	// The handler observes the disconnect asynchronously; wait for the
	// workspace to come home.
	deadline := time.Now().Add(10 * time.Second)
	var st ppscan.WorkspacePoolStats
	for {
		st = srv.pool.Stats()
		if st.Hits+st.Misses >= 2 && st.Retained == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workspace never returned to the pool: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Hits+st.Misses != 2 {
		t.Errorf("pool acquires = %d (hits %d + misses %d), want 2", st.Hits+st.Misses, st.Hits, st.Misses)
	}
	if st.Retained != 1 {
		t.Errorf("pool retained = %d, want exactly 1 (double release would retain 2)", st.Retained)
	}
	if st.Discards != 0 {
		t.Errorf("pool discards = %d, want 0", st.Discards)
	}
	if v := srv.reg.Counter(obsv.MetricServerSweepDisconnects).Value(); v != 1 {
		t.Errorf("sweep.disconnects = %d, want 1", v)
	}
	if v := srv.reg.Counter(obsv.MetricServerSweepSteps).Value(); v >= 281 {
		t.Errorf("sweep.steps = %d; the disconnected sweep appears to have run to completion", v)
	}
}

// TestSweepDeadlineIsAStatus: a sweep whose deadline expires after its
// first gridpoint was answered (here from the cache) is an error status
// with Retry-After, never a 200 with a partial body.
func TestSweepDeadlineIsAStatus(t *testing.T) {
	g := gen.Roll(300, 8, 3)
	srv := New(g, 2).WithIndex(ppscan.BuildIndex(g, 2))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get(t, ts, "/cluster?eps=0.3&mu=3", http.StatusOK)

	srv.WithRequestTimeout(time.Nanosecond)
	resp, err := http.Get(ts.URL + "/cluster/sweep?eps=0.3:0.6:0.1&mu=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" || body["error"] == nil {
		t.Errorf("sweep past its deadline: status %d, Retry-After %q, body %v; want 503 with Retry-After and an error",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if v := srv.reg.Counter(obsv.MetricServerSweepDisconnects).Value(); v != 1 {
		t.Errorf("sweep.disconnects = %d, want 1", v)
	}
}

// TestCacheKeyExactEps: the response cache is keyed by the exact ε, so
// equal thresholds written differently share one entry, while every
// response echoes the ε string its request gave.
func TestCacheKeyExactEps(t *testing.T) {
	g := gen.Roll(300, 8, 3)
	srv := New(g, 2).WithIndex(ppscan.BuildIndex(g, 2))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hits, misses := srv.reg.Counter(obsv.MetricCacheHits), srv.reg.Counter(obsv.MetricCacheMisses)

	first := get(t, ts, "/cluster?eps=0.5&mu=3", http.StatusOK)
	second := get(t, ts, "/cluster?eps=1/2&mu=3", http.StatusOK)
	if misses.Value() != 1 || hits.Value() != 1 {
		t.Errorf("/cluster at 0.5 then 1/2: %d misses, %d hits; want 1 and 1", misses.Value(), hits.Value())
	}
	if first["eps"] != "0.5" || second["eps"] != "1/2" {
		t.Errorf("echoed eps %v, %v; want 0.5, 1/2", first["eps"], second["eps"])
	}

	// A comma list with a repeat and out of order: one extraction per
	// distinct ε, the lines in request order, each equal to /cluster.
	wantEps := []string{"0.5", "0.3", "0.50", "0.4"}
	lines := sweepLines(t, ts, "/cluster/sweep?eps="+strings.Join(wantEps, ",")+"&mu=3")
	if len(lines) != len(wantEps) {
		t.Fatalf("got %d lines, want %d", len(lines), len(wantEps))
	}
	if c := srv.reg.Histogram(obsv.MetricServerSweepStepNs).Count(); c != 2 {
		t.Errorf("sweep.step_ns count = %d, want 2 (0.3 and 0.4; 0.5 was cached)", c)
	}
	for i, line := range lines {
		if line["eps"] != wantEps[i] {
			t.Errorf("line %d: eps %v, want %s", i, line["eps"], wantEps[i])
		}
		ref := get(t, ts, fmt.Sprintf("/cluster?eps=%s&mu=3", wantEps[i]), http.StatusOK)
		for _, k := range []string{"clusters", "cores", "memberships", "coverage"} {
			if line[k] != ref[k] {
				t.Errorf("eps=%s: sweep %s = %v, /cluster says %v", wantEps[i], k, line[k], ref[k])
			}
		}
	}
}
