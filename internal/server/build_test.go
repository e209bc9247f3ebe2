package server

// Build-on-miss tests: on a -mutations server with no -index, the first
// miss of each epoch builds that epoch's GS*-Index under mutMu, which
// commits serialise on too.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppscan"
	"ppscan/graph"
	"ppscan/internal/gen"
	"ppscan/internal/obsv"
)

// TestBuildOnMissUnderChurn: concurrent POST /edges and /cluster reads on
// an index-less mutable server. Every read equals ppscan.Run at some epoch
// inside its window, and no published epochState ever pairs an index with
// another snapshot.
func TestBuildOnMissUnderChurn(t *testing.T) {
	g := gen.Roll(300, 8, 3)
	srv := New(g, 2).WithMutations()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The one writer records each epoch's snapshot as it publishes it.
	var snapMu sync.Mutex
	snaps := map[uint64]*graph.Graph{0: g}
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 12; i++ {
			var b strings.Builder
			for k := 0; k < 6; k++ {
				u, v := rng.Intn(300), rng.Intn(300)
				if u != v {
					fmt.Fprintf(&b, "{\"u\":%d,\"v\":%d,\"op\":%q}\n", u, v, []string{"add", "del"}[rng.Intn(2)])
				}
			}
			resp, err := http.Post(ts.URL+"/edges", "application/x-ndjson", strings.NewReader(b.String()))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("POST /edges: status %d", resp.StatusCode)
			}
			st := srv.state.Load()
			snapMu.Lock()
			snaps[st.epoch()] = st.g
			snapMu.Unlock()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// A watcher checks every published state; readers record each answer
	// with the epochs live before and after it.
	var torn atomic.Int64
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			if st := srv.state.Load(); st.ix != nil && st.ix.Graph() != st.g {
				torn.Add(1)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	type read struct {
		lo, hi  uint64
		eps     string
		mu      int
		answers map[string]any
	}
	var reads []read
	var readsMu sync.Mutex
	var rwg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				eps, mu := []string{"0.4", "0.5", "0.6"}[(i+r)%3], 2+i%2
				lo := srv.state.Load().epoch()
				body := get(t, ts, fmt.Sprintf("/cluster?eps=%s&mu=%d&members=true", eps, mu), http.StatusOK)
				hi := srv.state.Load().epoch()
				readsMu.Lock()
				reads = append(reads, read{lo, hi, eps, mu, body})
				readsMu.Unlock()
			}
		}(r)
	}
	rwg.Wait()
	<-done

	if n := torn.Load(); n != 0 {
		t.Errorf("%d loads saw an index paired with another snapshot", n)
	}
	if st := srv.state.Load(); st.ix == nil || st.ix.Graph() != st.g {
		t.Error("the final epoch is not indexed over its own snapshot")
	}
	want := map[string]map[string]any{}
	for _, rd := range reads {
		found := false
		for e := rd.lo; e <= rd.hi && !found; e++ {
			k := fmt.Sprintf("%d/%s/%d", e, rd.eps, rd.mu)
			if want[k] == nil {
				want[k] = asJSON(t, summarize("", 0, oracle(t, snaps[e], rd.eps, rd.mu), true))
			}
			found = true
			for _, f := range []string{"clusters", "cores", "memberships", "coverage", "members"} {
				found = found && reflect.DeepEqual(rd.answers[f], want[k][f])
			}
		}
		if !found {
			t.Errorf("read eps=%s mu=%d in epochs [%d, %d] matches ppscan.Run at none of them", rd.eps, rd.mu, rd.lo, rd.hi)
		}
	}
	if len(reads) == 0 {
		t.Fatal("no reads completed")
	}
}

// TestBuildOnMissCancelled: a miss whose deadline ends mid-build answers
// 503 and publishes nothing; the next miss builds and answers correctly.
func TestBuildOnMissCancelled(t *testing.T) {
	g := gen.Roll(300, 8, 3)
	srv := New(g, 2).WithMutations().WithRequestTimeout(200 * time.Millisecond)
	var calls atomic.Int32
	srv.buildFn = func(ctx context.Context, g *graph.Graph, workers int) (*ppscan.Index, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done() // the first build outlives its request's deadline
		}
		return ppscan.BuildIndexContext(ctx, g, workers)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/cluster?eps=0.5&mu=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("miss cancelled mid-build: status %d, Retry-After %q; want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if srv.state.Load().ix != nil {
		t.Fatal("the cancelled build published an index")
	}
	sameClustering(t, "the next miss", get(t, ts, "/cluster?eps=0.5&mu=3&members=true", http.StatusOK), oracle(t, g, "0.5", 3))
	if v := srv.indexBuilds.Value(); v != 2 {
		t.Errorf("index builds = %d, want 2", v)
	}
	if srv.state.Load().ix == nil {
		t.Error("the second build published nothing")
	}
}

// TestBuildOnMissPanic: a build that panics answers a structured 500,
// leaves mutMu unlocked — the next POST /edges commits — and the server
// keeps serving: the next miss builds at the new epoch and answers
// correctly.
func TestBuildOnMissPanic(t *testing.T) {
	g := gen.Roll(300, 8, 3)
	srv := New(g, 2).WithMutations()
	var calls atomic.Int32
	srv.buildFn = func(ctx context.Context, g *graph.Graph, workers int) (*ppscan.Index, error) {
		if calls.Add(1) == 1 {
			panic("synthetic build panic")
		}
		return ppscan.BuildIndexContext(ctx, g, workers)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := get(t, ts, "/cluster?eps=0.5&mu=3", http.StatusInternalServerError)
	if body["kind"] != "worker_panic" || body["phase"] != "index build" {
		t.Errorf("500 body = %v, want kind worker_panic in phase index build", body)
	}
	if p := srv.reg.Counter(obsv.MetricServerPanics).Value(); p != 1 {
		t.Errorf("server.panics = %d, want 1", p)
	}
	commit := make(chan map[string]any, 1)
	go func() { commit <- postEdges(t, ts, `{"u":0,"v":150}`, http.StatusOK) }()
	select {
	case out := <-commit:
		if out["epoch"].(float64) != 1 {
			t.Fatalf("POST /edges after the panic: epoch %v, want 1", out["epoch"])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("POST /edges after the panic never committed: mutMu is still held")
	}
	sameClustering(t, "after the panic", get(t, ts, "/cluster?eps=0.5&mu=3&members=true", http.StatusOK),
		oracle(t, srv.state.Load().g, "0.5", 3))
	get(t, ts, "/healthz", http.StatusOK)
}
