package shard

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppscan/graph"
	"ppscan/internal/algotest"
	"ppscan/internal/engine"
	"ppscan/internal/fault"
	"ppscan/internal/gen"
	"ppscan/internal/intersect"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
	"ppscan/internal/scan"
	"ppscan/internal/sched"
	"ppscan/internal/simdef"
)

// The two ways a test coordinator reaches its workers: real sockets through
// httptest servers (what scanserver/scanshard run on), and the dist-scan
// engine's in-process loopback. The fault ladder must classify failures
// identically over both.
const (
	overHTTP     = "http"
	overLoopback = "loopback"
)

// states counts a worker's query states and the ready ones among them.
func states(w *Worker) (n, ready int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, st := range w.states {
		st.mu.Lock()
		if st.ready {
			ready++
		}
		st.mu.Unlock()
		n++
	}
	return n, ready
}

// readyState returns the worker's state for key when it is ready, else nil.
func readyState(w *Worker, key stateKey) *queryState {
	w.mu.Lock()
	st := w.states[key]
	w.mu.Unlock()
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.ready {
		return nil
	}
	return st
}

// overBoth runs fn once per transport.
func overBoth(t *testing.T, fn func(t *testing.T, transport string)) {
	for _, tr := range []string{overHTTP, overLoopback} {
		t.Run(tr, func(t *testing.T) { fn(t, tr) })
	}
}

// mount exposes handlers[shard] over the transport and returns their
// addresses, the client that reaches them (nil: the coordinator's default)
// and, over HTTP, the servers so a test can kill one.
func mount(t *testing.T, transport string, handlers []http.Handler) ([]string, *http.Client, []*httptest.Server) {
	t.Helper()
	addrs := make([]string, len(handlers))
	if transport == overLoopback {
		lb := loopback{}
		for s, h := range handlers {
			host := fmt.Sprintf("shard-%d", s)
			lb[host] = h
			addrs[s] = "http://" + host
		}
		return addrs, &http.Client{Transport: lb}, nil
	}
	servers := make([]*httptest.Server, len(handlers))
	for s, h := range handlers {
		servers[s] = httptest.NewServer(h)
		t.Cleanup(servers[s].Close)
		addrs[s] = servers[s].URL
	}
	return addrs, nil, servers
}

// fleet is an in-process worker fleet for tests: one real Worker per
// shard, mounted over one of the transports.
type fleet struct {
	workers []*Worker
	servers []*httptest.Server // overHTTP only
	addrs   []string
	client  *http.Client
}

func newFleet(t *testing.T, transport string, g *graph.Graph, shards int) *fleet {
	return newFleetWorkers(t, transport, g, shards, 2)
}

// newFleetWorkers is newFleet with each worker running its phases on
// workers goroutines.
func newFleetWorkers(t *testing.T, transport string, g *graph.Graph, shards, workers int) *fleet {
	t.Helper()
	f := &fleet{}
	handlers := make([]http.Handler, shards)
	for s := range handlers {
		w, err := NewWorker(g, WorkerOptions{Shard: s, Shards: shards, Workers: workers})
		if err != nil {
			t.Fatalf("NewWorker(%d/%d): %v", s, shards, err)
		}
		f.workers = append(f.workers, w)
		handlers[s] = w.Handler()
	}
	f.addrs, f.client, f.servers = mount(t, transport, handlers)
	return f
}

// coord builds a coordinator over the fleet with fast test timings.
func (f *fleet) coord(t *testing.T, g *graph.Graph) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(g, Options{
		Shards:          f.addrs,
		Client:          f.client,
		StepTimeout:     5 * time.Second,
		RetryBackoff:    time.Millisecond,
		MaxRetryBackoff: 10 * time.Millisecond,
		// Counter assertions must not see other tests' coordinators.
		Registry: obsv.New(),
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	return c
}

func reference(g *graph.Graph, th simdef.Threshold) *result.Result {
	return scan.Run(g, th, engine.Options{Kernel: intersect.Merge}, scan.Options{}, nil)
}

// TestRunMatchesReferenceCorpus: the fleet's answer equals SCAN's at every
// shard count × worker goroutine count, over the ε of algotest.Params (on
// these graphs some arcs sit exactly at σ = ε) and µ ∈ {1, 2, max-degree +
// 1}, the last leaving no core at all.
func TestRunMatchesReferenceCorpus(t *testing.T) {
	for _, tc := range algotest.Corpus() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			var ths []simdef.Threshold
			for _, p := range algotest.Params() {
				if p.Mu != 1 {
					continue
				}
				for _, mu := range []int32{1, 2, tc.G.MaxDegree() + 1} {
					ths = append(ths, mustTh(t, p.Eps.String(), mu))
				}
			}
			for _, shards := range []int{1, 2, 5} {
				for _, workers := range []int{1, 2, 7} {
					f := newFleetWorkers(t, overLoopback, tc.G, shards, workers)
					c := f.coord(t, tc.G)
					for _, th := range ths {
						got, err := c.Run(context.Background(), th.Eps.String(), th.Mu)
						if err == nil {
							err = result.Equal(reference(tc.G, th), got)
						}
						if err != nil {
							t.Fatalf("shards=%d workers=%d eps=%s mu=%d: %v", shards, workers, th.Eps, th.Mu, err)
						}
					}
				}
			}
		})
	}
}

func TestShardCountIndependence(t *testing.T) {
	g := algotest.RandomGraph(42)
	th, _ := simdef.NewThreshold("0.4", 3)
	want := reference(g, th)
	for _, shards := range []int{1, 2, 4, 7} {
		f := newFleet(t, overHTTP, g, shards)
		c := f.coord(t, g)
		got, err := c.Run(context.Background(), "0.4", 3)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if err := result.Equal(want, got); err != nil {
			t.Errorf("shards=%d changes output: %v", shards, err)
		}
	}
}

func TestCommBytesMeasured(t *testing.T) {
	g := algotest.RandomGraph(7)
	f := newFleet(t, overHTTP, g, 3)
	c := f.coord(t, g)
	r, err := c.Run(context.Background(), "0.4", 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.CommBytes == 0 {
		t.Error("multi-shard query reported 0 wire bytes; measurement broken")
	}
	if r.Stats.Algorithm != "shard-scan(s=3)" {
		t.Errorf("algorithm label %q", r.Stats.Algorithm)
	}
}

// TestResponseBodyCapped: a worker whose 200 response runs past the
// coordinator's byte cap is refused with a typed rejection — the body is not
// buffered until memory runs out — while a cap that every real response fits
// under changes neither the answer nor the bytes counted.
func TestResponseBodyCapped(t *testing.T) {
	g := algotest.RandomGraph(7)
	oversize := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		// A well-formed roles response of at least a byte per role.
		_ = gob.NewEncoder(rw).Encode(&StepResponse{Round: RoundRoles, Roles: make([]result.Role, 1<<20)})
	})
	addrs, client, _ := mount(t, overHTTP, []http.Handler{oversize})
	c, err := NewCoordinator(g, Options{
		Shards: addrs, Client: client, MaxAttempts: 1, Registry: obsv.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.maxRespBytes = 1 << 16
	_, err = c.Run(context.Background(), "0.4", 3)
	var rej *ShardRejectedError
	if !errors.As(err, &rej) || rej.Kind != rejectOversize {
		t.Fatalf("oversize response: want ShardRejectedError kind %s, got %v", rejectOversize, err)
	}

	// Each query runs on a fresh one-goroutine fleet: a worker's replies
	// report the CompSim calls it made, which a warm state or another
	// schedule changes.
	cold := func(maxRespBytes int64) (*result.Result, error) {
		fc := newFleetWorkers(t, overHTTP, g, 3, 1).coord(t, g)
		if maxRespBytes > 0 {
			fc.maxRespBytes = maxRespBytes
		}
		return fc.Run(context.Background(), "0.4", 3)
	}
	want, err := cold(0)
	if err != nil {
		t.Fatal(err)
	}
	// No single response is larger than the whole query's traffic.
	got, err := cold(want.Stats.CommBytes)
	if err != nil {
		t.Fatalf("in-bound responses under a tight cap: %v", err)
	}
	if err := result.Equal(want, got); err != nil {
		t.Error(err)
	}
	if got.Stats.CommBytes != want.Stats.CommBytes {
		t.Errorf("comm bytes under a tight cap = %d, want %d", got.Stats.CommBytes, want.Stats.CommBytes)
	}
}

// flakyProxy fails the first n requests with a severed connection, then
// forwards.
type flakyProxy struct {
	backend http.Handler
	mu      sync.Mutex
	fails   int
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	fail := p.fails > 0
	if fail {
		p.fails--
	}
	p.mu.Unlock()
	if fail {
		panic(http.ErrAbortHandler) // net/http severs the connection
	}
	p.backend.ServeHTTP(w, r)
}

func TestRetryAfterTransportFailure(t *testing.T) {
	overBoth(t, testRetryAfterTransportFailure)
}

func testRetryAfterTransportFailure(t *testing.T, transport string) {
	g := algotest.RandomGraph(3)
	w, err := NewWorker(g, WorkerOptions{Shard: 0, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	proxy := &flakyProxy{backend: w.Handler(), fails: 2}
	addrs, client, _ := mount(t, transport, []http.Handler{proxy})
	c, err := NewCoordinator(g, Options{
		Shards:       addrs,
		Client:       client,
		RetryBackoff: time.Millisecond,
		MaxAttempts:  4,
		Registry:     obsv.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	th, _ := simdef.NewThreshold("0.5", 2)
	want := reference(g, th)
	got, err := c.Run(context.Background(), "0.5", 2)
	if err != nil {
		t.Fatalf("retries did not absorb 2 severed connections: %v", err)
	}
	if err := result.Equal(want, got); err != nil {
		t.Fatal(err)
	}
	if c.retriesC.Value() == 0 {
		t.Error("no retries counted despite injected transport failures")
	}
	if c.crashes.Value() == 0 {
		t.Error("severed connections not classified as crashes")
	}
}

func TestUnavailableWhenNoReplicaLeft(t *testing.T) {
	g := algotest.RandomGraph(9)
	f := newFleet(t, overHTTP, g, 2)
	f.servers[1].Close()
	c, err := NewCoordinator(g, Options{
		Shards:       f.addrs,
		RetryBackoff: time.Millisecond,
		MaxAttempts:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background(), "0.4", 3)
	var ua *ShardUnavailableError
	if !errors.As(err, &ua) {
		t.Fatalf("want ShardUnavailableError, got %v", err)
	}
	if ua.Shard != 1 {
		t.Errorf("unavailable error names shard %d, want 1", ua.Shard)
	}
	var crash *ShardCrashError
	if !errors.As(err, &crash) {
		t.Errorf("unavailable error should wrap the leaf ShardCrashError, got %v", ua.Err)
	}
	if c.unavailable.Value() == 0 {
		t.Error("unavailable counter not bumped")
	}
}

func TestStragglerTimesOut(t *testing.T) { overBoth(t, testStragglerTimesOut) }

func testStragglerTimesOut(t *testing.T, transport string) {
	g := algotest.RandomGraph(11)
	w, err := NewWorker(g, WorkerOptions{Shard: 0, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	slow := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
		w.Handler().ServeHTTP(rw, r)
	})
	addrs, client, _ := mount(t, transport, []http.Handler{slow})
	c, err := NewCoordinator(g, Options{
		Shards:       addrs,
		Client:       client,
		StepTimeout:  30 * time.Millisecond,
		RetryBackoff: time.Millisecond,
		MaxAttempts:  2,
		Registry:     obsv.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background(), "0.4", 3)
	var to *ShardTimeoutError
	if !errors.As(err, &to) {
		t.Fatalf("want ShardTimeoutError in chain, got %v", err)
	}
	if c.timeouts.Value() == 0 {
		t.Error("timeout counter not bumped")
	}
}

func TestEpochCatchUpOnMutation(t *testing.T) {
	g := algotest.RandomGraph(13)
	f := newFleet(t, overHTTP, g, 2)
	c := f.coord(t, g)
	if _, err := c.Run(context.Background(), "0.4", 3); err != nil {
		t.Fatal(err)
	}
	// Mutate: commit a batch through a store, publish the new snapshot.
	st := graph.NewStore(g)
	var ops []graph.EdgeOp
	n := g.NumVertices()
	for v := int32(1); v < n && len(ops) < 5; v++ {
		if g.EdgeOffset(0, v) < 0 {
			ops = append(ops, graph.EdgeOp{U: 0, V: v})
		}
	}
	if len(ops) == 0 {
		t.Skip("vertex 0 already saturated")
	}
	delta, err := st.Commit(ops)
	if err != nil {
		t.Fatal(err)
	}
	g2 := delta.New
	if g2.Epoch() == g.Epoch() {
		t.Fatal("commit did not advance the epoch")
	}
	c.Publish(g2)
	// Workers still hold the old epoch; the next query must trigger 409 →
	// sync → retry, transparently.
	want := reference(g2, mustTh(t, "0.4", 3))
	got, err := c.Run(context.Background(), "0.4", 3)
	if err != nil {
		t.Fatalf("epoch catch-up failed: %v", err)
	}
	if err := result.Equal(want, got); err != nil {
		t.Fatalf("post-mutation result wrong (stale epoch served?): %v", err)
	}
	if c.syncsC.Value() == 0 {
		t.Error("no snapshot syncs counted despite an epoch bump")
	}
	for s, w := range f.workers {
		if e := w.Epoch(); e != g2.Epoch() {
			t.Errorf("shard %d worker stuck at epoch %d, want %d", s, e, g2.Epoch())
		}
	}
}

// TestWorkerRejectsWrongPartitionArguments: a worker started as shard 0 of
// 3 behind a coordinator that has 2 shards answers every round addressed
// to shard 0 of 2 with 400 wrong_shard. Its reply would echo the right
// shard id, so only the request's partition catches it: the query fails
// typed and never returns an answer.
func TestWorkerRejectsWrongPartitionArguments(t *testing.T) {
	overBoth(t, func(t *testing.T, transport string) {
		g := algotest.RandomGraph(23)
		wrong, err := NewWorker(g, WorkerOptions{Shard: 0, Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		right, err := NewWorker(g, WorkerOptions{Shard: 1, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		addrs, client, _ := mount(t, transport, []http.Handler{wrong.Handler(), right.Handler()})
		c, err := NewCoordinator(g, Options{
			Shards: addrs, Client: client, RetryBackoff: time.Millisecond, MaxAttempts: 2, Registry: obsv.New(),
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Run(context.Background(), "0.4", 3)
		if got != nil {
			t.Fatal("a mispartitioned worker's fleet returned an answer")
		}
		var ua *ShardUnavailableError
		var rej *ShardRejectedError
		if !errors.As(err, &ua) || ua.Shard != 0 || !errors.As(err, &rej) ||
			rej.Kind != rejectWrongShard || rej.Status != http.StatusBadRequest {
			t.Fatalf("want ShardUnavailableError for shard 0 wrapping a 400 %s rejection, got %v", rejectWrongShard, err)
		}
		if n, _ := states(wrong); n != 0 {
			t.Error("the mispartitioned worker ran round work before refusing")
		}
	})
}

func TestQueryCancellation(t *testing.T) { overBoth(t, testQueryCancellation) }

func testQueryCancellation(t *testing.T, transport string) {
	g := algotest.RandomGraph(37)
	w, err := NewWorker(g, WorkerOptions{Shard: 0, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var once sync.Once
	slow := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(release) })
		time.Sleep(50 * time.Millisecond)
		w.Handler().ServeHTTP(rw, r)
	})
	addrs, client, _ := mount(t, transport, []http.Handler{slow})
	c, err := NewCoordinator(g, Options{Shards: addrs, Client: client})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-release
		cancel()
	}()
	_, err = c.Run(ctx, "0.4", 3)
	if err == nil {
		t.Fatal("canceled query returned a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in chain, got %v", err)
	}
}

// TestStepContextStopsRolesRound: a worker's roles round (P1–P3) runs under
// the step request's context. When the coordinator's StepTimeout fires or
// the client hangs up mid-pass, the pass stops within one task per core —
// it used to keep every core busy to the end — and leaves no half-computed
// state behind: the next query for that key recomputes and is exact.
func TestStepContextStopsRolesRound(t *testing.T) {
	t.Cleanup(fault.Disable)
	const workers = 2
	g := gen.Roll(60_000, 32, 13)
	w, err := NewWorker(g, WorkerOptions{Shard: 0, Shards: 1, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&StepRequest{Shards: 1, Round: RoundRoles, Epoch: g.Epoch(), Eps: "0.5", Mu: 4}); err != nil {
		t.Fatal(err)
	}
	// Every executed task is one worker_task hit; the delay rule makes them
	// countable, and its millisecond sleep yields each task's P, so the
	// canceller below runs before the pass ends even at GOMAXPROCS 1.
	tasks := func() uint64 { return fault.Snapshot().Delays }
	fault.Enable(&fault.Plan{Rules: []fault.Rule{{Point: fault.WorkerTask, Action: fault.ActDelay, Start: 1, Every: 1, Delay: time.Millisecond}}})
	start := tasks()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	atCancel := make(chan uint64, 1)
	go func() {
		for tasks() == start {
			runtime.Gosched() // until the pass's first task runs
		}
		cancel()
		atCancel <- tasks()
	}()
	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathStep, &body).WithContext(ctx))
	end, stopped := tasks(), <-atCancel
	fault.Disable()
	if rec.Code == http.StatusOK {
		t.Fatalf("cancelled roles round answered 200 after %d tasks", end-start)
	}
	if n, ready := states(w); n != 1 || ready != 0 {
		t.Fatalf("after the cancelled pass: %d states, %d ready; want 1 and 0", n, ready)
	}
	// A task that passed its stop check before the cancel still runs; there
	// is at most one of those per core.
	if end-stopped > workers {
		t.Errorf("%d tasks started after the cancel, want at most %d", end-stopped, workers)
	}
	total := uint64(g.NumDirectedEdges() / sched.DefaultDegreeThreshold)
	if end-start >= total {
		t.Errorf("cancelled pass ran %d tasks of about %d: it did not stop", end-start, total)
	}

	addrs, client, _ := mount(t, overLoopback, []http.Handler{w.Handler()})
	c, err := NewCoordinator(g, Options{Shards: addrs, Client: client})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(context.Background(), "0.5", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := result.Equal(reference(g, mustTh(t, "0.5", 4)), got); err != nil {
		t.Fatal(err)
	}
	if n, ready := states(w); n != 1 || ready != 1 {
		t.Errorf("after the query: %d states, %d ready; want the aborted one recomputed", n, ready)
	}
}

func TestWorkerStateCacheSharedAcrossQueries(t *testing.T) {
	g := algotest.RandomGraph(41)
	f := newFleet(t, overHTTP, g, 1)
	c := f.coord(t, g)
	ctx := context.Background()
	if _, err := c.Run(ctx, "0.4", 3); err != nil {
		t.Fatal(err)
	}
	w, key := f.workers[0], stateKey{epoch: g.Epoch(), eps: "2/5", mu: 3}
	// A state turns ready once and stays so; a query finding the same ready
	// state reuses its roles instead of recomputing them.
	first := readyState(w, key)
	if first == nil {
		t.Fatal("after the first query: no ready state for its key")
	}
	if _, err := c.Run(ctx, "0.4", 3); err != nil {
		t.Fatal(err)
	}
	if n, _ := states(w); n != 1 || readyState(w, key) != first {
		t.Errorf("second identical query built a new state (%d states)", n)
	}
}

// TestConcurrentQueriesShareState: concurrent queries on one fleet, some on
// the same (ε, µ) and so on one worker state, and more keys than a worker
// keeps, so states are evicted while queries use them. Every answer is
// SCAN's.
func TestConcurrentQueriesShareState(t *testing.T) {
	g := algotest.RandomGraph(67)
	c := newFleet(t, overLoopback, g, 2).coord(t, g)
	var keys []simdef.Threshold
	for _, eps := range []string{"0.3", "0.4", "0.5"} {
		for _, mu := range []int32{2, 3} {
			keys = append(keys, mustTh(t, eps, mu))
		}
	}
	var wg sync.WaitGroup
	for q := 0; q < 8; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; i < len(keys); i++ {
				th := keys[(q+i)%len(keys)]
				got, err := c.Run(context.Background(), th.Eps.String(), th.Mu)
				if err == nil {
					err = result.Equal(reference(g, th), got)
				}
				if err != nil {
					t.Errorf("query %d eps=%s mu=%d: %v", q, th.Eps, th.Mu, err)
					return
				}
			}
		}(q)
	}
	wg.Wait()
}

func TestInjectedShardRPCFaultIsRetried(t *testing.T) {
	g := algotest.RandomGraph(43)
	f := newFleet(t, overHTTP, g, 2)
	c := f.coord(t, g)
	plan := &fault.Plan{Rules: []fault.Rule{
		{Point: fault.ShardRPC, Action: fault.ActError, Start: 1, Count: 2},
	}}
	fault.Enable(plan)
	defer fault.Disable()
	th, _ := simdef.NewThreshold("0.4", 3)
	want := reference(g, th)
	got, err := c.Run(context.Background(), "0.4", 3)
	if err != nil {
		t.Fatalf("injected RPC faults not absorbed: %v", err)
	}
	if err := result.Equal(want, got); err != nil {
		t.Fatal(err)
	}
}

func TestInjectedWorkerPanicSeversConnection(t *testing.T) {
	overBoth(t, testInjectedWorkerPanicSeversConnection)
}

func testInjectedWorkerPanicSeversConnection(t *testing.T, transport string) {
	g := algotest.RandomGraph(47)
	f := newFleet(t, transport, g, 1)
	c := f.coord(t, g)
	plan := &fault.Plan{Rules: []fault.Rule{
		{Point: fault.ShardCrash, Action: fault.ActPanic, Start: 1, Count: 1},
	}}
	fault.Enable(plan)
	defer fault.Disable()
	th, _ := simdef.NewThreshold("0.4", 3)
	want := reference(g, th)
	got, err := c.Run(context.Background(), "0.4", 3)
	if err != nil {
		t.Fatalf("worker panic not contained by retry: %v", err)
	}
	if err := result.Equal(want, got); err != nil {
		t.Fatal(err)
	}
	if c.crashes.Value() == 0 {
		t.Error("severed connection not classified as a crash")
	}
}

func mustTh(t *testing.T, eps string, mu int32) simdef.Threshold {
	t.Helper()
	th, err := simdef.NewThreshold(eps, mu)
	if err != nil {
		t.Fatal(err)
	}
	return th
}

func TestNewCoordinatorValidation(t *testing.T) {
	g := algotest.RandomGraph(51)
	if _, err := NewCoordinator(g, Options{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := NewCoordinator(g, Options{Shards: []string{""}}); err == nil {
		t.Error("address-less shard accepted")
	}
}

func TestNewWorkerValidation(t *testing.T) {
	g := algotest.RandomGraph(53)
	if _, err := NewWorker(g, WorkerOptions{Shard: 0, Shards: 0}); err == nil {
		t.Error("zero shard count accepted")
	}
	if _, err := NewWorker(g, WorkerOptions{Shard: 3, Shards: 2}); err == nil {
		t.Error("out-of-range shard id accepted")
	}
}

func TestErrorStringsNameBlastRadius(t *testing.T) {
	e1 := &ShardTimeoutError{Shard: 2, Addr: "http://x:1", Round: RoundRoles, Timeout: time.Second}
	e2 := &ShardCrashError{Shard: 1, Addr: "http://y:2", Round: RoundRoles, Err: fmt.Errorf("boom")}
	e3 := &ShardRejectedError{Shard: 0, Addr: "http://z:3", Round: RoundCluster, Status: 409, Kind: "epoch_mismatch", Msg: "stale"}
	e4 := &ShardUnavailableError{Shard: 3, Round: RoundMembers, Attempts: 4, Err: e2}
	for _, e := range []error{e1, e2, e3, e4} {
		if e.Error() == "" {
			t.Fatalf("%T empty error string", e)
		}
	}
	if !errors.Is(e4, e2) {
		t.Error("unavailable does not unwrap to its leaf")
	}
}

// tamper forwards to a real worker and rewrites its 200 replies to one
// round: the first left of them, or every one when left is nil.
type tamper struct {
	backend http.Handler
	round   string
	edit    func(*StepResponse)
	left    *atomic.Int32
}

func (tp tamper) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	tp.backend.ServeHTTP(rec, r)
	var resp StepResponse
	if rec.Code != http.StatusOK || gob.NewDecoder(bytes.NewReader(rec.Body.Bytes())).Decode(&resp) != nil || resp.Round != tp.round ||
		tp.left != nil && tp.left.Add(-1) < 0 {
		rw.WriteHeader(rec.Code)
		_, _ = rw.Write(rec.Body.Bytes())
		return
	}
	tp.edit(&resp)
	_ = gob.NewEncoder(rw).Encode(&resp)
}

// TestCoordinatorChecksReplies: a 200 reply that does not fit its round is
// a bad_response rejection, so a worker that tampers once is absorbed by
// the retry and one that always tampers leaves its shard unavailable —
// never a panic, a vertex left RoleUnknown or a membership outside the
// graph.
func TestCoordinatorChecksReplies(t *testing.T) { overBoth(t, testCoordinatorChecksReplies) }

func testCoordinatorChecksReplies(t *testing.T, transport string) {
	g := algotest.RandomGraph(59)
	th := mustTh(t, "0.4", 2)
	want := reference(g, th)
	cases := []struct {
		round string
		edit  func(*StepResponse)
	}{
		{RoundRoles, func(r *StepResponse) { r.Roles = r.Roles[:len(r.Roles)/2] }},
		{RoundCluster, func(r *StepResponse) { r.UnionEdges = append(r.UnionEdges, [2]int32{0, 1 << 20}) }},
		{RoundMembers, func(r *StepResponse) { r.Members = append(r.Members, result.Membership{V: 1 << 20}) }},
	}
	for _, tc := range cases {
		t.Run(tc.round, func(t *testing.T) {
			honest, err := NewWorker(g, WorkerOptions{Shard: 0, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			other, err := NewWorker(g, WorkerOptions{Shard: 1, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, once := range []bool{true, false} {
				bad := tamper{backend: honest.Handler(), round: tc.round, edit: tc.edit}
				if once {
					bad.left = new(atomic.Int32)
					bad.left.Store(1)
				}
				addrs, client, _ := mount(t, transport, []http.Handler{bad, other.Handler()})
				c, err := NewCoordinator(g, Options{
					Shards: addrs, Client: client,
					RetryBackoff: time.Millisecond, MaxAttempts: 2, Registry: obsv.New(),
				})
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.Run(context.Background(), "0.4", 2)
				if once {
					if err != nil {
						t.Fatalf("retry past a tampered reply: %v", err)
					}
					if err := result.Equal(want, got); err != nil {
						t.Fatal(err)
					}
					if c.retriesC.Value() == 0 {
						t.Error("no retry counted")
					}
					continue
				}
				var rej *ShardRejectedError
				if !errors.As(err, &rej) || rej.Kind != rejectBadResponse || rej.Round != tc.round {
					t.Fatalf("an always-tampering worker: want ShardRejectedError %s in round %s, got %v", rejectBadResponse, tc.round, err)
				}
			}
		})
	}
}

// TestWorkerChecksRequests: a round request whose roles are not all Core /
// NonCore, or whose cluster ids cannot be P6's, is a 400 bad_request — the
// worker stores and trusts none of it.
func TestWorkerChecksRequests(t *testing.T) {
	g := algotest.RandomGraph(61)
	w, err := NewWorker(g, WorkerOptions{Shard: 0, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	v := g.Neighbors(0)[0]
	badRoles := make([]result.Role, n)
	for i := range badRoles {
		badRoles[i] = result.RoleNonCore
	}
	badRoles[n-1] = 7
	base := StepRequest{Shards: 1, Epoch: g.Epoch(), Eps: "0.4", Mu: 2}
	reqs := map[string]StepRequest{}
	cores := make([]result.Role, n)
	for i := range cores {
		cores[i] = result.RoleCore
	}
	for _, id := range []int32{-1, v, n} {
		r := base
		ids := make([]int32, n)
		ids[0] = id
		r.Round, r.Roles, r.CoreClusterID = RoundMembers, cores, ids
		reqs[fmt.Sprintf("cluster id %d", id)] = r
	}
	for _, round := range []string{RoundCluster, RoundMembers} {
		for _, roles := range [][]result.Role{make([]result.Role, n), badRoles} {
			r := base
			r.Round, r.Roles, r.CoreClusterID = round, roles, make([]int32, n)
			reqs[fmt.Sprintf("%s roles %v", round, roles[n-1])] = r
		}
	}
	for name, req := range reqs {
		var body bytes.Buffer
		if err := gob.NewEncoder(&body).Encode(&req); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		w.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathStep, &body))
		if rec.Code != http.StatusBadRequest || !bytes.Contains(rec.Body.Bytes(), []byte(rejectBadRequest)) {
			t.Errorf("%s: answered %d, want 400 %s", name, rec.Code, rejectBadRequest)
		}
	}
}
