package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ppscan"
	"ppscan/internal/fault"
	"ppscan/internal/gen"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
)

// phaseDurCounts snapshots the process-global per-stage duration
// histograms (core.phase_dur_ns.*) — each direct similarity phase that
// runs adds one observation, so a zero delta proves no per-request
// similarity pass happened.
func phaseDurCounts() [result.NumPhases]int64 {
	var out [result.NumPhases]int64
	for ph := result.PhaseID(0); ph < result.NumPhases; ph++ {
		out[ph] = obsv.Default().Histogram(obsv.MetricPhaseDurPrefix + result.PhaseNames[ph]).Count()
	}
	return out
}

// TestCoalescingSingleFlight is the tentpole acceptance scenario: N
// concurrent requests at distinct ε on the same graph perform exactly ONE
// similarity pass between them, every waiter gets the exact answer, and
// the core.phase_dur_ns.* / server.coalesce.* metrics prove it.
func TestCoalescingSingleFlight(t *testing.T) {
	g := gen.Roll(300, 8, 3)
	srv := New(g, 2).WithCoalescing(300 * time.Millisecond)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	epsilons := []string{"0.3", "0.4", "0.5", "0.6"}
	runsBefore := obsv.Default().Counter(obsv.MetricCoreRuns).Value()
	phasesBefore := phaseDurCounts()

	var wg sync.WaitGroup
	bodies := make([]map[string]any, len(epsilons))
	errs := make([]error, len(epsilons))
	for i, eps := range epsilons {
		wg.Add(1)
		go func(i int, eps string) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/cluster?eps=%s&mu=3", ts.URL, eps))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("eps=%s: status %d", eps, resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&bodies[i])
		}(i, eps)
	}
	wg.Wait()
	// Snapshot the deltas before the reference runs below advance the
	// process-global counters themselves.
	runsDelta := obsv.Default().Counter(obsv.MetricCoreRuns).Value() - runsBefore
	phasesAfter := phaseDurCounts()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	// Exactness: every coalesced answer matches an out-of-band direct run.
	for i, eps := range epsilons {
		ref, err := ppscan.Run(g, ppscan.Options{Epsilon: eps, Mu: 3, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := int(bodies[i]["clusters"].(float64)), ref.NumClusters(); got != want {
			t.Errorf("eps=%s: clusters = %d, want %d", eps, got, want)
		}
		if got, want := int(bodies[i]["cores"].(float64)), ref.NumCores(); got != want {
			t.Errorf("eps=%s: cores = %d, want %d", eps, got, want)
		}
		if bodies[i]["algorithm"] != "GS*-Index" {
			t.Errorf("eps=%s: algorithm = %v, want GS*-Index", eps, bodies[i]["algorithm"])
		}
	}

	// One flight, N-1 joiners, zero direct engine runs.
	if v := srv.reg.Counter(obsv.MetricServerCoalesceFlights).Value(); v != 1 {
		t.Errorf("coalesce.flights = %d, want 1", v)
	}
	if v := srv.reg.Counter(obsv.MetricServerCoalesceHits).Value(); v != int64(len(epsilons)-1) {
		t.Errorf("coalesce.hits = %d, want %d", v, len(epsilons)-1)
	}
	if v := srv.reg.Counter(obsv.MetricServerCoalesceCancels).Value(); v != 0 {
		t.Errorf("coalesce.cancels = %d, want 0", v)
	}
	if runsDelta != 0 {
		t.Errorf("core.runs advanced by %d; the shared pass should have replaced every direct run", runsDelta)
	}
	for ph := result.PhaseID(0); ph < result.NumPhases; ph++ {
		if d := phasesAfter[ph] - phasesBefore[ph]; d != 0 {
			t.Errorf("core.phase_dur_ns.%s advanced by %d observations; want 0 (no per-request similarity phase)",
				result.PhaseNames[ph], d)
		}
	}

	// Repeating one request now hits the response cache, not a new flight.
	resp, err := http.Get(fmt.Sprintf("%s/cluster?eps=%s&mu=3", ts.URL, epsilons[0]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v := srv.reg.Counter(obsv.MetricServerCoalesceFlights).Value(); v != 1 {
		t.Errorf("coalesce.flights after cached re-request = %d, want 1", v)
	}
}

// TestCoalesceWaiterLeaveKeepsSharedPass pins the per-group cancellation
// rule: a waiter leaving must NOT cancel the shared pass while others
// still wait on it.
func TestCoalesceWaiterLeaveKeepsSharedPass(t *testing.T) {
	g := gen.Roll(300, 8, 3)
	srv := New(g, 2).WithCoalescing(250 * time.Millisecond)

	ctx1, cancel1 := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var err1, err2 error
	var res2 *ppscan.Result
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err1 = srv.resolve(ctx1, srv.state.Load(), "0.4", 3, ppscan.AlgoPPSCAN)
	}()
	go func() {
		defer wg.Done()
		res2, err2 = srv.resolve(context.Background(), srv.state.Load(), "0.6", 3, ppscan.AlgoPPSCAN)
	}()
	// Let both join the holdoff window, then abandon the first waiter.
	time.Sleep(50 * time.Millisecond)
	cancel1()
	wg.Wait()

	if err1 != context.Canceled {
		t.Errorf("abandoned waiter: err = %v, want context.Canceled", err1)
	}
	if err2 != nil {
		t.Fatalf("surviving waiter: %v", err2)
	}
	ref, err := ppscan.Run(g, ppscan.Options{Epsilon: "0.6", Mu: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ppscan.Equal(ref, res2); err != nil {
		t.Errorf("surviving waiter got a wrong result: %v", err)
	}
	if v := srv.reg.Counter(obsv.MetricServerCoalesceCancels).Value(); v != 0 {
		t.Errorf("coalesce.cancels = %d, want 0 (one waiter remained)", v)
	}
	if v := srv.reg.Counter(obsv.MetricServerCoalesceFlights).Value(); v != 1 {
		t.Errorf("coalesce.flights = %d, want 1", v)
	}
}

// TestCoalesceLastWaiterCancelsSharedPass: when the ONLY waiter leaves,
// the shared pass is cancelled and counted.
func TestCoalesceLastWaiterCancelsSharedPass(t *testing.T) {
	g := gen.Roll(300, 8, 3)
	srv := New(g, 2).WithCoalescing(2 * time.Second) // long holdoff: cancel lands first

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.resolve(ctx, srv.state.Load(), "0.5", 3, ppscan.AlgoPPSCAN)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The flight goroutine observes the group cancellation asynchronously.
	deadline := time.Now().Add(2 * time.Second)
	for srv.reg.Counter(obsv.MetricServerCoalesceCancels).Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("coalesce.cancels never incremented after the last waiter left")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCoalesceAcquireBounded: with every admission slot held and no
// request deadlines configured, a flight's queue wait is bounded by
// sharedAcquireMax — every waiter gets the saturation error instead of
// queueing forever behind the open flight.
func TestCoalesceAcquireBounded(t *testing.T) {
	srv := New(gen.Roll(300, 8, 3), 2).
		WithAdmission(1, 0).
		WithCoalescing(10 * time.Millisecond)
	srv.sharedAcquireMax = 50 * time.Millisecond

	// Occupy the only slot for the whole test.
	release, err := srv.acquire(context.Background(), 0)
	if err != nil {
		t.Fatal("could not take the only admission slot")
	}
	defer release()

	done := make(chan error, 1)
	go func() {
		_, err := srv.resolve(context.Background(), srv.state.Load(), "0.5", 3, ppscan.AlgoPPSCAN)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errSaturated) {
			t.Fatalf("err = %v, want errSaturated", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coalesced waiter still queued after 5s; sharedAcquireMax did not bound the wait")
	}
	if v := srv.reg.Counter(obsv.MetricAdmissionRejected).Value(); v != 1 {
		t.Errorf("admission.rejected = %d, want 1", v)
	}
	if v := srv.reg.Counter(obsv.MetricServerCoalesceCancels).Value(); v != 0 {
		t.Errorf("coalesce.cancels = %d, want 0 (saturation is not a cancellation)", v)
	}
}

// TestCoalescedFaultFanout: when the shared similarity pass hits an
// injected worker panic, every coalesced waiter receives the same typed
// error as a structured 500 (kind=worker_panic) — not a hang, not a
// process death.
func TestCoalescedFaultFanout(t *testing.T) {
	t.Cleanup(fault.Disable)
	fault.Disable()
	g := gen.Roll(300, 8, 3)
	srv := New(g, 2).WithCoalescing(300 * time.Millisecond)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Point: fault.WorkerTask, Action: fault.ActPanic, Start: 1, Count: 1},
	}})

	epsilons := []string{"0.3", "0.5", "0.7"}
	var wg sync.WaitGroup
	kinds := make([]string, len(epsilons))
	statuses := make([]int, len(epsilons))
	for i, eps := range epsilons {
		wg.Add(1)
		go func(i int, eps string) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/cluster?eps=%s&mu=3", ts.URL, eps))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			var body map[string]any
			if json.NewDecoder(resp.Body).Decode(&body) == nil {
				kinds[i], _ = body["kind"].(string)
			}
		}(i, eps)
	}
	wg.Wait()
	fault.Disable()

	for i := range epsilons {
		if statuses[i] != http.StatusInternalServerError {
			t.Errorf("waiter %d: status %d, want 500", i, statuses[i])
		}
		if kinds[i] != "worker_panic" {
			t.Errorf("waiter %d: kind %q, want worker_panic", i, kinds[i])
		}
	}
	if v := srv.reg.Counter(obsv.MetricServerCoalesceFlights).Value(); v != 1 {
		t.Errorf("coalesce.flights = %d, want 1 (one shared pass absorbed the fault)", v)
	}

	// Containment: the next coalesced request succeeds from scratch.
	resp, err := http.Get(ts.URL + "/cluster?eps=0.5&mu=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault request: status %d, want 200", resp.StatusCode)
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
