package engine_test

import (
	"context"
	"errors"
	"testing"

	"ppscan/internal/algotest"
	"ppscan/internal/engine"
	"ppscan/internal/fault"
	"ppscan/internal/gen"
	"ppscan/internal/result"
	"ppscan/internal/shard"
	"ppscan/internal/simdef"
)

// typedFaultError reports whether err is one of the clean, typed failures
// a faulted run is allowed to return: a contained worker panic, an
// injected transient that exhausted its retries, a dist-scan
// partition that exhausted its attempts (a panic contained inside a shard
// worker crosses the wire as a rejection, so only the shard taxonomy
// survives), or a context abort — always wrapped in a *result.PartialError
// by the engines that can fail mid-run.
func typedFaultError(err error) bool {
	var wpe *result.WorkerPanicError
	if errors.As(err, &wpe) {
		return true
	}
	var ua *shard.ShardUnavailableError
	if errors.As(err, &ua) {
		return true
	}
	if errors.Is(err, fault.ErrInjected) {
		return true
	}
	return false
}

// TestChaosEngines runs every registered engine under seeded randomized
// fault schedules, drawing workspaces from a shared pool exactly like the
// server does. The contract under injection: every run either returns a
// correct result or a clean typed error — never a crash, never a wrong
// answer — and after disabling injection the next pooled run per engine is
// correct, proving no fault leaked state into the pool.
func TestChaosEngines(t *testing.T) {
	t.Cleanup(fault.Disable)
	g := gen.Roll(400, 8, 7)
	th, err := simdef.NewThreshold("0.5", 3)
	if err != nil {
		t.Fatal(err)
	}
	engines := engine.All()
	if len(engines) < 2 {
		t.Fatal("engine registry empty; blank imports missing")
	}

	// Reference result, computed clean.
	fault.Disable()
	ref, err := engine.Run(context.Background(), "ppscan", "", g, th, engine.Options{}, nil)
	if err != nil {
		t.Fatalf("clean reference run: %v", err)
	}
	if err := algotest.CheckGroundTruth(g, ref, th); err != nil {
		t.Fatalf("reference: %v", err)
	}

	pool := engine.NewPool(4)
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	faulted := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		fault.Enable(fault.NewPlan(seed))
		for _, e := range engines {
			ws := pool.Acquire()
			res, err := engine.Run(context.Background(), e.Name, "", g, th, engine.Options{Workers: 4}, ws)
			if err != nil {
				faulted++
				if !typedFaultError(err) {
					t.Errorf("seed %d %s: untyped failure %v", seed, e.Name, err)
				}
				var pe *result.PartialError
				if errors.As(err, &pe) && pe.Stats.Algorithm == "" {
					t.Errorf("seed %d %s: partial error carries no stats", seed, e.Name)
				}
			} else {
				if cerr := result.Equal(ref, res.Clone()); cerr != nil {
					t.Errorf("seed %d %s: survived injection but result is wrong: %v", seed, e.Name, cerr)
				}
			}
			pool.Release(ws)
		}
		fault.Disable()
	}
	t.Logf("chaos: %d/%d runs returned contained errors; injected: %+v",
		faulted, seeds*len(engines), fault.Snapshot())

	// Injection off: one clean pooled run per engine must be exact. Any
	// poisoned workspace that slipped back into circulation un-reset shows
	// up here as a wrong result.
	for _, e := range engines {
		ws := pool.Acquire()
		res, err := engine.Run(context.Background(), e.Name, "", g, th, engine.Options{Workers: 4}, ws)
		if err != nil {
			t.Errorf("post-chaos clean run %s: %v", e.Name, err)
		} else if cerr := result.Equal(ref, res.Clone()); cerr != nil {
			t.Errorf("post-chaos clean run %s: %v", e.Name, cerr)
		}
		pool.Release(ws)
	}
	st := pool.Stats()
	t.Logf("pool after chaos: %+v", st)
}

// TestChaosPanicPoisonsAndPoolResets pins the pool invariant directly: a
// run aborted by an injected worker panic leaves its workspace poisoned,
// Release resets it (counted), and the workspace then serves a correct
// clean run.
func TestChaosPanicPoisonsAndPoolResets(t *testing.T) {
	t.Cleanup(fault.Disable)
	g := gen.Roll(300, 8, 3)
	th, err := simdef.NewThreshold("0.5", 3)
	if err != nil {
		t.Fatal(err)
	}
	fault.Disable()
	ref, err := engine.Run(context.Background(), "ppscan", "", g, th, engine.Options{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}

	pool := engine.NewPool(2)
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Point: fault.WorkerTask, Action: fault.ActPanic, Start: 1, Count: 1},
	}})
	ws := pool.Acquire()
	_, err = engine.Run(context.Background(), "ppscan", "", g, th, engine.Options{Workers: 2}, ws)
	var wpe *result.WorkerPanicError
	if !errors.As(err, &wpe) {
		t.Fatalf("err = %v, want a contained *WorkerPanicError", err)
	}
	if wpe.Phase == "" || len(wpe.Stack) == 0 {
		t.Errorf("panic error missing provenance: phase=%q stackLen=%d", wpe.Phase, len(wpe.Stack))
	}
	if !ws.Poisoned() {
		t.Error("workspace not poisoned after contained panic")
	}
	pool.Release(ws)
	if st := pool.Stats(); st.Resets != 1 {
		t.Errorf("pool resets = %d, want 1", st.Resets)
	}

	fault.Disable()
	ws2 := pool.Acquire()
	if ws2.Poisoned() {
		t.Error("pool handed out a still-poisoned workspace")
	}
	res, err := engine.Run(context.Background(), "ppscan", "", g, th, engine.Options{Workers: 2}, ws2)
	if err != nil {
		t.Fatalf("clean run on reset workspace: %v", err)
	}
	if cerr := result.Equal(ref, res.Clone()); cerr != nil {
		t.Errorf("reset workspace produced wrong result: %v", cerr)
	}
	pool.Release(ws2)
}

// TestDistscanSuperstepRetry pins the BSP retry path: transient injected
// errors on a round's RPCs are retried with backoff and the run still
// completes with the correct result, counting its retries.
func TestDistscanSuperstepRetry(t *testing.T) {
	t.Cleanup(fault.Disable)
	g := gen.Roll(300, 8, 3)
	th, err := simdef.NewThreshold("0.5", 3)
	if err != nil {
		t.Fatal(err)
	}
	fault.Disable()
	ref, err := engine.Run(context.Background(), "dist-scan", "", g, th, engine.Options{Workers: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}

	before := fault.Snapshot().Retries
	// Two transient errors at distinct RPC attempts: each is within the
	// per-round attempt budget (3), so the whole run must succeed.
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Point: fault.ShardRPC, Action: fault.ActError, Start: 2, Every: 3, Count: 2},
	}})
	res, err := engine.Run(context.Background(), "dist-scan", "", g, th, engine.Options{Workers: 3}, nil)
	fault.Disable()
	if err != nil {
		t.Fatalf("run with retryable superstep faults failed: %v", err)
	}
	if cerr := result.Equal(ref, res); cerr != nil {
		t.Errorf("retried run differs from clean run: %v", cerr)
	}
	if got := fault.Snapshot().Retries; got != before+2 {
		t.Errorf("retries = %d, want %d", got, before+2)
	}
}

// TestDistscanRetryExhaustion: a round that keeps failing transiently
// exhausts its attempts and surfaces the injected error, typed.
func TestDistscanRetryExhaustion(t *testing.T) {
	t.Cleanup(fault.Disable)
	g := gen.Roll(200, 6, 3)
	th, err := simdef.NewThreshold("0.5", 3)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Point: fault.ShardRPC, Action: fault.ActError, Start: 1, Every: 1},
	}})
	_, err = engine.Run(context.Background(), "dist-scan", "", g, th, engine.Options{Workers: 3}, nil)
	fault.Disable()
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want wrapped ErrInjected after retry exhaustion", err)
	}
	var pe *result.PartialError
	if !errors.As(err, &pe) || pe.Phase == "" {
		t.Errorf("exhaustion error should be a PartialError naming the round, got %v", err)
	}
}
