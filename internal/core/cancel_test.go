package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ppscan/internal/engine"
	"ppscan/internal/gen"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
)

// cancelGraph is large enough that a full ppSCAN run takes well over the
// cancellation delays used below, so a cancelled run must abort mid-phase.
func cancelGraph(tb testing.TB) (g interface {
	NumVertices() int32
}, run func(ctx context.Context) (*result.Result, error)) {
	tb.Helper()
	gg := gen.Roll(120_000, 32, 7)
	th, err := simdef.NewThreshold("0.5", 4)
	if err != nil {
		tb.Fatal(err)
	}
	return gg, func(ctx context.Context) (*result.Result, error) {
		return Run(ctx, gg, th, engine.Options{Workers: 4}, nil)
	}
}

// checkPartial asserts the error is a coherent PartialError matching cause.
func checkPartial(t *testing.T, res *result.Result, err error, cause error) *result.PartialError {
	t.Helper()
	if res != nil {
		t.Fatalf("cancelled run returned a result: %+v", res.Stats)
	}
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	var pe *result.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("cancelled run returned %T (%v), want *result.PartialError", err, err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("errors.Is(%v, %v) = false", err, cause)
	}
	if pe.Phase == "" {
		t.Error("PartialError.Phase is empty")
	}
	if pe.Stats.Algorithm == "" {
		t.Error("PartialError.Stats.Algorithm is empty")
	}
	if pe.Stats.Total <= 0 {
		t.Errorf("PartialError.Stats.Total = %v, want > 0", pe.Stats.Total)
	}
	if !strings.Contains(pe.Error(), pe.Phase) {
		t.Errorf("PartialError.Error() %q does not name the phase %q", pe.Error(), pe.Phase)
	}
	return pe
}

func TestRunContextPreCancelled(t *testing.T) {
	_, run := cancelGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	res, err := run(ctx)
	checkPartial(t, res, err, context.Canceled)
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("pre-cancelled run took %v, want prompt return", d)
	}
}

func TestRunContextCancelMidPhase(t *testing.T) {
	_, run := cancelGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(2*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()
	t0 := time.Now()
	res, err := run(ctx)
	pe := checkPartial(t, res, err, context.Canceled)
	if d := time.Since(t0); d > 10*time.Second {
		t.Errorf("cancelled run took %v, want prompt abort", d)
	}
	// The partial stats must be internally coherent: per-stage times sum to
	// no more than the total, and the phase that aborted is a known one.
	var sum time.Duration
	for _, d := range pe.Stats.PhaseTimes {
		sum += d
	}
	if sum > pe.Stats.Total+time.Second {
		t.Errorf("phase times sum %v exceeds total %v", sum, pe.Stats.Total)
	}
	if !strings.HasPrefix(pe.Phase, "P") {
		t.Errorf("aborted phase %q is not one of ppSCAN's P1–P7 checkpoints", pe.Phase)
	}
}

func TestRunContextDeadline(t *testing.T) {
	_, run := cancelGraph(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	res, err := run(ctx)
	checkPartial(t, res, err, context.DeadlineExceeded)
}

// TestRunContextCompletesUncancelled guards the zero-cost path: a context
// that can be cancelled but never is must not change results.
func TestRunContextCompletesUncancelled(t *testing.T) {
	g := gen.Roll(2_000, 8, 3)
	th, err := simdef.NewThreshold("0.5", 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Run(ctx, g, th, engine.Options{Workers: 4}, nil)
	if err != nil {
		t.Fatalf("Run(cancellable ctx): %v", err)
	}
	want := run(g, th, engine.Options{Workers: 4})
	if err := result.Equal(want, res); err != nil {
		t.Fatalf("result under a cancellable ctx differs from Background: %v", err)
	}
}
