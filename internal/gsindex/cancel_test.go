package gsindex

import (
	"context"
	"errors"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ppscan/internal/gen"
)

func TestBuildContextCancelled(t *testing.T) {
	g := gen.Roll(60_000, 32, 21)
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(2*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()
	ix, err := BuildContext(ctx, g, BuildOptions{Workers: 4})
	if err == nil {
		t.Skip("build completed before cancellation fired")
	}
	// No partial index: a half-built index would violate the
	// neighbor-order invariant, so cancellation returns nil.
	if ix != nil {
		t.Fatal("cancelled build returned a non-nil index")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(%v, context.Canceled) = false", err)
	}
	if !strings.Contains(err.Error(), "gsindex") || !strings.Contains(err.Error(), "pass") {
		t.Errorf("error %q does not name the aborted build pass", err)
	}
}

func TestBuildContextDeadline(t *testing.T) {
	g := gen.Roll(60_000, 32, 22)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	ix, err := BuildContext(ctx, g, BuildOptions{Workers: 4})
	if err == nil {
		t.Skip("build completed before the deadline")
	}
	if ix != nil {
		t.Fatal("timed-out build returned a non-nil index")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(%v, context.DeadlineExceeded) = false", err)
	}
}

func TestBuildContextUncancelledMatchesBuild(t *testing.T) {
	g := gen.Roll(2_000, 8, 23)
	ix, err := BuildContext(context.Background(), g, BuildOptions{Workers: 4})
	if err != nil {
		t.Fatalf("BuildContext(Background): %v", err)
	}
	if ix == nil {
		t.Fatal("BuildContext returned nil index without error")
	}
}

// countdownCtx is a never-closing context whose Err turns Canceled from
// its (k+1)-th call on: a cancellation that lands at a chosen poll.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func countdown(k int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(k)
	return c
}

func (c *countdownCtx) Done() <-chan struct{} { return make(chan struct{}) }

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestBuildContextNamesEveryPass cancels a build at every ctx poll in
// turn: each pass polls, and a cancellation in any of them returns a nil
// index and an error that wraps context.Canceled and names the pass.
func TestBuildContextNamesEveryPass(t *testing.T) {
	g := gen.Roll(500, 8, 24)
	passName := regexp.MustCompile(`during ([a-z-]+) pass`)
	seen := map[string]bool{}
	for k := int64(0); ; k++ {
		if k > 100_000 {
			t.Fatal("build never completed")
		}
		ix, err := BuildContext(countdown(k), g, BuildOptions{Workers: 2, DegreeThreshold: 64})
		if err == nil {
			break
		}
		if ix != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("poll %d: index %v, error %v; want nil and context.Canceled", k, ix != nil, err)
		}
		m := passName.FindStringSubmatch(err.Error())
		if m == nil {
			t.Fatalf("poll %d: error %q names no pass", k, err)
		}
		seen[m[1]] = true
	}
	for _, pass := range []string{"out-degree", "out-list", "triangle", "neighbor-order"} {
		if !seen[pass] {
			t.Errorf("no cancellation landed in the %s pass (saw %v)", pass, seen)
		}
	}
}
