package fault

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestDisarmedFastPath: Inject with no plan armed is a nil no-op.
func TestDisarmedFastPath(t *testing.T) {
	Disable()
	for pt := Point(0); pt < NumPoints; pt++ {
		if err := Inject(pt); err != nil {
			t.Fatalf("Inject(%v) disarmed = %v, want nil", pt, err)
		}
	}
}

// TestErrorRule: an ActError rule fires at exactly the scheduled hits and
// the returned error is transient and wraps ErrInjected.
func TestErrorRule(t *testing.T) {
	t.Cleanup(Disable)
	Enable(&Plan{Rules: []Rule{{Point: ShardRPC, Action: ActError, Start: 2, Every: 3, Count: 2}}})
	var fired []int
	for hit := 1; hit <= 12; hit++ {
		if err := Inject(ShardRPC); err != nil {
			fired = append(fired, hit)
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: error does not wrap ErrInjected: %v", hit, err)
			}
			if !IsTransient(err) {
				t.Fatalf("hit %d: injected error not transient: %v", hit, err)
			}
			var fe *Error
			if !errors.As(err, &fe) || fe.Point != ShardRPC || fe.Hit != uint64(hit) {
				t.Fatalf("hit %d: wrong provenance: %+v", hit, fe)
			}
		}
	}
	// Start=2, Every=3 would fire at 2,5,8,11 but Count=2 caps it.
	if want := []int{2, 5}; fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

// TestPanicRule: an ActPanic rule panics with an *InjectedPanic value.
func TestPanicRule(t *testing.T) {
	t.Cleanup(Disable)
	Enable(&Plan{Rules: []Rule{{Point: WorkerTask, Action: ActPanic, Start: 1, Count: 1}}})
	func() {
		defer func() {
			r := recover()
			ip, ok := r.(*InjectedPanic)
			if !ok {
				t.Fatalf("recovered %T (%v), want *InjectedPanic", r, r)
			}
			if ip.Point != WorkerTask || ip.Hit != 1 {
				t.Fatalf("wrong provenance: %+v", ip)
			}
		}()
		_ = Inject(WorkerTask)
		t.Fatal("Inject did not panic")
	}()
	// Count=1 exhausted: next hit is a no-op.
	if err := Inject(WorkerTask); err != nil {
		t.Fatalf("exhausted rule still fired: %v", err)
	}
}

// TestDelayRule: an ActDelay rule sleeps and returns nil.
func TestDelayRule(t *testing.T) {
	t.Cleanup(Disable)
	const d = 5 * time.Millisecond
	Enable(&Plan{Rules: []Rule{{Point: WorkerTask, Action: ActDelay, Start: 1, Count: 1, Delay: d}}})
	start := time.Now()
	if err := Inject(WorkerTask); err != nil {
		t.Fatalf("delay rule returned error: %v", err)
	}
	if got := time.Since(start); got < d {
		t.Fatalf("delay rule slept %v, want >= %v", got, d)
	}
}

// TestNewPlanDeterministic: same seed, same plan; different seed,
// (almost surely) different plan.
func TestNewPlanDeterministic(t *testing.T) {
	a, b := NewPlan(42), NewPlan(42)
	if fmt.Sprintf("%+v", a.Rules) != fmt.Sprintf("%+v", b.Rules) {
		t.Fatalf("same seed differs:\n%+v\n%+v", a.Rules, b.Rules)
	}
	if a.Seed != 42 {
		t.Fatalf("Seed = %d, want 42", a.Seed)
	}
	for seed := int64(0); seed < 200; seed++ {
		p := NewPlan(seed)
		if len(p.Rules) == 0 {
			t.Fatalf("seed %d produced an empty plan", seed)
		}
		for _, r := range p.Rules {
			if r.Start == 0 {
				t.Fatalf("seed %d produced a never-firing rule: %+v", seed, r)
			}
			if r.Action == ActDelay && (r.Delay <= 0 || r.Delay > 10*time.Millisecond) {
				t.Fatalf("seed %d produced unreasonable delay: %+v", seed, r)
			}
		}
	}
}

// TestConcurrentInject: hammering an armed plan from many goroutines is
// race-free and fires each Count-capped rule exactly Count times.
func TestConcurrentInject(t *testing.T) {
	t.Cleanup(Disable)
	before := Snapshot()
	Enable(&Plan{Rules: []Rule{{Point: ShardRPC, Action: ActError, Start: 1, Every: 1, Count: 64}}})
	var (
		wg      sync.WaitGroup
		errored atomic64
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if Inject(ShardRPC) != nil {
					errored.add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := errored.load(); got != 64 {
		t.Fatalf("rule with Count=64 fired %d times", got)
	}
	after := Snapshot()
	if after.Errors-before.Errors != 64 {
		t.Fatalf("Snapshot errors delta = %d, want 64", after.Errors-before.Errors)
	}
}

// TestIsTransient covers the negative cases.
func TestIsTransient(t *testing.T) {
	if IsTransient(nil) {
		t.Fatal("nil is transient")
	}
	if IsTransient(errors.New("boring")) {
		t.Fatal("plain error is transient")
	}
	if !IsTransient(fmt.Errorf("wrapped: %w", &Error{Point: GraphLoad, Hit: 1})) {
		t.Fatal("wrapped injected error not transient")
	}
}

// atomic64 is a tiny test-local counter (avoids importing sync/atomic's
// type into assertions).
type atomic64 struct {
	mu sync.Mutex
	v  uint64
}

func (a *atomic64) add(d uint64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() uint64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
