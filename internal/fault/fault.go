// Package fault is a deterministic, seed-driven fault-injection registry
// for the serving stack. Injection points are named constants threaded
// through the hot path (scheduler task execution, shard RPCs, graph
// loading); a Plan — either hand-built or derived from a seed —
// decides, purely from per-point hit counters, when a point fires and
// what it does (panic, straggler delay, or transient error).
//
// The package is built for two properties:
//
//   - Zero overhead when disabled: Inject is a single atomic load on the
//     fast path and performs no allocation, so it is safe inside the
//     per-vertex code TestServingAllocBudget budgets.
//   - Determinism: a given (plan, hit sequence) always fires the same
//     faults. Hit counters are atomic, so under concurrency the *set* of
//     firing hits is deterministic even though which goroutine observes
//     them is not — enough to replay a failure with -chaos-seed.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"
)

// Point identifies a named injection site in the serving stack.
type Point uint8

const (
	// WorkerTask fires once per scheduler task execution — one site,
	// sched.Crew's runTask, which every vertex-parallel phase goes through.
	// Panic and error actions both surface as a contained worker panic —
	// workers have no error channel — and delay actions model stragglers.
	WorkerTask Point = iota
	// GraphLoad fires once per binary-graph load, modelling corrupt or
	// partially-written input files.
	GraphLoad
	// EdgeBatchApply fires once per POST /edges mutation batch, before the
	// snapshot commit and index maintenance. Error actions surface as a
	// 503 with no state change, panic actions test the handler containment
	// (the commit is two-phase, so a panic can never publish a torn
	// snapshot), and delay actions model slow mutation batches.
	EdgeBatchApply
	// ShardRPC fires on the coordinator side once per shard RPC attempt,
	// before the request leaves the process. Error actions model a lost or
	// refused connection (transient — the coordinator retries with
	// backoff), delay actions model a slow network.
	ShardRPC
	// ShardCrash fires on the worker side once per superstep RPC served.
	// Error actions make the worker die abruptly mid-superstep (the real
	// scanshard process hard-exits; an embedded test worker severs the
	// connection), so the coordinator observes a crash, not an error
	// response. Panic actions sever just the connection.
	ShardCrash
	// ShardDelay fires on the worker side once per superstep RPC served;
	// delay actions stall the superstep so the coordinator's per-RPC
	// deadline expires (a straggler shard → ShardTimeoutError → retry).
	ShardDelay
	// NumPoints bounds the Point space (array sizing).
	NumPoints
)

var pointNames = [NumPoints]string{
	WorkerTask:     "worker_task",
	GraphLoad:      "graph_load",
	EdgeBatchApply: "edge_batch_apply",
	ShardRPC:       "shard_rpc",
	ShardCrash:     "shard_crash",
	ShardDelay:     "shard_delay",
}

// String returns the point's stable name (used in errors and logs).
func (p Point) String() string {
	if p < NumPoints {
		return pointNames[p]
	}
	return fmt.Sprintf("point(%d)", uint8(p))
}

// Action is what a firing rule does.
type Action uint8

const (
	// ActPanic panics with an *InjectedPanic value.
	ActPanic Action = iota
	// ActDelay sleeps for the rule's Delay (a straggler).
	ActDelay
	// ActError returns an *Error (errors.Is ErrInjected).
	ActError
	numActions
)

var actionNames = [numActions]string{ActPanic: "panic", ActDelay: "delay", ActError: "error"}

// String returns the action's stable name.
func (a Action) String() string {
	if a < numActions {
		return actionNames[a]
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// Rule fires an action at deterministic hit counts of one point. Hits are
// 1-based: the rule fires at hit Start, then (when Every > 0) at every
// subsequent multiple of Every past Start, up to Count total firings
// (Count == 0 means unlimited).
type Rule struct {
	Point  Point
	Action Action
	Start  uint64
	Every  uint64
	Count  uint64
	// Delay is the sleep for ActDelay rules.
	Delay time.Duration
}

// fires reports whether the rule matches the given 1-based hit number,
// ignoring the Count budget (checked separately via the fired counter).
func (r Rule) fires(hit uint64) bool {
	if r.Start == 0 || hit < r.Start {
		return false
	}
	if hit == r.Start {
		return true
	}
	return r.Every > 0 && (hit-r.Start)%r.Every == 0
}

// Plan is a fault schedule: a rule set plus per-point hit counters. Build
// one by hand for targeted tests or with NewPlan for seeded chaos runs.
// A Plan must not be mutated after Enable.
type Plan struct {
	// Seed records the generating seed (0 for hand-built plans); it is
	// echoed in errors so any failure names its reproduction recipe.
	Seed  int64
	Rules []Rule

	hits  [NumPoints]atomic.Uint64
	fired []atomic.Uint64 // one budget counter per rule
}

// NewPlan derives a randomized fault schedule from seed. The same seed
// always yields the same plan, so `-chaos-seed N` reproduces a failure
// exactly. Plans bias toward the serving-path points (worker tasks and
// shard RPCs) and keep delays short enough for test suites.
func NewPlan(seed int64) *Plan {
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{Seed: seed}
	nRules := 1 + rng.Intn(3)
	for i := 0; i < nRules; i++ {
		var pt Point
		switch rng.Intn(8) {
		case 0:
			pt = GraphLoad
		case 1, 2, 3:
			pt = ShardRPC
		default:
			pt = WorkerTask
		}
		var act Action
		switch rng.Intn(5) {
		case 0:
			act = ActDelay
		case 1, 2:
			act = ActError
		default:
			act = ActPanic
		}
		r := Rule{
			Point:  pt,
			Action: act,
			Start:  1 + uint64(rng.Intn(40)),
			Count:  1 + uint64(rng.Intn(3)),
		}
		if rng.Intn(2) == 0 {
			r.Every = 1 + uint64(rng.Intn(16))
		}
		if act == ActDelay {
			r.Delay = time.Duration(1+rng.Intn(2000)) * time.Microsecond
		}
		p.Rules = append(p.Rules, r)
	}
	return p
}

// NewShardPlan derives a randomized fault schedule biased toward the
// shard-tier injection points: straggler supersteps (ShardDelay), abrupt
// worker death (ShardCrash) and coordinator-side RPC failures (ShardRPC).
// It exists separately from NewPlan so the in-process chaos suites keep
// their historical per-seed schedules; cmd/scanshard's -chaos-seed arms
// this plan. Delays are sized to overrun the short per-RPC deadlines the
// chaos suites configure (tens of milliseconds), not production ones.
func NewShardPlan(seed int64) *Plan {
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{Seed: seed}
	nRules := 1 + rng.Intn(3)
	for i := 0; i < nRules; i++ {
		var pt Point
		var act Action
		switch rng.Intn(6) {
		case 0, 1:
			pt, act = ShardDelay, ActDelay
		case 2:
			pt, act = ShardCrash, ActError
		case 3:
			pt, act = ShardCrash, ActPanic
		default:
			pt, act = ShardRPC, ActError
		}
		r := Rule{
			Point:  pt,
			Action: act,
			Start:  1 + uint64(rng.Intn(12)),
			Count:  1 + uint64(rng.Intn(2)),
		}
		if rng.Intn(2) == 0 {
			r.Every = 1 + uint64(rng.Intn(8))
		}
		if act == ActDelay {
			r.Delay = time.Duration(20+rng.Intn(180)) * time.Millisecond
		}
		p.Rules = append(p.Rules, r)
	}
	return p
}

// armed is the fast-path gate: one atomic load decides whether Inject
// does anything at all. active holds the enabled plan.
var (
	armed  atomic.Bool
	active atomic.Pointer[Plan]

	panics  atomic.Uint64
	delays  atomic.Uint64
	errs    atomic.Uint64
	retries atomic.Uint64
)

// Enable installs a plan and arms injection. Passing nil disables.
// Enabling resets nothing: counters are cumulative for the process, like
// every other metric, and the plan's own hit counters start where the
// plan left off (a fresh Plan starts at zero).
func Enable(p *Plan) {
	if p == nil {
		Disable()
		return
	}
	if p.fired == nil {
		p.fired = make([]atomic.Uint64, len(p.Rules))
	}
	active.Store(p)
	armed.Store(true)
}

// Disable disarms injection. Inject reverts to its no-op fast path.
func Disable() {
	armed.Store(false)
	active.Store(nil)
}

// ErrInjected is the sentinel wrapped by every injected error, so
// errors.Is(err, fault.ErrInjected) identifies synthetic failures.
var ErrInjected = errors.New("injected fault")

// Error is an injected error carrying its provenance.
type Error struct {
	Point Point
	Hit   uint64
	Seed  int64
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected error at %s hit %d (seed %d)", e.Point, e.Hit, e.Seed)
}

// Unwrap makes errors.Is(e, ErrInjected) true.
func (e *Error) Unwrap() error { return ErrInjected }

// InjectedPanic is the value an ActPanic rule panics with; recovery code
// can recognize synthetic panics by type-asserting the recovered value.
type InjectedPanic struct {
	Point Point
	Hit   uint64
	Seed  int64
}

// String labels the panic value in logs and error messages.
func (ip *InjectedPanic) String() string {
	return fmt.Sprintf("injected panic at %s hit %d (seed %d)", ip.Point, ip.Hit, ip.Seed)
}

// NoteRetry counts one retry of a transient fault (recorded by the shard
// coordinator's retry loop; surfaces as the fault.retries metric).
func NoteRetry() { retries.Add(1) }

// Stats is a snapshot of the process-lifetime injection counters.
type Stats struct {
	Panics  uint64
	Delays  uint64
	Errors  uint64
	Retries uint64
}

// Snapshot returns the current injection counters.
func Snapshot() Stats {
	return Stats{
		Panics:  panics.Load(),
		Delays:  delays.Load(),
		Errors:  errs.Load(),
		Retries: retries.Load(),
	}
}

// Inject consults the armed plan at a named point. Disabled (the
// production state) it is a single atomic load returning nil — no
// allocation, no branch beyond the gate. Armed, it bumps the point's hit
// counter and applies the first matching rule: ActPanic panics with an
// *InjectedPanic, ActDelay sleeps and returns nil, ActError returns an
// *Error. No matching rule returns nil.
func Inject(pt Point) error {
	if !armed.Load() {
		return nil
	}
	return injectSlow(pt)
}

// injectSlow is the armed path, kept out of Inject so the disarmed fast
// path stays trivially inlinable.
func injectSlow(pt Point) error {
	p := active.Load()
	if p == nil || pt >= NumPoints {
		return nil
	}
	hit := p.hits[pt].Add(1)
	for i := range p.Rules {
		r := &p.Rules[i]
		if r.Point != pt || !r.fires(hit) {
			continue
		}
		if r.Count > 0 && p.fired[i].Add(1) > r.Count {
			continue
		}
		switch r.Action {
		case ActPanic:
			panics.Add(1)
			panic(&InjectedPanic{Point: pt, Hit: hit, Seed: p.Seed})
		case ActDelay:
			delays.Add(1)
			time.Sleep(r.Delay)
			return nil
		case ActError:
			errs.Add(1)
			return &Error{Point: pt, Hit: hit, Seed: p.Seed}
		}
	}
	return nil
}
