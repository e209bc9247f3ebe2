package sched

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"ppscan/internal/fault"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
)

// entryPoint is one way into the executor. Every property of Algorithm 5's
// loop and of its containment wrapper is asserted over all of them by the
// table-driven tests below; ctx is the stop signal in each (a crew polls
// it through its stop argument).
type entryPoint struct {
	name string
	// static: one equal block per worker, deg ignored, a stop honoured only
	// between blocks.
	static bool
	// cancelErr: a cut-short run returns ctx.Err() instead of nil.
	cancelErr bool
	run       func(ctx context.Context, workers int, opt Options, n int32, need func(int32) bool, deg func(int32) int32, process func(u int32, worker int)) error
}

func stopOf(ctx context.Context) func() bool {
	return func() bool { return ctx.Err() != nil }
}

var crewStatic = entryPoint{name: "Crew.ForEachVertexStatic", static: true,
	run: func(ctx context.Context, workers int, opt Options, n int32, need func(int32) bool, _ func(int32) int32, process func(int32, int)) error {
		c := NewCrew(workers)
		defer c.Close()
		return c.ForEachVertexStatic(opt, n, need, process, stopOf(ctx))
	}}

var entryPoints = []entryPoint{
	{name: "Crew.ForEachVertex",
		run: func(ctx context.Context, workers int, opt Options, n int32, need func(int32) bool, deg func(int32) int32, process func(int32, int)) error {
			c := NewCrew(workers)
			defer c.Close()
			return c.ForEachVertex(opt, n, need, deg, process, stopOf(ctx))
		}},
	{name: "ForEachVertexCtx", cancelErr: true,
		run: func(ctx context.Context, workers int, opt Options, n int32, need func(int32) bool, deg func(int32) int32, process func(int32, int)) error {
			opt.Workers = workers
			return ForEachVertexCtx(ctx, opt, n, need, deg, process)
		}},
	crewStatic,
}

// overEntryPoints runs fn as a subtest per entry point.
func overEntryPoints(t *testing.T, fn func(t *testing.T, ep entryPoint)) {
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) { fn(t, ep) })
	}
}

func always(int32) bool { return true }
func unit(int32) int32  { return 1 }

// cutRanges runs one phase under a tracer and returns the vertex ranges of
// the tasks the executor really cut and ran, in vertex order, with their
// degree sums.
func cutRanges(t *testing.T, ep entryPoint, workers int, opt Options, n int32, need func(int32) bool, deg func(int32) int32) ([]Range, []int64) {
	t.Helper()
	tr := obsv.NewTracer()
	opt.Tracer = tr
	if err := ep.run(context.Background(), workers, opt, n, need, deg, func(int32, int) {}); err != nil {
		t.Fatalf("run: %v", err)
	}
	type cut struct {
		r   Range
		deg int64
	}
	var cuts []cut
	for _, e := range tr.Events() {
		if e.Ph == "X" {
			cuts = append(cuts, cut{Range{e.Args["beg"].(int32), e.Args["end"].(int32)}, e.Args["deg"].(int64)})
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].r.Beg < cuts[j].r.Beg })
	ranges, degs := make([]Range, len(cuts)), make([]int64, len(cuts))
	for i, c := range cuts {
		ranges[i], degs[i] = c.r, c.deg
	}
	return ranges, degs
}

// requireTiling asserts the ranges are non-empty and tile [0, n) exactly.
func requireTiling(t *testing.T, ranges []Range, n int32) {
	t.Helper()
	var next int32
	for _, r := range ranges {
		if r.Beg != next || r.End <= r.Beg {
			t.Fatalf("range %+v: gap, overlap or empty task (next=%d)", r, next)
		}
		next = r.End
	}
	if next != n {
		t.Fatalf("ranges end at %d, want %d", next, n)
	}
}

// taskSpans counts the task spans a traced phase recorded: one per
// executed task.
func taskSpans(tr *obsv.Tracer) int64 {
	var n int64
	for _, e := range tr.Events() {
		if e.Ph == "X" {
			n++
		}
	}
	return n
}

// Property: every vertex with need() true is processed exactly once and no
// other vertex at all, with a worker index inside [0, workers), for
// arbitrary worker counts, thresholds and sizes — including n = 0.
func TestExactlyOnce(t *testing.T) {
	overEntryPoints(t, func(t *testing.T, ep entryPoint) {
		f := func(workersRaw, threshRaw uint8, nRaw uint16, allNeeded bool) bool {
			workers := int(workersRaw%8) + 1
			n := int32(nRaw % 3000)
			var need func(int32) bool // nil: every vertex
			if !allNeeded {
				need = func(u int32) bool { return u%3 != 0 }
			}
			counts := make([]int32, n)
			var badWorker atomic.Bool
			err := ep.run(context.Background(), workers, Options{DegreeThreshold: int64(threshRaw%200) + 1}, n,
				need, func(u int32) int32 { return u % 50 },
				func(u int32, w int) {
					atomic.AddInt32(&counts[u], 1)
					if w < 0 || w >= workers {
						badWorker.Store(true)
					}
				})
			if err != nil || badWorker.Load() {
				return false
			}
			for u := int32(0); u < n; u++ {
				want := int32(1)
				if need != nil && !need(u) {
					want = 0
				}
				if counts[u] != want {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Error(err)
		}
	})
}

// TestPanicContained: a panic inside process comes back as a
// *result.WorkerPanicError carrying Options.Phase, the worker index and the
// stack, and the remaining tasks drain instead of running.
func TestPanicContained(t *testing.T) {
	overEntryPoints(t, func(t *testing.T, ep entryPoint) {
		const n, workers = int32(200_000), 3
		var processed atomic.Int64
		err := ep.run(context.Background(), workers, Options{DegreeThreshold: 64, Phase: "P2 check-core"}, n,
			always, unit,
			func(u int32, w int) {
				if u == 7 {
					panic("boom")
				}
				processed.Add(1)
			})
		var wpe *result.WorkerPanicError
		if !errors.As(err, &wpe) {
			t.Fatalf("err = %v, want *result.WorkerPanicError", err)
		}
		if wpe.Phase != "P2 check-core" || wpe.Value != "boom" || len(wpe.Stack) == 0 {
			t.Errorf("panic error = phase %q value %v stack %d bytes", wpe.Phase, wpe.Value, len(wpe.Stack))
		}
		if wpe.Worker < 0 || wpe.Worker >= workers {
			t.Errorf("panic error names worker %d, want one of %d", wpe.Worker, workers)
		}
		// A static phase has no queued tasks left to drain: its other
		// blocks are already running.
		if !ep.static && processed.Load() >= int64(n)-1 {
			t.Errorf("processed %d of %d vertices after the panic; the phase did not drain", processed.Load(), n)
		}
	})
}

// TestStopDrains: a stop that is already set lets no vertex through, and
// one raised mid-phase ends it after the in-flight tasks.
func TestStopDrains(t *testing.T) {
	overEntryPoints(t, func(t *testing.T, ep entryPoint) {
		check := func(err error) {
			t.Helper()
			if ep.cancelErr && !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if !ep.cancelErr && err != nil {
				t.Fatalf("err = %v, want nil from a stopped phase", err)
			}
		}
		const n = int32(1 << 20)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var processed atomic.Int64
		check(ep.run(ctx, 4, Options{}, n, always, unit, func(int32, int) { processed.Add(1) }))
		if got := processed.Load(); got != 0 {
			t.Errorf("pre-stopped phase processed %d vertices, want 0", got)
		}
		if ep.static {
			return // between-blocks granularity: see TestStaticStopBetweenBlocks
		}
		ctx, cancel = context.WithCancel(context.Background())
		defer cancel()
		processed.Store(0)
		check(ep.run(ctx, 4, Options{DegreeThreshold: 256}, n, always, unit,
			func(int32, int) {
				if processed.Add(1) == 1000 {
					cancel()
				}
			}))
		// At most the queue's worth of tasks was cut ahead of the cancel.
		if p := processed.Load(); p < 1000 || p >= int64(n) {
			t.Errorf("processed %d of %d vertices; want partial progress", p, n)
		}
	})
}

// TestStaticStopBetweenBlocks: the static cut checks stop once per block,
// so a stop raised while the first block starts lets exactly that block
// run.
func TestStaticStopBetweenBlocks(t *testing.T) {
	c := NewCrew(4)
	defer c.Close()
	const n = int32(4000)
	var polls, processed atomic.Int64
	err := c.ForEachVertexStatic(Options{}, n, nil,
		func(int32, int) { processed.Add(1) },
		func() bool { return polls.Add(1) > 1 })
	if err != nil {
		t.Fatal(err)
	}
	if got := processed.Load(); got != int64(n)/4 {
		t.Errorf("processed %d vertices, want the one block of %d that started before the stop", got, n/4)
	}
}

// TestFaultWorkerTask: the executor's one fault.WorkerTask site is hit once
// per executed task — so seeded chaos schedules address tasks — and both a
// panic action and an error action there surface as a contained panic.
func TestFaultWorkerTask(t *testing.T) {
	overEntryPoints(t, func(t *testing.T, ep entryPoint) {
		t.Cleanup(fault.Disable)
		const n, workers = int32(4096), 4
		tr := obsv.NewTracer()
		fault.Enable(&fault.Plan{Rules: []fault.Rule{{Point: fault.WorkerTask, Action: fault.ActDelay, Start: 1, Every: 1}}})
		before := fault.Snapshot().Delays
		err := ep.run(context.Background(), workers, Options{DegreeThreshold: 100, Tracer: tr}, n, always, unit, func(int32, int) {})
		hits := int64(fault.Snapshot().Delays - before)
		fault.Disable()
		if err != nil {
			t.Fatal(err)
		}
		if tasks := taskSpans(tr); hits != tasks || tasks < workers {
			t.Errorf("worker_task hit %d times over %d tasks, want once per task", hits, tasks)
		}

		for _, action := range []fault.Action{fault.ActPanic, fault.ActError} {
			fault.Enable(&fault.Plan{Seed: 42, Rules: []fault.Rule{{Point: fault.WorkerTask, Action: action, Start: 2, Count: 1}}})
			err := ep.run(context.Background(), workers, Options{DegreeThreshold: 100, Phase: "P1"}, n, always, unit, func(int32, int) {})
			fault.Disable()
			var wpe *result.WorkerPanicError
			if !errors.As(err, &wpe) || wpe.Phase != "P1" {
				t.Fatalf("%v at hit 2: err = %v, want a *result.WorkerPanicError for phase P1", action, err)
			}
			switch v := wpe.Value.(type) {
			case *fault.InjectedPanic:
				if action != fault.ActPanic || v.Hit != 2 || v.Seed != 42 {
					t.Errorf("%v: contained %+v", action, v)
				}
			case error:
				if action != fault.ActError || !errors.Is(v, fault.ErrInjected) {
					t.Errorf("%v: contained %v", action, v)
				}
			default:
				t.Errorf("%v: contained %T %v", action, v, v)
			}
		}
	})
}

// TestTaskGranularity: with threshold T and uniform degree d the dynamic
// cut closes a task on the vertex that takes the sum past T, so every task
// but the tail holds T/d+1 needed vertices, and the tasks tile [0, n).
func TestTaskGranularity(t *testing.T) {
	overEntryPoints(t, func(t *testing.T, ep entryPoint) {
		if ep.static {
			t.Skip("degree-based cut only; see TestStaticCut")
		}
		const n, threshold, d = int32(1 << 14), 1024, 16
		ranges, degs := cutRanges(t, ep, 2, Options{DegreeThreshold: threshold}, n, always, func(int32) int32 { return d })
		requireTiling(t, ranges, n)
		for i, r := range ranges[:len(ranges)-1] {
			if got := r.End - r.Beg; got != threshold/d+1 || degs[i] != int64(got)*d {
				t.Fatalf("task %d holds %d vertices with degree sum %d, want %d and %d", i, got, degs[i], threshold/d+1, (threshold/d+1)*d)
			}
		}
		// Skipped vertices widen a task without adding to its estimate.
		ranges, degs = cutRanges(t, ep, 2, Options{DegreeThreshold: threshold}, n, func(u int32) bool { return u%2 == 0 }, func(int32) int32 { return d })
		requireTiling(t, ranges, n)
		if got := ranges[0].End - ranges[0].Beg; got != 2*(threshold/d)+1 || degs[0] != (threshold/d+1)*d {
			t.Errorf("half-needed first task holds %d vertices with degree sum %d, want %d and %d", got, degs[0], 2*(threshold/d)+1, (threshold/d+1)*d)
		}
	})
}

// TestSkewedDegreesSplitTasks: one huge-degree vertex closes its task at
// once, so its followers land in a new task instead of queueing behind it.
func TestSkewedDegreesSplitTasks(t *testing.T) {
	overEntryPoints(t, func(t *testing.T, ep entryPoint) {
		if ep.static {
			t.Skip("degree-based cut only; see TestStaticCut")
		}
		ranges, _ := cutRanges(t, ep, 2, Options{}, 100, always, func(u int32) int32 {
			if u == 10 {
				return 1 << 20
			}
			return 1
		})
		want := []Range{{0, 11}, {11, 100}}
		if len(ranges) != 2 || ranges[0] != want[0] || ranges[1] != want[1] {
			t.Fatalf("tasks = %v, want %v (split at the hub)", ranges, want)
		}
	})
}

// TestStaticCut: the static cut ignores degrees — one equal block per
// worker, and one single-vertex block each when workers outnumber vertices.
func TestStaticCut(t *testing.T) {
	ranges, degs := cutRanges(t, crewStatic, 4, Options{}, 777, nil, nil)
	requireTiling(t, ranges, 777)
	if len(ranges) != 4 {
		t.Fatalf("%d blocks for 4 workers: %v", len(ranges), ranges)
	}
	for i, r := range ranges[:3] {
		if r.End-r.Beg != 195 || degs[i] != 0 {
			t.Errorf("block %d = %+v (degree sum %d), want width ceil(777/4) = 195 and no estimate", i, r, degs[i])
		}
	}
	ranges, _ = cutRanges(t, crewStatic, 64, Options{}, 5, nil, nil)
	requireTiling(t, ranges, 5)
	if len(ranges) != 5 {
		t.Errorf("%d blocks for 5 vertices on 64 workers, want 5", len(ranges))
	}
}

// TestZeroOptions: the zero Options mean GOMAXPROCS workers and the paper's
// 32768 threshold.
func TestZeroOptions(t *testing.T) {
	const n, d = int32(100_000), 64
	var badWorker atomic.Bool
	tr := obsv.NewTracer()
	err := ForEachVertexCtx(context.Background(), Options{Tracer: tr}, n, always, func(int32) int32 { return d },
		func(u int32, w int) {
			if w < 0 || w >= runtime.GOMAXPROCS(0) {
				badWorker.Store(true)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	perTask := int64(DefaultDegreeThreshold/d + 1)
	if got, want := taskSpans(tr), (int64(n)+perTask-1)/perTask; got != want {
		t.Errorf("%d tasks, want %d at the default threshold", got, want)
	}
	if badWorker.Load() {
		t.Errorf("worker index outside [0, GOMAXPROCS = %d)", runtime.GOMAXPROCS(0))
	}
}

// TestForEachVertexStatic covers the short-lived-crew wrapper's own edges:
// every vertex once, more workers than vertices, an empty range, the
// GOMAXPROCS default and the "static" phase label on a contained panic.
func TestForEachVertexStatic(t *testing.T) {
	for _, tc := range []struct {
		workers int
		n       int32
	}{{4, 777}, {64, 5}, {0, 1000}, {4, 0}} {
		counts := make([]int32, tc.n)
		if err := ForEachVertexStatic(tc.workers, tc.n, func(u int32, w int) { atomic.AddInt32(&counts[u], 1) }); err != nil {
			t.Fatal(err)
		}
		for u, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d n=%d: vertex %d processed %d times", tc.workers, tc.n, u, c)
			}
		}
	}
	err := ForEachVertexStatic(2, 10, func(u int32, w int) { panic("boom") })
	var wpe *result.WorkerPanicError
	if !errors.As(err, &wpe) || wpe.Phase != "static" {
		t.Fatalf("err = %v, want a *result.WorkerPanicError for phase \"static\"", err)
	}
}

// TestSchedulerMetrics: a traced dynamic phase records one span per task,
// named after Options.Phase on worker tracks shifted by TIDOffset, and the
// spans' arguments carry the splitting rule's task count, degree sums and
// a tiling of [0, n).
func TestSchedulerMetrics(t *testing.T) {
	overEntryPoints(t, func(t *testing.T, ep entryPoint) {
		if ep.static {
			t.Skip("degree-based cut only")
		}
		tr := obsv.NewTracer()
		const n = int32(10000)
		const deg = 16
		const threshold = 1024
		var processed int64
		err := ep.run(context.Background(), 3, Options{DegreeThreshold: threshold, Phase: "core-checking", Tracer: tr, TIDOffset: 1}, n,
			func(u int32) bool { return u%2 == 0 }, func(int32) int32 { return deg },
			func(u int32, w int) { atomic.AddInt64(&processed, 1) })
		if err != nil {
			t.Fatal(err)
		}

		// Expected tasks: a task closes after accumulating > threshold degree,
		// i.e. every threshold/deg+1 needed vertices; plus the final tail task.
		perTask := int64(threshold/deg + 1)
		needed := int64(n / 2)
		wantTasks := needed / perTask
		if needed%perTask != 0 {
			wantTasks++ // non-empty tail range
		}
		var ranges []Range
		var degSum int64
		for _, e := range tr.Events() {
			if e.Ph != "X" {
				continue
			}
			if e.Name != "core-checking" {
				t.Errorf("span name = %q", e.Name)
			}
			if e.TID < 1 || e.TID > 3 {
				t.Errorf("span tid = %d, want 1..3", e.TID)
			}
			ranges = append(ranges, Range{e.Args["beg"].(int32), e.Args["end"].(int32)})
			degSum += e.Args["deg"].(int64)
		}
		if int64(len(ranges)) != wantTasks {
			t.Errorf("task spans = %d, want %d", len(ranges), wantTasks)
		}
		// Every needed vertex contributes its degree to exactly one task.
		if degSum != needed*deg {
			t.Errorf("degree-sum total = %d, want %d", degSum, needed*deg)
		}
		sort.Slice(ranges, func(i, j int) bool { return ranges[i].Beg < ranges[j].Beg })
		requireTiling(t, ranges, n)
		if processed != needed {
			t.Errorf("processed = %d, want %d", processed, needed)
		}
	})
}
