// Package sched implements ppSCAN's degree-based dynamic task scheduling
// (Algorithm 5 of the paper).
//
// A task is a vertex range [beg, end). The master goroutine walks the vertex
// set, accumulating the degrees of vertices that still require computation
// (per a caller-supplied predicate); when the accumulated degree sum exceeds
// a threshold, the range so far is submitted to the workers. Workers
// re-check the predicate per vertex (it may have been satisfied by pruning
// in an earlier phase) and invoke the vertex computation.
//
// The degree-sum estimate captures the fact that every vertex computation
// (core checking, consolidating, clustering) iterates over the vertex's
// neighbors; it achieves load balance at negligible scheduling cost, and the
// contiguous ranges preserve the adjacent memory access patterns of the CSR
// arrays (§4.4).
//
// Crew is the one executor: its workers, task queue, barrier and fault
// containment serve both the degree-based cut and the static
// one-block-per-worker cut (the scheduler ablation's baseline).
// ForEachVertexCtx and ForEachVertexStatic run one phase on a short-lived
// crew for callers without a workspace to keep one in.
package sched

import (
	"context"

	"ppscan/internal/obsv"
)

// DefaultDegreeThreshold is the task-granularity constant tuned in the
// paper (§4.4): a task is submitted once the accumulated degree sum of
// vertices requiring computation exceeds this value.
const DefaultDegreeThreshold = 32768

// Range is a half-open vertex interval [Beg, End).
type Range struct {
	Beg, End int32
}

// Options configures a scheduling run.
type Options struct {
	// Workers is the number of worker goroutines ForEachVertexCtx starts;
	// values < 1 default to runtime.GOMAXPROCS(0). A Crew's own worker
	// count, fixed by NewCrew, applies to its phases instead.
	Workers int
	// DegreeThreshold is the degree-sum task granularity; values < 1
	// default to DefaultDegreeThreshold.
	DegreeThreshold int64
	// Phase labels the phase: a contained worker panic carries it in
	// result.WorkerPanicError.Phase, and it names the task spans. Optional.
	Phase string
	// Tracer, when non-nil, records one span per executed task on the
	// worker's track, named after Phase ("task" when empty), with the
	// task's range and degree sum as arguments. Without it the crew reads
	// no clock.
	Tracer *obsv.Tracer
	// TIDOffset shifts worker track ids in the trace, so the coordinator
	// can keep track 0 of the same tracer.
	TIDOffset int
}

// ForEachVertexCtx runs one Crew.ForEachVertex phase on a crew of
// opt.Workers that lives for the call: process(u, worker) for every u in
// [0, n) with need(u) true, scheduled per Algorithm 5, worker in
// [0, opt.Workers). When ctx is cancelled the coordinator stops cutting
// tasks, queued tasks drain without running and in-flight tasks finish
// their range, so cancellation granularity is one task (~DegreeThreshold
// accumulated degree). Returns a *result.WorkerPanicError when process
// panicked (contained; see Crew), ctx.Err() when the run was cut short,
// nil otherwise.
func ForEachVertexCtx(ctx context.Context, opt Options, n int32, need func(int32) bool, deg func(int32) int32, process func(u int32, worker int)) error {
	if n <= 0 {
		return nil
	}
	c := NewCrew(opt.Workers)
	defer c.Close()
	var stop func() bool
	if ctx.Done() != nil {
		stop = func() bool { return ctx.Err() != nil }
	}
	if err := c.ForEachVertex(opt, n, need, deg, process, stop); err != nil {
		return err
	}
	return ctx.Err()
}

// ForEachVertexStatic runs one Crew.ForEachVertexStatic phase — every
// vertex in [0, n), one equal block per worker — on a crew of workers
// (< 1 means GOMAXPROCS) that lives for the call. It is the scheduler
// ablation's baseline and serves phases whose per-vertex cost is uniform.
// A panic inside process is contained and returned as a
// *result.WorkerPanicError (phase "static").
func ForEachVertexStatic(workers int, n int32, process func(u int32, worker int)) error {
	if n <= 0 {
		return nil
	}
	c := NewCrew(workers)
	defer c.Close()
	return c.ForEachVertexStatic(Options{Phase: "static"}, n, nil, process, nil)
}
