package sched

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"ppscan/internal/fault"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
)

// Crew is the worker pool every vertex-parallel phase in the repository
// runs on. Its goroutines live across phases and across runs, so a pooled
// workspace can execute an arbitrary number of clustering requests without
// spawning (or heap-allocating) anything per phase. It is the scheduler
// half of the zero-allocation serving path.
//
// Usage: create once with NewCrew, call ForEachVertex (Algorithm 5's
// degree-based cut) or ForEachVertexStatic (one equal block per worker)
// once per phase (phases run one at a time; the call is the barrier), Close
// when the owning workspace is discarded. The two differ only in how
// ranges are cut: tasks, containment, cancellation and tracing are the
// same code.
//
// Synchronization: the coordinator writes the per-phase fields (need,
// process, stop, phase, tracer, tid) before submitting any task; workers
// read them only after receiving a task from the channel, so the channel
// send/receive is the happens-before edge. Between phases workers are
// parked on the channel receive and read nothing, making the coordinator's
// next writes safe. The phase barrier is a WaitGroup over the submitted
// tasks: every Add happens on the coordinator before its Wait.
//
// Fault containment: each task runs under a recover. A panicking task
// records a *result.WorkerPanicError (first panic wins), trips the failed
// flag so remaining tasks drain without running — the same quiesce
// mechanics as cancellation — and the worker goroutine survives to serve
// the next phase. The phase returns the recorded error after the barrier.
type Crew struct {
	workers int
	tasks   chan task
	// tasksLeft counts queued-or-running tasks; barrier waits on it.
	tasksLeft sync.WaitGroup

	// Per-phase state; see the synchronization note above.
	need    func(int32) bool
	process func(u int32, worker int)
	stop    func() bool
	phase   string
	tracer  *obsv.Tracer
	tid     int // TIDOffset

	// failed makes workers drain queued tasks without running them after a
	// panic; panicErr holds the first recovered panic (CAS, first wins).
	failed   atomic.Bool
	panicErr atomic.Pointer[result.WorkerPanicError]
}

// task is one queued unit of work: the vertex range and its degree-sum
// workload estimate (zero for a static block).
type task struct {
	r   Range
	deg int64
}

// NewCrew starts workers goroutines (< 1 means GOMAXPROCS) that serve
// phases until Close.
func NewCrew(workers int) *Crew {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := &Crew{
		workers: workers,
		tasks:   make(chan task, 4*workers), // a few cut-ahead tasks per worker, so none idles while the coordinator walks skipped vertices
	}
	for w := 0; w < workers; w++ {
		go c.work(w)
	}
	return c
}

// Workers returns the crew's worker count.
func (c *Crew) Workers() int { return c.workers }

// Close stops the workers. The crew must be idle (no phase in progress);
// starting a phase after Close panics.
func (c *Crew) Close() { close(c.tasks) }

// ForEachVertex runs one phase: process(u, worker) for every u in [0, n)
// with need(u) true at processing time (nil need: every u), scheduled per
// Algorithm 5 with opt.DegreeThreshold granularity (opt.Workers is ignored
// — the crew's own worker count applies).
//
//   - need is evaluated twice per vertex, once by the coordinator when
//     sizing tasks and once by the worker right before processing,
//     mirroring the paper's role[u] == Unknown double check. It must be
//     safe to call concurrently with process on *other* vertices.
//   - deg(u) supplies the workload estimate (the vertex degree).
//   - process receives the worker index in [0, Workers()) so callers can
//     keep per-worker scratch state without synchronization.
//   - stop, when non-nil, is polled by the coordinator once per submission
//     and every 8192 vertices, and by workers once per task: when it
//     reports true, remaining tasks drain without running, so cancellation
//     granularity is one task.
//
// The call blocks until every submitted task completed (the paper's
// JoinThreadPool barrier). Only one phase may run at a time per crew.
//
// A panic inside process is contained: the phase quiesces (remaining
// tasks drain) and the call returns a *result.WorkerPanicError carrying
// opt.Phase, the worker index and the captured stack; the crew remains
// usable for the next phase. A nil return means the phase ran (or was
// stopped) cleanly.
func (c *Crew) ForEachVertex(opt Options, n int32, need func(int32) bool, deg func(int32) int32, process func(u int32, worker int), stop func() bool) error {
	if n <= 0 {
		return nil
	}
	c.begin(opt, need, process, stop)
	threshold := opt.DegreeThreshold
	if threshold < 1 {
		threshold = DefaultDegreeThreshold
	}
	var degSum int64
	beg := int32(0)
	for u := int32(0); u < n; u++ {
		// Besides once per submission, the coordinator polls every 8192
		// vertices: the loop is otherwise a tight accumulation over
		// skipped vertices.
		if u&8191 == 0 && c.quiesced() {
			return c.barrier() // cut no more; join what was submitted
		}
		if need != nil && !need(u) {
			continue
		}
		degSum += int64(deg(u))
		if degSum > threshold {
			c.submit(Range{Beg: beg, End: u + 1}, degSum)
			degSum = 0
			beg = u + 1
			if c.quiesced() {
				return c.barrier()
			}
		}
	}
	c.submit(Range{Beg: beg, End: n}, degSum)
	return c.barrier()
}

// ForEachVertexStatic is ForEachVertex with the static cut: [0, n) is
// split into one equal-width block per worker regardless of degrees, so a
// stop is honoured only between blocks. It is the baseline the scheduler
// ablation compares Algorithm 5 against.
func (c *Crew) ForEachVertexStatic(opt Options, n int32, need func(int32) bool, process func(u int32, worker int), stop func() bool) error {
	if n <= 0 {
		return nil
	}
	c.begin(opt, need, process, stop)
	chunk := (n + int32(c.workers) - 1) / int32(c.workers)
	for beg := int32(0); beg < n; beg += chunk {
		c.submit(Range{Beg: beg, End: min(beg+chunk, n)}, 0)
	}
	return c.barrier()
}

// begin opens a phase: it publishes the per-phase state.
func (c *Crew) begin(opt Options, need func(int32) bool, process func(u int32, worker int), stop func() bool) {
	// Workers are parked between phases, so these plain writes are ordered
	// before their reads by the task-channel send/receive.
	c.need, c.process, c.stop, c.phase = need, process, stop, opt.Phase
	c.tracer, c.tid = opt.Tracer, opt.TIDOffset
	c.failed.Store(false)
	c.panicErr.Store(nil)
}

// quiesced reports whether the phase is draining — a task panicked or
// stop reports true — so cutting or running further tasks is pointless.
func (c *Crew) quiesced() bool {
	return c.failed.Load() || c.stop != nil && c.stop()
}

// barrier closes a phase: it waits for every submitted task and returns
// the phase's contained panic, if any.
func (c *Crew) barrier() error {
	//lint:chanwait the phase join: every task calls Done, its panic contained by runTask's recover
	c.tasksLeft.Wait()
	if wpe := c.panicErr.Load(); wpe != nil {
		return wpe
	}
	return nil
}

// submit enqueues one range task. The Add happens before the send so the
// barrier covers every queued task.
func (c *Crew) submit(r Range, deg int64) {
	if r.Beg >= r.End {
		return
	}
	c.tasksLeft.Add(1)
	c.tasks <- task{r: r, deg: deg}
}

func (c *Crew) work(worker int) {
	// recover() lives in runTask's deferred recoverTask — one recovery
	// scope per task, so a panic never kills the worker goroutine.
	//lint:panicsafe per-task recovery in runTask via recoverTask; the loop itself cannot panic
	for t := range c.tasks {
		c.runTask(t, worker)
	}
}

// runTask executes one queued range under a per-task recovery scope. The
// deferred calls are open-coded (no heap allocation on the non-panic
// path), keeping the serving alloc budget intact.
func (c *Crew) runTask(t task, worker int) {
	defer c.tasksLeft.Done()
	defer c.recoverTask(worker)
	if c.quiesced() {
		return // drain without running after a panic or stop
	}
	if err := fault.Inject(fault.WorkerTask); err != nil {
		// Workers have no error channel; injected error-action faults at
		// this point surface through the same containment path as panics.
		panic(err)
	}
	if c.tracer != nil {
		name := c.phase
		if name == "" {
			name = "task"
		}
		sp := c.tracer.Begin(name, c.tid+worker)
		c.runRange(t.r, worker)
		// EndTask defers the args-map build to trace export, so recording
		// the span stays allocation-free on the serving path.
		sp.EndTask(t.r.Beg, t.r.End, t.deg)
	} else {
		c.runRange(t.r, worker)
	}
}

// recoverTask is runTask's deferred recovery: it converts a panic into a
// recorded *result.WorkerPanicError (first panic wins) and trips the
// failed flag so the phase quiesces like a cancelled one.
func (c *Crew) recoverTask(worker int) {
	if r := recover(); r != nil {
		c.panicErr.CompareAndSwap(nil, &result.WorkerPanicError{
			Phase:  c.phase,
			Worker: worker,
			Value:  r,
			Stack:  debug.Stack(),
		})
		c.failed.Store(true)
	}
}

func (c *Crew) runRange(r Range, worker int) {
	need, process := c.need, c.process
	for u := r.Beg; u < r.End; u++ {
		if need == nil || need(u) {
			process(u, worker)
		}
	}
}
