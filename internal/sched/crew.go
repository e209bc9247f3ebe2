package sched

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"ppscan/internal/fault"
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
// ranges are cut: tasks, containment, cancellation, telemetry and the
// watchdog are the same code.
//
// Synchronization: the coordinator writes the per-phase fields (need,
// process, stop, m, phase) before submitting any task; workers read them
// only after receiving a task from the channel, so the channel send/receive
// is the happens-before edge. Between phases workers are parked on the
// channel receive and read nothing, making the coordinator's next writes
// safe. The phase barrier is a pending-task counter plus a completion
// signal rather than a sync.WaitGroup, so the coordinator can give up
// waiting (the watchdog path) instead of blocking forever on a hung task.
//
// Fault containment: each task runs under a recover. A panicking task
// records a *result.WorkerPanicError (first panic wins), trips the failed
// flag so remaining tasks drain without running — the same quiesce
// mechanics as cancellation — and the worker goroutine survives to serve
// the next phase. The phase returns the recorded error after the barrier.
//
// Watchdog: with Options.StallTimeout > 0 the barrier additionally
// monitors the crew's progress counter; when no task completes for a full
// timeout window, the phase abandons the barrier and returns
// result.ErrStalled. An abandoned crew is permanently out of service (a
// hung task may still hold a worker; Go cannot kill it) — the owning
// workspace must be discarded, which the engine pool does for fatally
// poisoned workspaces.
type Crew struct {
	workers int
	tasks   chan task
	// pending counts queued-or-running tasks plus one coordinator token
	// held while submission is in progress; done receives one signal when
	// a task's completion drops pending to zero.
	pending atomic.Int64
	done    chan struct{}

	// Per-phase state; see the synchronization note above.
	need    func(int32) bool
	process func(u int32, worker int)
	stop    func() bool
	m       *Metrics
	phase   string

	// failed makes workers drain queued tasks without running them after a
	// panic; panicErr holds the first recovered panic (CAS, first wins).
	// progress counts completed tasks monotonically across phases and runs
	// — the watchdog samples it to detect stalls. abandoned marks a crew
	// whose barrier was given up on; it refuses further phases.
	failed    atomic.Bool
	panicErr  atomic.Pointer[result.WorkerPanicError]
	progress  atomic.Uint64
	abandoned atomic.Bool
}

// task is one queued unit of work: the vertex range, its degree-sum
// workload estimate (zero for a static block), and (when the phase is
// timed) the submit time used to measure queue wait.
type task struct {
	r        Range
	deg      int64
	submitAt time.Time
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
		done:    make(chan struct{}, 1),
	}
	for w := 0; w < workers; w++ {
		go c.work(w)
	}
	return c
}

// Workers returns the crew's worker count.
func (c *Crew) Workers() int { return c.workers }

// Progress returns the number of tasks completed over the crew's
// lifetime. It increases monotonically while a phase is running; the
// watchdog samples it to detect stalled phases.
func (c *Crew) Progress() uint64 { return c.progress.Load() }

// Abandoned reports whether a stalled barrier was given up on. An
// abandoned crew refuses further phases; its owning workspace must be
// discarded.
func (c *Crew) Abandoned() bool { return c.abandoned.Load() }

// Close stops the workers. The crew must be idle (no phase in progress);
// starting a phase after Close panics. Closing an abandoned crew is safe:
// surviving workers exit when the channel drains, and a hung worker (the
// reason for abandonment) exits whenever — if ever — its task returns.
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
// usable for the next phase. With opt.StallTimeout > 0, a phase making no
// progress for a full timeout window returns result.ErrStalled and the
// crew is permanently abandoned (see Abandoned). A nil return means the
// phase ran (or was stopped) cleanly.
func (c *Crew) ForEachVertex(opt Options, n int32, need func(int32) bool, deg func(int32) int32, process func(u int32, worker int), stop func() bool) error {
	if n <= 0 {
		return nil
	}
	if err := c.begin(opt, need, process, stop); err != nil {
		return err
	}
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
			return c.barrier(opt.StallTimeout) // cut no more; join what was submitted
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
				return c.barrier(opt.StallTimeout)
			}
		}
	}
	c.submit(Range{Beg: beg, End: n}, degSum)
	return c.barrier(opt.StallTimeout)
}

// ForEachVertexStatic is ForEachVertex with the static cut: [0, n) is
// split into one equal-width block per worker regardless of degrees, so a
// stop is honoured only between blocks. It is the baseline the scheduler
// ablation compares Algorithm 5 against.
func (c *Crew) ForEachVertexStatic(opt Options, n int32, need func(int32) bool, process func(u int32, worker int), stop func() bool) error {
	if n <= 0 {
		return nil
	}
	if err := c.begin(opt, need, process, stop); err != nil {
		return err
	}
	chunk := (n + int32(c.workers) - 1) / int32(c.workers)
	for beg := int32(0); beg < n; beg += chunk {
		c.submit(Range{Beg: beg, End: min(beg+chunk, n)}, 0)
	}
	return c.barrier(opt.StallTimeout)
}

// begin opens a phase: it publishes the per-phase state and takes the
// coordinator's pending token, which barrier releases.
func (c *Crew) begin(opt Options, need func(int32) bool, process func(u int32, worker int), stop func() bool) error {
	if c.abandoned.Load() {
		return result.ErrStalled
	}
	// Workers are parked between phases, so these plain writes are ordered
	// before their reads by the task-channel send/receive.
	c.need, c.process, c.stop, c.m, c.phase = need, process, stop, opt.Metrics, opt.Phase
	c.failed.Store(false)
	c.panicErr.Store(nil)
	// The coordinator holds one pending token while submitting, so the
	// count cannot transiently hit zero before the last submission.
	c.pending.Add(1)
	return nil
}

// quiesced reports whether the phase is draining — a task panicked, the
// barrier was abandoned, or stop reports true — so cutting or running
// further tasks is pointless.
func (c *Crew) quiesced() bool {
	return c.failed.Load() || c.stop != nil && c.stop()
}

// barrier closes a phase: it releases the coordinator token, waits for
// pending to reach zero and returns the phase's contained panic, if any.
// With stall > 0 it samples the progress counter each time a full window
// elapses: a window with zero completed tasks abandons the crew and
// returns result.ErrStalled (detection latency is between one and two
// windows). With stall <= 0 it waits indefinitely.
func (c *Crew) barrier(stall time.Duration) error {
	if c.pending.Add(-1) != 0 {
		if err := c.wait(stall); err != nil {
			return err
		}
	}
	if wpe := c.panicErr.Load(); wpe != nil {
		return wpe
	}
	return nil
}

// wait blocks until the last task signals done, or the watchdog gives up.
func (c *Crew) wait(stall time.Duration) error {
	if stall <= 0 {
		//lint:chanwait stall<=0 is the unbounded join the caller asked for; the last worker always sends on done and panics are contained
		<-c.done
		return nil
	}
	timer := time.NewTimer(stall)
	defer timer.Stop()
	last := c.progress.Load()
	for {
		select {
		case <-c.done:
			return nil
		case <-timer.C:
			if p := c.progress.Load(); p != last {
				last = p
				timer.Reset(stall)
				continue
			}
			// No task completed for a full window: give up on the
			// barrier. A hung task may still hold a worker goroutine and
			// may still write to the run's buffers, so the crew — and the
			// workspace owning it — are out of service for good.
			c.abandoned.Store(true)
			c.failed.Store(true) // queued tasks drain without running
			return result.ErrStalled
		}
	}
}

// submit enqueues one range task. The pending increment happens before
// the send so the barrier covers every queued task.
func (c *Crew) submit(r Range, deg int64) {
	if r.Beg >= r.End {
		return
	}
	t := task{r: r, deg: deg}
	if m := c.m; m != nil {
		m.TasksSubmitted.Inc()
		m.TaskDegreeSum.Observe(deg)
		m.TaskVertices.Observe(int64(r.End - r.Beg))
		if m.timed() {
			t.submitAt = time.Now()
		}
	}
	c.pending.Add(1)
	c.tasks <- t
}

// taskDone retires one pending task, signalling the barrier when the
// count reaches zero (at most once per phase: the coordinator token keeps
// the count positive until submission finished).
func (c *Crew) taskDone() {
	if c.pending.Add(-1) == 0 {
		select {
		case c.done <- struct{}{}:
		default:
		}
	}
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
	defer c.taskDone()
	defer c.recoverTask(worker)
	if c.quiesced() {
		return // drain without running after a panic, stall or stop
	}
	if err := fault.Inject(fault.WorkerTask); err != nil {
		// Workers have no error channel; injected error-action faults at
		// this point surface through the same containment path as panics.
		panic(err)
	}
	if m := c.m; m.timed() {
		start := time.Now()
		m.QueueWaitNs.Observe(start.Sub(t.submitAt).Nanoseconds())
		sp := m.Tracer.Begin(m.spanName(), m.TIDOffset+worker)
		c.runRange(t.r, worker)
		// EndTask defers the args-map build to trace export, so recording
		// the span stays allocation-free on the serving path.
		sp.EndTask(t.r.Beg, t.r.End, t.deg)
		busy := time.Since(start).Nanoseconds()
		m.TaskDurNs.Observe(busy)
		m.WorkerBusyNs.Add(worker, busy)
	} else {
		c.runRange(t.r, worker)
	}
	c.progress.Add(1)
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
