// Request coalescing: ε-agnostic single-flight serving.
//
// Structural clustering has the property (exploited by GS*-Index, and by
// Tseng et al.'s index-based serving) that the expensive part — the
// similarity of every edge — does not depend on (ε, µ). Concurrent
// requests on the same graph with different parameters therefore need
// only ONE similarity pass between them. The coalescer turns that into a
// serving primitive: the first direct request opens a "flight", waits up
// to a holdoff for companions to pile on, performs one shared GS*-Index
// build under a single admission slot, and fans the built index out to
// every waiter, each of which extracts its own (ε, µ) answer in
// O(answer) time from a pooled workspace.
//
// Cancellation semantics (the per-group rule): a waiter that leaves —
// client disconnect, deadline expiry — only decrements the group; the
// shared pass is cancelled when, and only when, the LAST waiter leaves.
// The flight's context is detached from every request context for
// exactly this reason.
package server

import (
	"context"
	"runtime/debug"
	"sync"
	"time"

	"ppscan"
	"ppscan/internal/obsv"
)

// coalescer merges concurrent direct computations on one graph into
// single-flight similarity passes. Nil when coalescing is disabled (the
// default): the warm direct path then keeps its allocation budget and
// pruning advantages untouched.
type coalescer struct {
	s       *Server
	holdoff time.Duration // pile-on window before the shared pass starts

	flights *obsv.Counter   // shared similarity passes started
	hits    *obsv.Counter   // requests that joined an existing flight
	cancels *obsv.Counter   // flights cancelled by their last waiter leaving
	fanout  *obsv.Histogram // peak waiters per flight
	buildNs *obsv.Histogram // shared-pass durations

	mu  sync.Mutex
	cur *flight // joinable flight; nil when none is open
}

// flight is one single-flight group: a shared index build over ONE graph
// snapshot and the set of requests waiting on it.
type flight struct {
	done   chan struct{} // closed once ix/err are set
	cancel context.CancelFunc

	// st is the epoch generation the flight's shared pass runs over,
	// captured at open. Joins are epoch-gated: a request on a newer
	// snapshot never shares a flight built over an older one.
	st *epochState

	// waiters and peak are guarded by coalescer.mu. waiters is joins
	// minus leaves; the flight's context is cancelled when it hits zero.
	waiters int
	peak    int

	// Set by finish before done is closed; read by waiters after.
	ix  *ppscan.Index
	err error
}

// join returns the flight for st's epoch, creating (and launching) one
// when none is open for it. A still-open flight over an OLDER epoch is
// displaced: it keeps running for its existing waiters (their responses
// are correct for the snapshot they requested against), but no new
// request joins it — the newcomer opens a fresh flight over the current
// snapshot. The caller must pair join with exactly one leave.
func (c *coalescer) join(st *epochState) *flight {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f := c.cur; f != nil && f.waiters > 0 && f.st.epoch() == st.epoch() {
		f.waiters++
		if f.waiters > f.peak {
			f.peak = f.waiters
		}
		c.hits.Inc()
		return f
	}
	// fctx is deliberately detached from every request context: the shared
	// pass must survive any individual waiter leaving.
	fctx, cancel := context.WithCancel(context.Background())
	f := &flight{done: make(chan struct{}), cancel: cancel, st: st, waiters: 1, peak: 1}
	c.cur = f
	c.flights.Inc()
	go c.run(f, fctx)
	return f
}

// leave records one waiter's departure; the last one out cancels the
// shared pass (a no-op when it already completed).
func (c *coalescer) leave(f *flight) {
	c.mu.Lock()
	f.waiters--
	last := f.waiters == 0
	c.mu.Unlock()
	if last {
		f.cancel()
	}
}

// run executes one flight: holdoff, one admission slot, one index build,
// fan-out. It runs on its own goroutine; the deferred recover converts a
// panic into the same typed error the engines produce, so every waiter
// gets a structured 500 instead of the process dying.
func (c *coalescer) run(f *flight, fctx context.Context) {
	defer func() {
		if v := recover(); v != nil {
			c.finish(f, nil, &ppscan.WorkerPanicError{
				Phase: "coalesce", Worker: -1, Value: v, Stack: debug.Stack(),
			})
		}
	}()
	if c.holdoff > 0 {
		t := time.NewTimer(c.holdoff)
		select {
		case <-fctx.Done():
			// Every waiter left before the pass even started.
			t.Stop()
			c.cancels.Inc()
			c.finish(f, nil, fctx.Err())
			return
		case <-t.C:
		}
	}
	// One admission slot covers the shared pass, however many waiters fan
	// out from it — that is the throughput lever — and the flight queues
	// for it on their behalf (see acquire); past sharedAcquireMax,
	// errSaturated fans out as 429 to every waiter.
	release, err := c.s.acquire(fctx, c.s.sharedAcquireMax)
	if err != nil {
		if fctx.Err() != nil {
			// Every waiter left while the flight queued for its slot.
			c.cancels.Inc()
		} else {
			// The queue cap expired: the flight is shed as saturation.
			c.s.reg.Counter(obsv.MetricAdmissionRejected).Inc()
		}
		c.finish(f, nil, err)
		return
	}
	defer release()
	t0 := time.Now()
	ix, err := ppscan.BuildIndexContext(fctx, f.st.g, c.s.workers)
	d := time.Since(t0)
	c.buildNs.Observe(d.Nanoseconds())
	if err != nil && fctx.Err() != nil {
		c.cancels.Inc()
	}
	c.s.exemplars.offer(exemplar{Epoch: f.st.epoch(), Eps: "*", Algo: "coalesce-build", Duration: d}, err, nil)
	c.finish(f, ix, err)
}

// finish publishes the flight's outcome and closes the group to new
// joiners. The field writes happen-before every waiter's read via the
// channel close.
func (c *coalescer) finish(f *flight, ix *ppscan.Index, err error) {
	c.mu.Lock()
	f.ix, f.err = ix, err
	if c.cur == f {
		c.cur = nil
	}
	c.fanout.Observe(int64(f.peak))
	c.mu.Unlock()
	close(f.done)
}
