// Package chanfix exercises the chanwait analyzer. unboundedFlightWait is
// the PR 7 review shape: a request goroutine parked forever on a flight
// whose worker died, with no cancellation arm and no bound.
package chanfix

import (
	"context"
	"sync"
	"time"
)

type flight struct {
	done chan struct{}
	data chan int
}

// unboundedFlightWait is the PR 7 bug: nothing in this package closes
// signal, and there is no ctx arm — a dead worker parks this goroutine
// forever.
func unboundedFlightWait(signal chan struct{}) {
	<-signal // want `blocking receive from signal has no cancellation arm`
}

func fieldWaitNoClose(f *flight) int {
	return <-f.data // want `blocking receive from f.data has no cancellation arm`
}

// closedInPackage: finish() closes f.done, so the bare wait is exempt
// (whether every path reaches the close is not chanwait's question).
func closedInPackage(f *flight) {
	<-f.done
}

func finish(f *flight) {
	close(f.done)
}

// ctxDone: blocking until cancellation is the point.
func ctxDone(ctx context.Context) {
	<-ctx.Done()
}

// timerWait: the clock bounds the wait.
func timerWait(t *time.Timer) {
	<-t.C
}

func afterWait() {
	<-time.After(time.Second)
}

// selectWithCancel is the fixed shape: data arm + ctx arm.
func selectWithCancel(ctx context.Context, f *flight) error {
	select {
	case <-f.data:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// selectNoCancel blocks on data channels only — same hazard as a naked
// receive, spread across two arms.
func selectNoCancel(a, b chan int) int {
	select { // want `select blocks with no cancellation arm`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// selectWithDefault never blocks.
func selectWithDefault(a chan int) int {
	select {
	case v := <-a:
		return v
	default:
		return 0
	}
}

// selectTimerArm: a timeout arm is a cancellation arm.
func selectTimerArm(a chan int, t *time.Timer) int {
	select {
	case v := <-a:
		return v
	case <-t.C:
		return -1
	}
}

func waitGroup(wg *sync.WaitGroup) {
	wg.Wait() // want `WaitGroup.Wait\(\) blocks with no cancellation arm`
}

// waitGroupAnnotated shows the escape hatch for provably bounded waits.
//
//lint:chanwait workers are bounded by the request context and panic-contained
func waitGroupAnnotated(wg *sync.WaitGroup) {
	wg.Wait()
}

// sendsOutOfScope: blocking sends are the semaphore pattern's job, not
// chanwait's.
func sendsOutOfScope(ch chan int) {
	ch <- 1
}
