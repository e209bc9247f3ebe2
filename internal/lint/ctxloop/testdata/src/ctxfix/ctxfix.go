// Package ctxfix exercises the ctxloop analyzer: loops in context-accepting
// functions need a cancellation checkpoint.
package ctxfix

import "context"

func work(int)                     {}
func workCtx(context.Context, int) {}
func stopped() bool                { return false }

func impolite(ctx context.Context, items []int) {
	for _, it := range items { // want `range loop in context-accepting function has no cancellation checkpoint`
		work(it)
	}
	for i := 0; i < len(items); i++ { // want `loop in context-accepting function has no cancellation checkpoint`
		work(i)
	}
}

func polite(ctx context.Context, items []int, tick chan struct{}) error {
	for _, it := range items {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		work(it)
	}
	for _, it := range items {
		workCtx(ctx, it) // forwarding ctx delegates the checkpoint
	}
	for _, it := range items {
		if stopped() { // lock-free cancellation flag, sched.Crew style
			break
		}
		work(it)
	}
	for range items {
		<-tick // channel receive synchronizes with a ctx watcher
	}
	for range items {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
	}
	//lint:ctxok bounded by a small constant, no similarity work
	for i := 0; i < 8; i++ {
		work(i)
	}
	return nil
}

// noCtx has no context parameter: its loops are out of scope.
func noCtx(items []int) {
	for _, it := range items {
		work(it)
	}
}

// closures: loops inside function literals are the scheduler's
// responsibility, not the enclosing function's.
func closures(ctx context.Context, items []int) {
	run := func() {
		for _, it := range items {
			work(it)
		}
	}
	run()
	_ = ctx
}
