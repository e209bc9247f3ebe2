package result

import "fmt"

// WorkerPanicError reports a panic recovered inside a scheduler worker.
// The panic is contained: the worker survives (it recovers per task), the
// crew/pool stays usable for the next run, and the coordinator returns
// this error instead of letting the process die. The engine layer poisons
// the workspace that was running when the panic fired so the pool resets
// it before reuse.
type WorkerPanicError struct {
	// Phase names the phase or superstep that was executing (P1–P7,
	// S1–S5, or "static" for the ablation scheduler).
	Phase string
	// Worker is the panicking worker's index.
	Worker int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

// Error implements the error interface.
func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("worker %d panicked during %s: %v", e.Worker, e.Phase, e.Value)
}
