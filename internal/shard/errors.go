package shard

import (
	"fmt"
	"time"
)

// The failure taxonomy mirrors result.WorkerPanicError one level up the
// stack: where a worker panic names the goroutine fault the scheduler
// contained, these errors name the *process* fault the coordinator
// contained. Every RPC failure the coordinator observes is classified into
// exactly one of the three leaf types — timeout, crash, rejection — and a
// round that exhausts its attempts wraps the last leaf in a
// ShardUnavailableError. All four carry the shard id, address and round so
// a 503 body or a log line names the blast radius precisely.

// ShardTimeoutError reports a shard RPC that exceeded the coordinator's
// per-RPC deadline: the worker may be alive but stalled (a straggler, a
// network partition, an injected ShardDelay). Timeouts are retryable — the
// next attempt may find the worker caught up.
type ShardTimeoutError struct {
	// Shard is the vertex-range partition the RPC targeted.
	Shard int
	// Addr is the worker endpoint that timed out.
	Addr string
	// Round is the superstep round in flight ("roles", "cluster" or
	// "members").
	Round string
	// Timeout is the per-RPC deadline that expired.
	Timeout time.Duration
}

// Error implements the error interface.
func (e *ShardTimeoutError) Error() string {
	return fmt.Sprintf("shard %d (%s): %s RPC exceeded %v deadline", e.Shard, e.Addr, e.Round, e.Timeout)
}

// ShardCrashError reports a shard RPC that failed at the transport layer —
// connection refused, reset, or severed mid-response — meaning the worker
// process died or never existed at that address. Crashes are retryable:
// a worker restarted at the same address serves the next attempt.
type ShardCrashError struct {
	Shard int
	Addr  string
	Round string
	// Err is the underlying transport error.
	Err error
}

// Error implements the error interface.
func (e *ShardCrashError) Error() string {
	return fmt.Sprintf("shard %d (%s): %s RPC failed, worker crashed or unreachable: %v", e.Shard, e.Addr, e.Round, e.Err)
}

// Unwrap exposes the transport error.
func (e *ShardCrashError) Unwrap() error { return e.Err }

// ShardRejectedError reports a worker that answered but refused the RPC:
// serving a different epoch (409, which triggers a snapshot sync before
// the retry), or a protocol or partition mismatch (400). The
// worker process is alive — this is a state problem, not a liveness one.
type ShardRejectedError struct {
	Shard int
	Addr  string
	Round string
	// Status is the HTTP status the worker answered.
	Status int
	// Kind is the machine-readable rejection class from the response body
	// ("epoch_mismatch", "bad_request", "wrong_shard", ...).
	Kind string
	// Msg is the worker's human-readable error string.
	Msg string
}

// Error implements the error interface.
func (e *ShardRejectedError) Error() string {
	return fmt.Sprintf("shard %d (%s): %s RPC rejected with %d (%s): %s", e.Shard, e.Addr, e.Round, e.Status, e.Kind, e.Msg)
}

// ShardUnavailableError reports that one shard could not serve a superstep
// round at all: every attempt failed. It is the
// degradation signal — the server answers 503 + Retry-After instead of
// hanging — and wraps the last leaf failure so errors.As still reaches the
// taxonomy class that exhausted the budget.
type ShardUnavailableError struct {
	Shard int
	Round string
	// Attempts is how many RPC attempts were spent.
	Attempts int
	// Err is the last failure observed (a ShardTimeoutError,
	// ShardCrashError or ShardRejectedError).
	Err error
}

// Error implements the error interface.
func (e *ShardUnavailableError) Error() string {
	return fmt.Sprintf("shard %d unavailable: %s round failed after %d attempt(s), last: %v", e.Shard, e.Round, e.Attempts, e.Err)
}

// Unwrap exposes the last leaf failure.
func (e *ShardUnavailableError) Unwrap() error { return e.Err }
