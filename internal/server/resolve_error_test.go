package server

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"ppscan"
	"ppscan/internal/shard"
)

// TestWriteResolveError pins the one error-to-HTTP mapping, every kind:
// status, Retry-After and the exact body bytes.
func TestWriteResolveError(t *testing.T) {
	s := New(testGraph(t), 2).WithRequestTimeout(1500 * time.Millisecond)
	crash := &shard.ShardCrashError{Shard: 1, Addr: "http://w1", Round: shard.RoundRoles, Err: errors.New("EOF")}
	timeout := &shard.ShardTimeoutError{Shard: 2, Addr: "http://w2", Round: shard.RoundMembers, Timeout: time.Second}
	rejected := &shard.ShardRejectedError{Shard: 0, Addr: "http://w0", Round: shard.RoundCluster, Status: 503, Kind: "draining", Msg: "going away"}
	panicked := &ppscan.WorkerPanicError{Phase: "P1 prune-sim", Worker: 3, Value: "boom"}
	partial := func(phase string, err error) error {
		return &ppscan.PartialError{Phase: phase, Err: err}
	}
	late := partial("P2 check-core", context.DeadlineExceeded)
	for _, tc := range []struct {
		name       string
		err        error
		status     int
		retryAfter string
		body       string
	}{
		{"shard_unavailable",
			// Wrapped the way the dist-scan engine returns it; the leaf it
			// wraps must not win over the degradation signal.
			partial("roles", &shard.ShardUnavailableError{Shard: 1, Round: shard.RoundRoles, Attempts: 4, Err: crash}),
			503, "5",
			`{"attempts":4,"error":"shard 1 unavailable: roles round failed after 4 attempt(s), last: shard 1 (http://w1): roles RPC failed, worker crashed or unreachable: EOF","kind":"shard_unavailable","retryAfterSeconds":5,"round":"roles","shard":1}`},
		{"shard_timeout", timeout, 500, "",
			`{"error":"shard 2 (http://w2): members RPC exceeded 1s deadline","kind":"shard_timeout","round":"members","shard":2}`},
		{"shard_crash", crash, 500, "",
			`{"error":"shard 1 (http://w1): roles RPC failed, worker crashed or unreachable: EOF","kind":"shard_crash","round":"roles","shard":1}`},
		{"shard_rejected", rejected, 500, "",
			`{"error":"shard 0 (http://w0): cluster RPC rejected with 503 (draining): going away","kind":"shard_rejected","round":"cluster","shard":0}`},
		{"worker_panic", partial("P1 prune-sim", panicked), 500, "",
			`{"error":"worker 3 panicked during P1 prune-sim: boom","kind":"worker_panic","phase":"P1 prune-sim","worker":3}`},
		{"deadline", late, 503, "2",
			fmt.Sprintf(`{"abortedDuring":"P2 check-core","error":%q,"retryAfterSeconds":2}`, late.Error())},
		{"cancel", context.Canceled, 503, "",
			`{"error":"context canceled"}`},
		{"default", errors.New("eps out of range"), 400, "",
			`{"error":"eps out of range"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.writeResolveError(rec, tc.err)
			if rec.Code != tc.status {
				t.Errorf("status = %d, want %d", rec.Code, tc.status)
			}
			if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
				t.Errorf("Retry-After = %q, want %q", got, tc.retryAfter)
			}
			if got := rec.Body.String(); got != tc.body+"\n" {
				t.Errorf("body = %s\nwant   %s", got, tc.body)
			}
		})
	}
}
