// Package shard is the repository's one implementation of partitioned,
// bulk-synchronous structural clustering — the SparkSCAN / PSCAN family
// (Zhou & Wang 2015; Zhao et al. 2013) the ppSCAN paper's related work
// dismisses with "incurring communication overheads" (§3.3). A coordinator
// drives three rounds over a fleet of workers, each owning one contiguous
// vertex range of the CSR (Partition), speaking gob over stdlib HTTP; every
// byte that crosses is counted into Stats.CommBytes. The fleet is worker
// processes (cmd/scanshard) behind scanserver -shards, or p in-process
// workers behind a loopback transport as the "dist-scan" engine
// (engine.go).
//
// A worker runs ppSCAN's own pruned phases over its range (core.Range, the
// bodies core.Run walks over [0, n)). Every worker holds the whole
// snapshot, so it computes any arc its vertices read itself and no
// similarity value crosses the wire: an edge across a range boundary may
// be computed by both owners. Only roles, a spanning forest of each
// shard's core unions, cluster ids and memberships do.
//
// The headline property is shard-level fault containment. Every round
// request is self-contained — it carries the query parameters, the target
// epoch, the partition it is addressed to, and every cross-shard input
// (global roles, cluster ids) the round needs — so a retried round is
// idempotent, and a worker that crashed and restarted serves the very next
// round correctly by recomputing its local roles first. That is what makes
// the paper's BSP phase structure recoverable: a failed shard costs one
// bounded round re-dispatch, never the whole query.
//
// The failure model (errors.go) types every observable fault — timeout,
// crash, rejection — and the coordinator reacts with per-RPC deadlines,
// capped exponential backoff against the shard's one address, and an
// on-demand snapshot sync when a worker answers for another epoch, so a
// restarted worker never serves a stale snapshot. A shard that fails every
// attempt degrades the query to a typed ShardUnavailableError that the
// HTTP server surfaces as a structured 503 + Retry-After.
package shard

import "ppscan/internal/result"

// Worker HTTP surface. The paths live under /shard/ so a worker can share
// a mux with diagnostic endpoints without collisions; none of them are
// public API — only the coordinator speaks them.
const (
	// PathStep serves one superstep round (POST, gob StepRequest →
	// gob StepResponse).
	PathStep = "/shard/step"
	// PathSync accepts an epoch catch-up snapshot (POST, 8-byte big-endian
	// epoch + graph.WriteBinary payload).
	PathSync = "/shard/sync"
)

// Round names, in execution order. RoundRoles runs P1 (the degree
// predicate), P2 (u < v) and P3 over the owned range and replies with its
// roles. RoundCluster runs P4 then P5 with a shard-local union-find and
// replies with a spanning forest of it, which the coordinator's global
// union-find reduces. RoundMembers runs P7. A round that finds no roles
// computed for its (epoch, ε, µ) — a restarted worker, an evicted state —
// runs P1–P3 first.
const (
	RoundRoles   = "roles"
	RoundCluster = "cluster"
	RoundMembers = "members"
)

// Rounds lists the step rounds in execution order.
var Rounds = []string{RoundRoles, RoundCluster, RoundMembers}

// StepRequest is one superstep round addressed to one shard. Requests are
// self-contained by design (see the package comment): Roles and
// CoreClusterID repeat whatever cross-shard state the round needs, so a
// freshly restarted worker can serve it without any history.
type StepRequest struct {
	// QueryID identifies the query for logs; correctness never depends on
	// it (worker state is keyed by epoch and parameters, which determine
	// every intermediate deterministically).
	QueryID uint64
	// Shard and Shards name the partition the coordinator addresses: a
	// worker started with other -shard / -shards arguments refuses the
	// round with 400 wrong_shard. Its range could have the right length at
	// the wrong offset, which no check of the reply would catch.
	Shard  int
	Shards int
	// Epoch is the snapshot generation this round must be computed
	// against. A worker holding a different epoch rejects with 409 and
	// the coordinator pushes a sync before retrying.
	Epoch uint64
	// Eps and Mu are the clustering parameters.
	Eps string
	Mu  int32
	// Round selects the superstep (RoundRoles, RoundCluster,
	// RoundMembers).
	Round string
	// Roles is the full n-vertex role assignment (RoundCluster and
	// RoundMembers — both test neighbor roles, and neighbors cross shard
	// boundaries).
	Roles []result.Role
	// CoreClusterID carries the cluster id of each vertex in this shard's
	// range, cores only, -1 elsewhere (RoundMembers). A core's id is the
	// minimum core of its cluster.
	CoreClusterID []int32
}

// StepResponse is a shard's answer to one round. Only the field matching
// the request round is populated.
type StepResponse struct {
	// Shard and Round echo the worker's shard id and the served round as a
	// routing cross-check: a response from the wrong worker or for a stale
	// in-flight request is discarded instead of trusted.
	Shard int
	Round string
	// Calls counts the CompSim (kernel) calls the worker made serving the
	// round; the coordinator sums them into Stats.CompSimCalls.
	Calls int64
	// Roles (RoundRoles) holds the roles of this shard's vertex range.
	Roles []result.Role
	// UnionEdges (RoundCluster) is a spanning forest of the shard's core
	// unions: (x, root) for each core x joined to a different root, the
	// root being the minimum of its set and owned by this shard. It is
	// the coordinator's union-find input, at most one edge per core.
	UnionEdges [][2]int32
	// Members (RoundMembers) lists non-core memberships emitted by this
	// shard's cores.
	Members []result.Membership
}

// rejection is the JSON error body a worker answers non-200 with; Kind is
// machine-readable so the coordinator can react (epoch_mismatch → sync).
type rejection struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
	// Epoch reports the epoch the worker holds (epoch_mismatch only).
	Epoch uint64 `json:"epoch,omitempty"`
}

// Rejection kinds.
const (
	rejectEpoch      = "epoch_mismatch"
	rejectBadRequest = "bad_request"
	// rejectWrongShard is a request addressed to another partition, or a
	// reply whose shard or round echo does not match its request.
	rejectWrongShard   = "wrong_shard"
	rejectInternalErr  = "internal_error"
	rejectInjectedHalt = "injected_halt"
	// rejectOversize and rejectBadResponse are the coordinator's own
	// verdicts on a 200 response: a body past its byte cap, or a reply that
	// fails checkReply. No worker sends them.
	rejectOversize    = "response_too_large"
	rejectBadResponse = "bad_response"
)
