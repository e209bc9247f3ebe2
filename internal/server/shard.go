// Sharded serving: WithShards swaps the compute backend from in-process
// engines to a multi-process worker fleet driven by a shard.Coordinator.
// The serving ladder above it — response cache, admission control,
// draining — is unchanged; only the "compute" rung differs. Shard-tier
// faults arrive as the typed taxonomy from internal/shard and
// writeResolveError maps them to structured HTTP errors: a shard with no
// live replica degrades the query to 503 + Retry-After naming the shard,
// never a hang and never a silent partial result.
package server

import (
	"context"

	"ppscan"
	"ppscan/internal/shard"
)

// WithShards attaches a shard coordinator: /cluster (and /vertex,
// /quality, which resolve through the same path) execute each query's
// supersteps on the worker fleet instead of in-process engines. The
// coordinator's graph must be the server's graph. Mutually exclusive with
// WithIndex and WithCoalescing — the fleet already shares per-parameter
// similarity state worker-side. With WithMutations, each committed epoch
// is published to the coordinator, which pushes snapshot syncs so no
// worker ever serves a stale view.
func (s *Server) WithShards(c *shard.Coordinator) *Server {
	s.coord = c
	return s
}

// Coordinator returns the attached shard coordinator (nil when the server
// computes in-process).
func (s *Server) Coordinator() *shard.Coordinator { return s.coord }

// runSharded executes one query on the fleet and caches the result under
// the server's response cache, mirroring runDirect's contract. The
// coordinator already clones nothing into workspaces — its results are
// freshly allocated — so no defensive copy is needed before caching.
func (s *Server) runSharded(ctx context.Context, key cacheKey, eps string, mu int) (*ppscan.Result, error) {
	res, err := s.coord.Run(ctx, eps, int32(mu))
	if err != nil {
		return nil, err // classified by writeResolveError
	}
	s.mu.Lock()
	s.cache.add(key, res)
	s.mu.Unlock()
	return res, nil
}

// shardRetryAfterSecs is the Retry-After hint for shard unavailability:
// long enough for a worker restart plus a heartbeat period, short enough
// that clients re-probe a recovered fleet promptly.
const shardRetryAfterSecs = 5
