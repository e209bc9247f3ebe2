package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ppscan/graph"
	"ppscan/internal/fault"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
	"ppscan/internal/unionfind"
)

// Coordinator timing defaults. Production-shaped: generous enough that a
// loaded worker is not misdiagnosed. Chaos suites override them downward.
const (
	DefaultStepTimeout     = 30 * time.Second
	DefaultMaxAttempts     = 4
	DefaultRetryBackoff    = 25 * time.Millisecond
	DefaultMaxRetryBackoff = 1 * time.Second
)

// Options configures a Coordinator.
type Options struct {
	// Shards lists each shard's worker base URL ("http://host:port"),
	// index = shard id.
	Shards []string
	// StepTimeout is the per-RPC deadline for superstep rounds.
	StepTimeout time.Duration
	// MaxAttempts bounds RPC attempts per round per shard.
	MaxAttempts int
	// RetryBackoff and MaxRetryBackoff shape the capped exponential
	// backoff between attempts.
	RetryBackoff    time.Duration
	MaxRetryBackoff time.Duration
	// Client is the HTTP client for all RPCs (default http.DefaultClient
	// semantics with a fresh Transport so worker restarts don't inherit
	// poisoned keep-alive connections).
	Client *http.Client
	// Registry receives the shard.* metrics (default obsv.Default()).
	Registry *obsv.Registry
}

// coordSnap is the coordinator's current graph generation.
type coordSnap struct {
	g      *graph.Graph
	epoch  uint64
	bounds []int32
}

// Coordinator drives superstep rounds across a fixed fleet of shard
// workers, one address per shard, containing per-shard faults with
// retries and epoch catch-up. One Coordinator serves many concurrent
// queries.
type Coordinator struct {
	opt    Options
	client *http.Client
	snap   atomic.Pointer[coordSnap]

	queryID atomic.Uint64

	// maxRespBytes bounds one step response body, as the worker's
	// MaxBodyBytes bounds a request (a field so a test can lower it).
	maxRespBytes int64

	rpcs, rpcNs, retriesC        *obsv.Counter
	timeouts, crashes, rejectedC *obsv.Counter
	syncsC, queries, unavailable *obsv.Counter
	commBytes                    *obsv.Counter
	roundNs                      map[string]*obsv.Counter
}

// NewCoordinator builds a coordinator over g for the given fleet.
func NewCoordinator(g *graph.Graph, opt Options) (*Coordinator, error) {
	if len(opt.Shards) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one shard")
	}
	for i, addr := range opt.Shards {
		if addr == "" {
			return nil, fmt.Errorf("shard: shard %d has no address", i)
		}
	}
	if opt.StepTimeout <= 0 {
		opt.StepTimeout = DefaultStepTimeout
	}
	if opt.MaxAttempts < 1 {
		opt.MaxAttempts = DefaultMaxAttempts
	}
	if opt.RetryBackoff <= 0 {
		opt.RetryBackoff = DefaultRetryBackoff
	}
	if opt.MaxRetryBackoff <= 0 {
		opt.MaxRetryBackoff = DefaultMaxRetryBackoff
	}
	if opt.Registry == nil {
		opt.Registry = obsv.Default()
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{}}
	}
	c := &Coordinator{
		opt:          opt,
		client:       client,
		maxRespBytes: DefaultMaxBodyBytes,

		rpcs:        opt.Registry.Counter(obsv.MetricShardRPCs),
		rpcNs:       opt.Registry.Counter(obsv.MetricShardRPCNs),
		retriesC:    opt.Registry.Counter(obsv.MetricShardRetries),
		timeouts:    opt.Registry.Counter(obsv.MetricShardTimeouts),
		crashes:     opt.Registry.Counter(obsv.MetricShardCrashes),
		rejectedC:   opt.Registry.Counter(obsv.MetricShardRejected),
		syncsC:      opt.Registry.Counter(obsv.MetricShardSyncs),
		queries:     opt.Registry.Counter(obsv.MetricShardQueries),
		unavailable: opt.Registry.Counter(obsv.MetricShardUnavailable),
		commBytes:   opt.Registry.Counter(obsv.MetricShardCommBytes),
		roundNs:     make(map[string]*obsv.Counter, len(Rounds)),
	}
	for _, r := range Rounds {
		c.roundNs[r] = opt.Registry.Counter(obsv.MetricShardRoundNsPrefix + r)
	}
	c.Publish(g)
	return c, nil
}

// Publish installs a new graph snapshot as the coordinator's current
// epoch. Workers are not pushed eagerly: the next round they serve
// rejects with epoch_mismatch and the coordinator syncs them on demand.
func (c *Coordinator) Publish(g *graph.Graph) {
	c.snap.Store(&coordSnap{
		g:      g,
		epoch:  g.Epoch(),
		bounds: Partition(g, len(c.opt.Shards)),
	})
}

// Epoch returns the coordinator's current epoch.
func (c *Coordinator) Epoch() uint64 { return c.snap.Load().epoch }

// syncReplica pushes the coordinator's current snapshot to one worker
// (epoch catch-up).
func (c *Coordinator) syncReplica(ctx context.Context, sn *coordSnap, addr string) error {
	var buf bytes.Buffer
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], sn.epoch)
	buf.Write(hdr[:])
	if err := graph.WriteBinary(&buf, sn.g); err != nil {
		return fmt.Errorf("encoding sync snapshot: %w", err)
	}
	sctx, cancel := context.WithTimeout(ctx, c.opt.StepTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodPost, addr+PathSync, bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("sync rejected with status %d", resp.StatusCode)
	}
	c.syncsC.Inc()
	c.commBytes.Add(int64(buf.Len()))
	return nil
}

// callStep runs one round RPC against one shard with the full containment
// ladder: fault injection, per-RPC deadline, failure classification,
// capped exponential backoff and epoch-mismatch sync, every attempt
// against the shard's one address. A reply that fails checkReply (ids are
// the whole-graph cluster ids, needed by RoundMembers only) counts as a
// failed attempt. Exhaustion returns a ShardUnavailableError wrapping the
// last leaf failure.
func (c *Coordinator) callStep(ctx context.Context, sn *coordSnap, shard int, req *StepRequest, ids []int32, qBytes *atomic.Int64) (*StepResponse, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(req); err != nil {
		return nil, fmt.Errorf("shard: encoding %s round: %w", req.Round, err)
	}
	addr := c.opt.Shards[shard]
	backoff := c.opt.RetryBackoff
	var last error
	attempts := 0
	for attempts < c.opt.MaxAttempts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		attempts++
		if attempts > 1 {
			c.retriesC.Inc()
			fault.NoteRetry()
			// Backoff honors cancellation: a client that goes away
			// mid-backoff aborts the query instead of waiting out the
			// timer just to fail at the next check.
			timer := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				timer.Stop()
				return nil, ctx.Err()
			case <-timer.C:
			}
			backoff = min(2*backoff, c.opt.MaxRetryBackoff)
		}
		resp, err := c.attempt(ctx, shard, addr, req.Round, body.Bytes(), qBytes)
		if err == nil {
			if cerr := checkReply(sn, shard, req, ids, resp); cerr != nil {
				c.rejectedC.Inc()
				err = &ShardRejectedError{Shard: shard, Addr: addr, Round: req.Round,
					Status: http.StatusOK, Kind: rejectBadResponse, Msg: cerr.Error()}
			}
		}
		if err == nil {
			return resp, nil
		}
		last = err
		var rej *ShardRejectedError
		if errors.As(err, &rej) && rej.Kind == rejectEpoch {
			// The worker is alive on a stale epoch: catch it up and let
			// the loop retry. A failed sync leaves the next attempt to
			// find the same mismatch.
			_ = c.syncReplica(ctx, sn, addr)
		}
	}
	c.unavailable.Inc()
	return nil, &ShardUnavailableError{Shard: shard, Round: req.Round, Attempts: attempts, Err: last}
}

// attempt performs exactly one RPC and classifies its failure.
func (c *Coordinator) attempt(ctx context.Context, shard int, addr string, round string, body []byte, qBytes *atomic.Int64) (*StepResponse, error) {
	if err := fault.Inject(fault.ShardRPC); err != nil {
		c.crashes.Inc()
		return nil, &ShardCrashError{Shard: shard, Addr: addr, Round: round, Err: err}
	}
	c.rpcs.Inc()
	start := time.Now()
	defer func() { c.rpcNs.Add(int64(time.Since(start))) }()
	actx, cancel := context.WithTimeout(ctx, c.opt.StepTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, addr+PathStep, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("shard: building %s request: %w", round, err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	c.commBytes.Add(int64(len(body)))
	qBytes.Add(int64(len(body)))
	resp, err := c.client.Do(req)
	if err != nil {
		if actx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			c.timeouts.Inc()
			return nil, &ShardTimeoutError{Shard: shard, Addr: addr, Round: round, Timeout: c.opt.StepTimeout}
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		c.crashes.Inc()
		return nil, &ShardCrashError{Shard: shard, Addr: addr, Round: round, Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var rej rejection
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&rej)
		if rej.Kind == "" {
			rej.Kind = rejectInternalErr
		}
		c.rejectedC.Inc()
		return nil, &ShardRejectedError{
			Shard: shard, Addr: addr, Round: round,
			Status: resp.StatusCode, Kind: rej.Kind, Msg: rej.Error,
		}
	}
	// One byte past the cap tells an overrun from a body that ends on it.
	counted := &countingReader{r: io.LimitReader(resp.Body, c.maxRespBytes+1)}
	var sr StepResponse
	err = gob.NewDecoder(counted).Decode(&sr)
	if counted.n > c.maxRespBytes {
		c.rejectedC.Inc()
		return nil, &ShardRejectedError{
			Shard: shard, Addr: addr, Round: round, Status: resp.StatusCode,
			Kind: rejectOversize,
			Msg:  fmt.Sprintf("response body exceeds %d bytes", c.maxRespBytes),
		}
	}
	if err != nil {
		// A connection severed mid-response body (worker died while
		// writing) surfaces here, after the 200 header.
		if actx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			c.timeouts.Inc()
			return nil, &ShardTimeoutError{Shard: shard, Addr: addr, Round: round, Timeout: c.opt.StepTimeout}
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		c.crashes.Inc()
		return nil, &ShardCrashError{Shard: shard, Addr: addr, Round: round, Err: err}
	}
	c.commBytes.Add(counted.n)
	qBytes.Add(counted.n)
	if sr.Shard != shard || sr.Round != round {
		c.rejectedC.Inc()
		return nil, &ShardRejectedError{
			Shard: shard, Addr: addr, Round: round, Status: resp.StatusCode,
			Kind: rejectWrongShard,
			Msg:  fmt.Sprintf("response names shard %d round %q", sr.Shard, sr.Round),
		}
	}
	return &sr, nil
}

// checkReply vets a decoded reply against the round it answers before any
// of it is used. A worker's output indexes the coordinator's arrays and
// becomes the answer, so a buggy or hostile worker must cost a failed
// attempt, never a panic or a wrong clustering.
func checkReply(sn *coordSnap, shard int, req *StepRequest, ids []int32, resp *StepResponse) error {
	n := sn.g.NumVertices()
	lo, hi := sn.bounds[shard], sn.bounds[shard+1]
	// A round labels each owned arc at most once, so it makes at most one
	// call per owned arc.
	if arcs := sn.g.Off[hi] - sn.g.Off[lo]; resp.Calls < 0 || resp.Calls > arcs {
		return fmt.Errorf("%d CompSim calls over %d owned arcs", resp.Calls, arcs)
	}
	switch req.Round {
	case RoundRoles:
		return checkRoles(resp.Roles, hi-lo)
	case RoundCluster:
		for _, e := range resp.UnionEdges {
			x, root := e[0], e[1]
			if root < lo || root >= hi || x <= root || x >= n || req.Roles[x] != result.RoleCore || req.Roles[root] != result.RoleCore {
				return fmt.Errorf("union edge %v does not join a core to an owned root below it", e)
			}
		}
	case RoundMembers:
		for _, m := range resp.Members {
			if m.V < 0 || m.V >= n || req.Roles[m.V] != result.RoleNonCore ||
				m.ClusterID < 0 || m.ClusterID >= n || ids[m.ClusterID] != m.ClusterID {
				return fmt.Errorf("membership %+v is not a non-core in a core's cluster", m)
			}
		}
	}
	return nil
}

// countingReader counts wire bytes actually read (Stats.CommBytes is
// measured, not modeled).
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// Run executes one clustering query across the fleet: three fan-out
// rounds (roles → cluster → members) with a central union-find reduce of
// the shards' spanning forests, producing a Result bit-identical to every
// in-process engine's for the same snapshot and parameters. Any shard that cannot serve a
// round after its retries fails the query with a typed
// ShardUnavailableError — never a hang, never a partial result.
func (c *Coordinator) Run(ctx context.Context, eps string, mu int32) (*result.Result, error) {
	th, err := simdef.NewThreshold(eps, mu)
	if err != nil {
		return nil, err
	}
	res, pe := c.run(ctx, th)
	if pe != nil {
		return nil, pe.Err
	}
	return res, nil
}

// run is Run past parameter parsing. A failure comes back as a
// *result.PartialError naming the round in flight and carrying the stats
// accumulated so far (the dist-scan engine returns it whole; Run unwraps
// it, so the serving tier sees the bare taxonomy error).
func (c *Coordinator) run(ctx context.Context, th simdef.Threshold) (*result.Result, *result.PartialError) {
	c.queries.Inc()
	sn := c.snap.Load()
	g, bounds := sn.g, sn.bounds
	n := g.NumVertices()
	p := len(c.opt.Shards)
	qid := c.queryID.Add(1)
	base := StepRequest{QueryID: qid, Shards: p, Epoch: sn.epoch, Eps: th.Eps.String(), Mu: th.Mu}
	start := time.Now()
	// Wire bytes are measured per query (request bodies out, response
	// bodies in), not modeled — concurrent queries each count their own.
	var qBytes atomic.Int64
	// CompSim calls are measured too: each round's replies report theirs.
	var calls int64
	stats := func() result.Stats {
		return result.Stats{
			Algorithm:    fmt.Sprintf("shard-scan(s=%d)", p),
			Workers:      p,
			Total:        time.Since(start),
			CompSimCalls: calls,
			CommBytes:    qBytes.Load(),
		}
	}
	abort := func(round string, err error) (*result.Result, *result.PartialError) {
		return nil, &result.PartialError{Stats: stats(), Phase: round, Err: err}
	}

	// fanOut runs one round on every shard concurrently; the per-shard
	// request is built by mk (which must not share mutable state). Replies
	// are checked against coreClusterID once round 2 has set it.
	var coreClusterID []int32
	fanOut := func(round string, mk func(shard int) *StepRequest) ([]*StepResponse, error) {
		t0 := time.Now()
		defer func() { c.roundNs[round].Add(int64(time.Since(t0))) }()
		resps := make([]*StepResponse, p)
		errs := make([]error, p)
		var wg sync.WaitGroup
		for s := 0; s < p; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				defer func() {
					if v := recover(); v != nil {
						errs[s] = &result.WorkerPanicError{
							Phase: "shard " + round, Worker: s, Value: v, Stack: debug.Stack(),
						}
					}
				}()
				req := mk(s)
				req.Shard = s
				resps[s], errs[s] = c.callStep(ctx, sn, s, req, coreClusterID, &qBytes)
			}(s)
		}
		//lint:chanwait bounded: every callStep is bounded by MaxAttempts deadlined RPCs
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		for _, resp := range resps {
			calls += resp.Calls
		}
		return resps, nil
	}

	// Round 1: P1–P3 over each shard's range.
	roleResps, err := fanOut(RoundRoles, func(s int) *StepRequest {
		r := base
		r.Round = RoundRoles
		return &r
	})
	if err != nil {
		return abort(RoundRoles, err)
	}
	roles := make([]result.Role, n)
	for s, resp := range roleResps {
		copy(roles[bounds[s]:bounds[s+1]], resp.Roles)
	}

	// Round 2: P4–P5 per shard; the spanning forests are reduced through a
	// central union-find with min-core-id labeling (P6).
	clusterResps, err := fanOut(RoundCluster, func(s int) *StepRequest {
		r := base
		r.Round = RoundCluster
		r.Roles = roles
		return &r
	})
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return abort(RoundCluster, err)
	}
	uf := unionfind.NewSequential(n)
	for _, resp := range clusterResps {
		for _, e := range resp.UnionEdges {
			uf.Union(e[0], e[1])
		}
	}
	coreClusterID = result.CoreClusterIDs(roles, uf)

	// Round 3: P7, membership emission by each shard's cores.
	memberResps, err := fanOut(RoundMembers, func(s int) *StepRequest {
		r := base
		r.Round = RoundMembers
		r.Roles = roles
		r.CoreClusterID = coreClusterID[bounds[s]:bounds[s+1]]
		return &r
	})
	if err != nil {
		return abort(RoundMembers, err)
	}

	res := &result.Result{
		Eps:           th.Eps.String(),
		Mu:            th.Mu,
		Roles:         roles,
		CoreClusterID: coreClusterID,
	}
	for _, resp := range memberResps {
		res.NonCore = append(res.NonCore, resp.Members...)
	}
	res.Normalize()
	res.Stats = stats()
	return res, nil
}
