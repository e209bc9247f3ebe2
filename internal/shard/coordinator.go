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
// loaded worker is not misdiagnosed, small enough that a dead one is
// detected within a few heartbeat periods. Chaos suites override all of
// them downward.
const (
	DefaultStepTimeout      = 30 * time.Second
	DefaultHeartbeatTimeout = 2 * time.Second
	DefaultHeartbeatEvery   = 1 * time.Second
	DefaultMaxAttempts      = 4
	DefaultRetryBackoff     = 25 * time.Millisecond
	DefaultMaxRetryBackoff  = 1 * time.Second
	// DefaultSuspectAfter and DefaultDeadAfter are consecutive-failure
	// thresholds for the health state machine.
	DefaultSuspectAfter = 1
	DefaultDeadAfter    = 3
)

// HealthState is a replica's coordinator-side liveness classification.
type HealthState int32

const (
	// Healthy replicas are preferred RPC targets.
	Healthy HealthState = iota
	// Suspect replicas failed recently; they are still tried, after
	// healthy ones, because one failure is often a blip.
	Suspect
	// Dead replicas failed repeatedly; they are tried last, and only the
	// heartbeat loop can promote them back (rejoin).
	Dead
)

// String returns the state's stable name (surfaced in /healthz).
func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int32(h))
}

// Options configures a Coordinator.
type Options struct {
	// Shards lists each shard's replica base URLs ("http://host:port"),
	// outer index = shard id. Every shard needs at least one replica.
	Shards [][]string
	// StepTimeout is the per-RPC deadline for superstep rounds.
	StepTimeout time.Duration
	// HeartbeatTimeout is the per-RPC deadline for health probes.
	HeartbeatTimeout time.Duration
	// HeartbeatEvery is the probe period. 0 defaults; < 0 disables the
	// background loop (tests drive HeartbeatNow directly).
	HeartbeatEvery time.Duration
	// MaxAttempts bounds RPC attempts per round per shard, across
	// replicas.
	MaxAttempts int
	// RetryBackoff and MaxRetryBackoff shape the capped exponential
	// backoff between attempts.
	RetryBackoff    time.Duration
	MaxRetryBackoff time.Duration
	// SuspectAfter and DeadAfter are the consecutive-failure thresholds
	// of the health state machine.
	SuspectAfter int
	DeadAfter    int
	// Client is the HTTP client for all RPCs (default http.DefaultClient
	// semantics with a fresh Transport so worker restarts don't inherit
	// poisoned keep-alive connections).
	Client *http.Client
	// Registry receives the shard.* metrics (default obsv.Default()).
	Registry *obsv.Registry
	// Logf receives one line per noteworthy fleet event (health
	// transitions, failovers, syncs). nil silences.
	Logf func(format string, args ...any)
}

// replica is one worker endpoint and its coordinator-side health record.
type replica struct {
	addr string

	mu       sync.Mutex
	state    HealthState
	fails    int    // consecutive failures
	epoch    uint64 // last epoch reported by a heartbeat
	lastBeat time.Time
	steps    int64
}

// ReplicaStatus is one replica's row in FleetStatus (JSON in /healthz).
type ReplicaStatus struct {
	Addr  string `json:"addr"`
	State string `json:"state"`
	Epoch uint64 `json:"epoch"`
	// LastHeartbeatMS is milliseconds since the last successful
	// heartbeat; -1 before the first one.
	LastHeartbeatMS int64 `json:"last_heartbeat_ms"`
	Steps           int64 `json:"steps"`
}

// ShardStatus is one shard's row in FleetStatus.
type ShardStatus struct {
	Shard    int             `json:"shard"`
	Lo       int32           `json:"lo"`
	Hi       int32           `json:"hi"`
	Replicas []ReplicaStatus `json:"replicas"`
}

// FleetStatus is the coordinator's /healthz contribution.
type FleetStatus struct {
	Shards  int           `json:"shards"`
	Epoch   uint64        `json:"epoch"`
	Healthy int           `json:"replicas_healthy"`
	Suspect int           `json:"replicas_suspect"`
	Dead    int           `json:"replicas_dead"`
	Fleet   []ShardStatus `json:"fleet"`
}

// coordSnap is the coordinator's current graph generation.
type coordSnap struct {
	g      *graph.Graph
	epoch  uint64
	bounds []int32
}

// Coordinator drives superstep rounds across a fleet of shard workers,
// containing per-shard faults with retries, failover, health tracking and
// epoch catch-up. One Coordinator serves many concurrent queries.
type Coordinator struct {
	opt    Options
	client *http.Client
	snap   atomic.Pointer[coordSnap]
	fleet  [][]*replica

	queryID atomic.Uint64

	// maxRespBytes bounds one step response body, as the worker's
	// MaxBodyBytes bounds a request (a field so a test can lower it).
	maxRespBytes int64

	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}

	rpcs, rpcNs, retriesC, failovers *obsv.Counter
	timeouts, crashes, rejectedC     *obsv.Counter
	heartbeats, rejoins, syncsC      *obsv.Counter
	queries, unavailable, commBytes  *obsv.Counter
	gHealthy, gSuspect, gDead        *obsv.Gauge
	roundNs                          map[string]*obsv.Counter
}

// NewCoordinator builds a coordinator over g for the given fleet and
// starts the heartbeat loop (unless opt.HeartbeatEvery < 0).
func NewCoordinator(g *graph.Graph, opt Options) (*Coordinator, error) {
	if len(opt.Shards) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one shard")
	}
	for i, reps := range opt.Shards {
		if len(reps) == 0 {
			return nil, fmt.Errorf("shard: shard %d has no replicas", i)
		}
	}
	if opt.StepTimeout <= 0 {
		opt.StepTimeout = DefaultStepTimeout
	}
	if opt.HeartbeatTimeout <= 0 {
		opt.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if opt.HeartbeatEvery == 0 {
		opt.HeartbeatEvery = DefaultHeartbeatEvery
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
	if opt.SuspectAfter < 1 {
		opt.SuspectAfter = DefaultSuspectAfter
	}
	if opt.DeadAfter <= opt.SuspectAfter {
		opt.DeadAfter = opt.SuspectAfter + DefaultDeadAfter - DefaultSuspectAfter
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

		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),

		rpcs:        opt.Registry.Counter(obsv.MetricShardRPCs),
		rpcNs:       opt.Registry.Counter(obsv.MetricShardRPCNs),
		retriesC:    opt.Registry.Counter(obsv.MetricShardRetries),
		failovers:   opt.Registry.Counter(obsv.MetricShardFailovers),
		timeouts:    opt.Registry.Counter(obsv.MetricShardTimeouts),
		crashes:     opt.Registry.Counter(obsv.MetricShardCrashes),
		rejectedC:   opt.Registry.Counter(obsv.MetricShardRejected),
		heartbeats:  opt.Registry.Counter(obsv.MetricShardHeartbeats),
		rejoins:     opt.Registry.Counter(obsv.MetricShardRejoins),
		syncsC:      opt.Registry.Counter(obsv.MetricShardSyncs),
		queries:     opt.Registry.Counter(obsv.MetricShardQueries),
		unavailable: opt.Registry.Counter(obsv.MetricShardUnavailable),
		commBytes:   opt.Registry.Counter(obsv.MetricShardCommBytes),
		gHealthy:    opt.Registry.Gauge(obsv.MetricShardHealthy),
		gSuspect:    opt.Registry.Gauge(obsv.MetricShardSuspect),
		gDead:       opt.Registry.Gauge(obsv.MetricShardDead),
		roundNs:     make(map[string]*obsv.Counter, len(Rounds)),
	}
	for _, r := range Rounds {
		c.roundNs[r] = opt.Registry.Counter(obsv.MetricShardRoundNsPrefix + r)
	}
	c.fleet = make([][]*replica, len(opt.Shards))
	for i, reps := range opt.Shards {
		for _, addr := range reps {
			c.fleet[i] = append(c.fleet[i], &replica{addr: addr})
		}
	}
	c.Publish(g)
	c.updateGauges()
	if opt.HeartbeatEvery > 0 {
		go c.heartbeatLoop()
	} else {
		close(c.doneCh)
	}
	return c, nil
}

// Publish installs a new graph snapshot as the coordinator's current
// epoch. Workers are not pushed eagerly: the next round they serve
// rejects with epoch_mismatch and the coordinator syncs them on demand
// (and heartbeats sync idle workers in the background).
func (c *Coordinator) Publish(g *graph.Graph) {
	c.snap.Store(&coordSnap{
		g:      g,
		epoch:  g.Epoch(),
		bounds: Partition(g, len(c.fleet)),
	})
}

// Epoch returns the coordinator's current epoch.
func (c *Coordinator) Epoch() uint64 { return c.snap.Load().epoch }

func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Logf != nil {
		c.opt.Logf(format, args...)
	}
}

// markFailure records one RPC failure against a replica and applies the
// healthy → suspect → dead transitions.
func (c *Coordinator) markFailure(shard int, r *replica, err error) {
	r.mu.Lock()
	r.fails++
	prev := r.state
	switch {
	case r.fails >= c.opt.DeadAfter:
		r.state = Dead
	case r.fails >= c.opt.SuspectAfter:
		r.state = Suspect
	}
	now := r.state
	r.mu.Unlock()
	if now != prev {
		c.logf("shard %d replica %s: %s -> %s (%v)", shard, r.addr, prev, now, err)
		c.updateGauges()
	}
}

// markSuccess records a successful RPC or heartbeat; a dead replica
// transitioning back to healthy is a rejoin.
func (c *Coordinator) markSuccess(shard int, r *replica) {
	r.mu.Lock()
	prev := r.state
	r.fails = 0
	r.state = Healthy
	r.mu.Unlock()
	if prev != Healthy {
		if prev == Dead {
			c.rejoins.Inc()
		}
		c.logf("shard %d replica %s: %s -> healthy", shard, r.addr, prev)
		c.updateGauges()
	}
}

func (c *Coordinator) updateGauges() {
	var h, s, d int64
	for _, reps := range c.fleet {
		for _, r := range reps {
			r.mu.Lock()
			st := r.state
			r.mu.Unlock()
			switch st {
			case Healthy:
				h++
			case Suspect:
				s++
			case Dead:
				d++
			}
		}
	}
	c.gHealthy.Set(h)
	c.gSuspect.Set(s)
	c.gDead.Set(d)
}

// ordered returns the shard's replicas in preference order: healthy
// first, then suspect, then dead. Dead replicas stay in the rotation —
// with one replica per shard the "dead" one is still the only hope, and
// a restarted worker answers at the same address.
func (c *Coordinator) ordered(shard int) []*replica {
	reps := c.fleet[shard]
	out := make([]*replica, 0, len(reps))
	for want := Healthy; want <= Dead; want++ {
		for _, r := range reps {
			r.mu.Lock()
			st := r.state
			r.mu.Unlock()
			if st == want {
				out = append(out, r)
			}
		}
	}
	return out
}

// FleetStatus snapshots the fleet's health for /healthz.
func (c *Coordinator) FleetStatus() FleetStatus {
	sn := c.snap.Load()
	fs := FleetStatus{Shards: len(c.fleet), Epoch: sn.epoch}
	now := time.Now()
	for i, reps := range c.fleet {
		ss := ShardStatus{Shard: i, Lo: sn.bounds[i], Hi: sn.bounds[i+1]}
		for _, r := range reps {
			r.mu.Lock()
			rs := ReplicaStatus{
				Addr: r.addr, State: r.state.String(),
				Epoch: r.epoch, Steps: r.steps, LastHeartbeatMS: -1,
			}
			if !r.lastBeat.IsZero() {
				rs.LastHeartbeatMS = now.Sub(r.lastBeat).Milliseconds()
			}
			switch r.state {
			case Healthy:
				fs.Healthy++
			case Suspect:
				fs.Suspect++
			case Dead:
				fs.Dead++
			}
			r.mu.Unlock()
			ss.Replicas = append(ss.Replicas, rs)
		}
		fs.Fleet = append(fs.Fleet, ss)
	}
	return fs
}

// heartbeatLoop probes every replica each period until Shutdown.
func (c *Coordinator) heartbeatLoop() {
	defer close(c.doneCh)
	defer func() {
		if v := recover(); v != nil {
			c.logf("shard: heartbeat loop panic: %v", v)
		}
	}()
	t := time.NewTicker(c.opt.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
			c.HeartbeatNow(context.Background())
		}
	}
}

// HeartbeatNow probes every replica once, applying health transitions and
// pushing epoch syncs to lagging-but-alive workers (that is how a
// restarted worker rejoins: its first heartbeat succeeds, its stale epoch
// is noticed, and a sync catches it up before any round lands on it).
func (c *Coordinator) HeartbeatNow(ctx context.Context) {
	sn := c.snap.Load()
	var wg sync.WaitGroup
	for shard, reps := range c.fleet {
		for _, r := range reps {
			wg.Add(1)
			go func(shard int, r *replica) {
				defer wg.Done()
				defer func() {
					if v := recover(); v != nil {
						c.logf("shard: heartbeat panic for %s: %v", r.addr, v)
					}
				}()
				c.heartbeatOne(ctx, sn, shard, r)
			}(shard, r)
		}
	}
	//lint:chanwait bounded: each probe goroutine is bounded by HeartbeatTimeout
	wg.Wait()
}

func (c *Coordinator) heartbeatOne(ctx context.Context, sn *coordSnap, shard int, r *replica) {
	c.heartbeats.Inc()
	hctx, cancel := context.WithTimeout(ctx, c.opt.HeartbeatTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(hctx, http.MethodGet, r.addr+PathHealth, nil)
	if err != nil {
		c.markFailure(shard, r, err)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.markFailure(shard, r, err)
		return
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&h); err != nil {
		c.markFailure(shard, r, fmt.Errorf("heartbeat decode: %w", err))
		return
	}
	if h.Shard != shard || h.Shards != len(c.fleet) {
		// A worker launched with wrong partition arguments must never be
		// routed to; treat it as persistently failing.
		c.markFailure(shard, r, fmt.Errorf("worker identifies as shard %d/%d, coordinator expects %d/%d",
			h.Shard, h.Shards, shard, len(c.fleet)))
		return
	}
	if h.Draining {
		c.markFailure(shard, r, fmt.Errorf("worker draining"))
		return
	}
	r.mu.Lock()
	r.epoch = h.Epoch
	r.lastBeat = time.Now()
	r.steps = h.Steps
	r.mu.Unlock()
	c.markSuccess(shard, r)
	if h.Epoch != sn.epoch {
		if err := c.syncReplica(ctx, sn, shard, r); err != nil {
			c.logf("shard %d replica %s: background sync failed: %v", shard, r.addr, err)
		}
	}
}

// syncReplica pushes the coordinator's current snapshot to one worker
// (epoch catch-up).
func (c *Coordinator) syncReplica(ctx context.Context, sn *coordSnap, shard int, r *replica) error {
	var buf bytes.Buffer
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], sn.epoch)
	buf.Write(hdr[:])
	if err := graph.WriteBinary(&buf, sn.g); err != nil {
		return fmt.Errorf("encoding sync snapshot: %w", err)
	}
	sctx, cancel := context.WithTimeout(ctx, c.opt.StepTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodPost, r.addr+PathSync, bytes.NewReader(buf.Bytes()))
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
	r.mu.Lock()
	r.epoch = sn.epoch
	r.mu.Unlock()
	c.logf("shard %d replica %s: synced to epoch %d", shard, r.addr, sn.epoch)
	return nil
}

// Shutdown stops the heartbeat loop and notifies every replica to drain,
// so workers finish in-flight supersteps and refuse new ones while the
// serving tier's grace period runs. Best-effort per replica, bounded by
// ctx.
func (c *Coordinator) Shutdown(ctx context.Context) {
	c.stopOnce.Do(func() { close(c.stopCh) })
	//lint:chanwait bounded: heartbeatLoop exits on the just-closed stopCh
	<-c.doneCh
	var wg sync.WaitGroup
	for shard, reps := range c.fleet {
		for _, r := range reps {
			wg.Add(1)
			go func(shard int, r *replica) {
				defer wg.Done()
				defer func() {
					if v := recover(); v != nil {
						c.logf("shard: drain panic for %s: %v", r.addr, v)
					}
				}()
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.addr+PathDrain, nil)
				if err != nil {
					return
				}
				resp, err := c.client.Do(req)
				if err != nil {
					c.logf("shard %d replica %s: drain notify failed: %v", shard, r.addr, err)
					return
				}
				resp.Body.Close()
			}(shard, r)
		}
	}
	//lint:chanwait bounded: each drain notify is bounded by the caller's ctx
	wg.Wait()
}

// callStep runs one round RPC against one shard with the full containment
// ladder: fault injection, per-RPC deadline, failure classification,
// capped exponential backoff, replica failover in health-preference
// order, and epoch-mismatch sync. A reply that fails checkReply (ids are
// the whole-graph cluster ids, needed by RoundMembers only) counts as that
// replica's failure. Exhaustion returns a ShardUnavailableError wrapping
// the last leaf failure.
func (c *Coordinator) callStep(ctx context.Context, sn *coordSnap, shard int, req *StepRequest, ids []int32, qBytes *atomic.Int64) (*StepResponse, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(req); err != nil {
		return nil, fmt.Errorf("shard: encoding %s round: %w", req.Round, err)
	}
	backoff := c.opt.RetryBackoff
	var last error
	attempts := 0
	for attempts < c.opt.MaxAttempts {
		reps := c.ordered(shard)
		for ri, r := range reps {
			if attempts >= c.opt.MaxAttempts {
				break
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			attempts++
			if attempts > 1 {
				c.retriesC.Inc()
				fault.NoteRetry()
				if ri > 0 {
					c.failovers.Inc()
				}
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
				backoff *= 2
				if backoff > c.opt.MaxRetryBackoff {
					backoff = c.opt.MaxRetryBackoff
				}
			}
			resp, err := c.attempt(ctx, shard, r, req.Round, body.Bytes(), qBytes)
			if err == nil {
				if cerr := checkReply(sn, shard, req, ids, resp); cerr != nil {
					c.rejectedC.Inc()
					err = &ShardRejectedError{Shard: shard, Addr: r.addr, Round: req.Round,
						Status: http.StatusOK, Kind: rejectBadResponse, Msg: cerr.Error()}
				}
			}
			if err == nil {
				c.markSuccess(shard, r)
				return resp, nil
			}
			last = err
			var rej *ShardRejectedError
			if errors.As(err, &rej) && rej.Kind == rejectEpoch {
				// The worker is alive on a stale epoch: catch it up and
				// let the loop retry. The sync failing falls through to
				// normal failure accounting.
				if serr := c.syncReplica(ctx, sn, shard, r); serr == nil {
					continue
				}
			}
			c.markFailure(shard, r, err)
		}
	}
	c.unavailable.Inc()
	return nil, &ShardUnavailableError{Shard: shard, Round: req.Round, Attempts: attempts, Err: last}
}

// attempt performs exactly one RPC and classifies its failure.
func (c *Coordinator) attempt(ctx context.Context, shard int, r *replica, round string, body []byte, qBytes *atomic.Int64) (*StepResponse, error) {
	if err := fault.Inject(fault.ShardRPC); err != nil {
		c.crashes.Inc()
		return nil, &ShardCrashError{Shard: shard, Addr: r.addr, Round: round, Err: err}
	}
	c.rpcs.Inc()
	start := time.Now()
	defer func() { c.rpcNs.Add(int64(time.Since(start))) }()
	actx, cancel := context.WithTimeout(ctx, c.opt.StepTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, r.addr+PathStep, bytes.NewReader(body))
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
			return nil, &ShardTimeoutError{Shard: shard, Addr: r.addr, Round: round, Timeout: c.opt.StepTimeout}
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		c.crashes.Inc()
		return nil, &ShardCrashError{Shard: shard, Addr: r.addr, Round: round, Err: err}
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
			Shard: shard, Addr: r.addr, Round: round,
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
			Shard: shard, Addr: r.addr, Round: round, Status: resp.StatusCode,
			Kind: rejectOversize,
			Msg:  fmt.Sprintf("response body exceeds %d bytes", c.maxRespBytes),
		}
	}
	if err != nil {
		// A connection severed mid-response body (worker died while
		// writing) surfaces here, after the 200 header.
		if actx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			c.timeouts.Inc()
			return nil, &ShardTimeoutError{Shard: shard, Addr: r.addr, Round: round, Timeout: c.opt.StepTimeout}
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		c.crashes.Inc()
		return nil, &ShardCrashError{Shard: shard, Addr: r.addr, Round: round, Err: err}
	}
	c.commBytes.Add(counted.n)
	qBytes.Add(counted.n)
	if sr.Shard != shard || sr.Round != round {
		c.rejectedC.Inc()
		return nil, &ShardRejectedError{
			Shard: shard, Addr: r.addr, Round: round, Status: resp.StatusCode,
			Kind: rejectWrongShard,
			Msg:  fmt.Sprintf("response names shard %d round %q", sr.Shard, sr.Round),
		}
	}
	return &sr, nil
}

// checkReply vets a decoded reply against the round it answers before any
// of it is used. A worker's output indexes the coordinator's arrays and
// becomes the answer, so a buggy or hostile replica must cost a failover,
// never a panic or a wrong clustering.
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
// round after retries and failover fails the query with a typed
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
	p := len(c.fleet)
	qid := c.queryID.Add(1)
	base := StepRequest{QueryID: qid, Epoch: sn.epoch, Eps: th.Eps.String(), Mu: th.Mu}
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
				resps[s], errs[s] = c.callStep(ctx, sn, s, mk(s), coreClusterID, &qBytes)
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
