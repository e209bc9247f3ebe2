package shard

import (
	"context"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"ppscan/graph"
	"ppscan/internal/fault"
	"ppscan/internal/intersect"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
	"ppscan/internal/sched"
	"ppscan/internal/simdef"
)

// DefaultStateCache is how many per-query similarity states a worker keeps
// resident (see WorkerOptions.StateCache). Each costs O(m/p) memory; the
// coordinator touches one per in-flight query, so a handful suffices.
const DefaultStateCache = 4

// DefaultMaxBodyBytes bounds a step request body. Round inputs are O(n)
// (roles) plus O(boundary) (inbox); 1 GiB is far above any graph this tier
// serves while still refusing a decompression-bomb-shaped request before
// it allocates.
const DefaultMaxBodyBytes = 1 << 30

// WorkerOptions configures a shard worker.
type WorkerOptions struct {
	// Shard is this worker's partition id in [0, Shards).
	Shard int
	// Shards is the fleet's partition count; the vertex-range bounds are
	// Partition(g, Shards), identical on coordinator and workers.
	Shards int
	// Workers bounds intra-process parallelism for the similarity pass;
	// < 1 defaults to GOMAXPROCS.
	Workers int
	// Kernel selects the set-intersection kernel (default MergeEarly).
	Kernel intersect.Kind
	// StateCache bounds resident per-query similarity states; < 1
	// defaults to DefaultStateCache.
	StateCache int
	// MaxBodyBytes bounds one request body; < 1 defaults to
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Registry receives the shard.worker.* metrics. nil means a private
	// registry (surfaced only through Health).
	Registry *obsv.Registry
	// CrashHook runs when an injected ShardCrash error-action fires
	// mid-superstep. cmd/scanshard hard-exits the process; the default
	// panics, which net/http converts into a severed connection — either
	// way the coordinator observes a crash, not an error response.
	CrashHook func()
}

// snapState is one worker serving generation: an immutable snapshot, the
// epoch it represents, and the partition bounds derived from it. Published
// as a single atomic pointer swap (PathSync), so a step request observes
// one consistent generation.
type snapState struct {
	g      *graph.Graph
	epoch  uint64
	bounds []int32
	lo, hi int32
}

// Partition returns p+1 boundaries splitting [0, n) into contiguous ranges
// with roughly equal degree sums. Coordinator and workers both derive
// their bounds from it, so they always agree on range ownership for a
// given (graph, p).
func Partition(g *graph.Graph, p int) []int32 {
	n := g.NumVertices()
	bounds := make([]int32, p+1)
	total := g.NumDirectedEdges() + int64(n) // +1 per vertex so empty graphs split too
	target := total / int64(p)
	w := 1
	var acc int64
	for u := int32(0); u < n && w < p; u++ {
		acc += int64(g.Degree(u)) + 1
		if acc >= target*int64(w) {
			bounds[w] = u + 1
			w++
		}
	}
	for ; w < p; w++ {
		bounds[w] = n
	}
	bounds[p] = n
	return bounds
}

// stateKey identifies one deterministic similarity state. QueryID is
// deliberately absent: for a fixed (epoch, eps, mu) every intermediate is
// deterministic, so two queries with equal parameters share state — the
// worker-side analogue of the server's response cache.
type stateKey struct {
	epoch uint64
	eps   string
	mu    int32
}

// queryState caches the shard-local similarity pass for one stateKey. sim
// holds the owned directed-edge range [Off[lo], Off[hi)) rebased to 0;
// outbox holds the mirror messages for other shards. ready flips once the
// local pass completed; a pass cut short — a contained panic, or the step
// request's context ending — leaves ready false so the next request
// recomputes instead of serving torn state.
type queryState struct {
	mu     sync.Mutex
	ready  bool
	sim    []simdef.EdgeSim
	outbox []SimMsg
}

// Worker owns one vertex-range partition and serves superstep rounds.
// Construct with NewWorker, mount Handler on an HTTP server, and point a
// Coordinator at it.
type Worker struct {
	opt  WorkerOptions
	snap atomic.Pointer[snapState]

	draining atomic.Bool
	stepsN   atomic.Int64

	mu     sync.Mutex
	states map[stateKey]*queryState
	order  []stateKey // FIFO eviction order

	steps, hits, misses, syncs *obsv.Counter
}

// NewWorker creates a worker owning shard opt.Shard of opt.Shards over g
// at epoch g.Epoch().
func NewWorker(g *graph.Graph, opt WorkerOptions) (*Worker, error) {
	if opt.Shards < 1 {
		return nil, fmt.Errorf("shard: worker needs a positive shard count, got %d", opt.Shards)
	}
	if opt.Shard < 0 || opt.Shard >= opt.Shards {
		return nil, fmt.Errorf("shard: worker shard id %d out of range [0, %d)", opt.Shard, opt.Shards)
	}
	if opt.Workers < 1 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.StateCache < 1 {
		opt.StateCache = DefaultStateCache
	}
	if opt.MaxBodyBytes < 1 {
		opt.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if opt.Registry == nil {
		opt.Registry = obsv.New()
	}
	if opt.CrashHook == nil {
		opt.CrashHook = func() {
			panic("shard: injected worker crash (ShardCrash)")
		}
	}
	w := &Worker{
		opt:    opt,
		states: make(map[stateKey]*queryState),
		steps:  opt.Registry.Counter(obsv.MetricShardWorkerSteps),
		hits:   opt.Registry.Counter(obsv.MetricShardWorkerStateHits),
		misses: opt.Registry.Counter(obsv.MetricShardWorkerStateMisses),
		syncs:  opt.Registry.Counter(obsv.MetricShardWorkerSyncs),
	}
	w.install(g, g.Epoch())
	return w, nil
}

// install publishes a new serving generation and drops cached states from
// other epochs (they can never be requested again — the coordinator only
// asks for its current epoch).
func (w *Worker) install(g *graph.Graph, epoch uint64) {
	bounds := Partition(g, w.opt.Shards)
	w.snap.Store(&snapState{
		g: g, epoch: epoch, bounds: bounds,
		lo: bounds[w.opt.Shard], hi: bounds[w.opt.Shard+1],
	})
	w.mu.Lock()
	defer w.mu.Unlock()
	keep := w.order[:0]
	for _, k := range w.order {
		if k.epoch == epoch {
			keep = append(keep, k)
		} else {
			delete(w.states, k)
		}
	}
	w.order = keep
}

// Epoch returns the epoch of the published snapshot.
func (w *Worker) Epoch() uint64 { return w.snap.Load().epoch }

// SetDraining flips the drain flag: health answers 503 and new step
// rounds are rejected, while rounds already executing finish normally.
func (w *Worker) SetDraining(v bool) { w.draining.Store(v) }

// Handler returns the worker's HTTP surface (PathStep, PathHealth,
// PathSync, PathDrain).
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathStep, w.handleStep)
	mux.HandleFunc(PathHealth, w.handleHealth)
	mux.HandleFunc(PathSync, w.handleSync)
	mux.HandleFunc(PathDrain, w.handleDrain)
	return mux
}

// Health reports the worker's heartbeat body.
func (w *Worker) Health() Health {
	sn := w.snap.Load()
	return Health{
		Shard:    w.opt.Shard,
		Shards:   w.opt.Shards,
		Epoch:    sn.epoch,
		Draining: w.draining.Load(),
		Lo:       sn.lo,
		Hi:       sn.hi,
		Steps:    w.stepsN.Load(),
	}
}

func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	h := w.Health()
	status := http.StatusOK
	if h.Draining {
		status = http.StatusServiceUnavailable
	}
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(h)
}

func (w *Worker) handleDrain(rw http.ResponseWriter, r *http.Request) {
	w.SetDraining(true)
	rw.WriteHeader(http.StatusOK)
}

// handleSync accepts an epoch catch-up snapshot: 8 bytes of big-endian
// epoch followed by the graph.WriteBinary payload. The new generation is
// published atomically; in-flight rounds keep their already-loaded
// snapshot pointer (coherent, merely superseded) and the coordinator
// re-asks at the new epoch.
func (w *Worker) handleSync(rw http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(rw, r.Body, w.opt.MaxBodyBytes)
	var hdr [8]byte
	if _, err := io.ReadFull(body, hdr[:]); err != nil {
		reject(rw, http.StatusBadRequest, rejectBadRequest, fmt.Errorf("sync header: %w", err), 0)
		return
	}
	epoch := binary.BigEndian.Uint64(hdr[:])
	g, err := graph.ReadBinary(body)
	if err != nil {
		reject(rw, http.StatusBadRequest, rejectBadRequest, fmt.Errorf("sync snapshot: %w", err), 0)
		return
	}
	w.install(g, epoch)
	w.syncs.Inc()
	rw.WriteHeader(http.StatusOK)
}

// reject writes the worker's structured refusal body.
func reject(rw http.ResponseWriter, status int, kind string, err error, epoch uint64) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(rejection{Error: err.Error(), Kind: kind, Epoch: epoch})
}

// handleStep serves one superstep round. The deferred recover is the
// worker-side containment barrier: a panic anywhere in the round (an
// injected ShardCrash panic-action, a bug in the compute path) answers
// 500 with a structured body — or, when the panic severed the connection
// already, the coordinator classifies the transport error as a crash.
func (w *Worker) handleStep(rw http.ResponseWriter, r *http.Request) {
	wrote := false
	defer func() {
		if v := recover(); v != nil {
			if _, ok := v.(*fault.InjectedPanic); ok {
				// Injected crash-panics model process death: re-panic so
				// net/http severs the connection instead of answering.
				// ErrAbortHandler gets the same severing without net/http
				// logging a stack trace for an intentional fault.
				panic(http.ErrAbortHandler)
			}
			if !wrote {
				reject(rw, http.StatusInternalServerError, rejectInternalErr,
					fmt.Errorf("superstep panic: %v", v), 0)
			}
		}
	}()
	var req StepRequest
	dec := gob.NewDecoder(http.MaxBytesReader(rw, r.Body, w.opt.MaxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		reject(rw, http.StatusBadRequest, rejectBadRequest, fmt.Errorf("decoding step: %w", err), 0)
		return
	}
	if w.draining.Load() {
		reject(rw, http.StatusServiceUnavailable, rejectDraining,
			fmt.Errorf("worker draining, not accepting rounds"), 0)
		return
	}
	sn := w.snap.Load()
	if req.Epoch != sn.epoch {
		reject(rw, http.StatusConflict, rejectEpoch,
			fmt.Errorf("round targets epoch %d, worker holds %d", req.Epoch, sn.epoch), sn.epoch)
		return
	}
	// Injection points: a straggler superstep (ShardDelay sleeps here) and
	// abrupt worker death (ShardCrash error-action runs the crash hook;
	// its panic-action panics in Inject and unwinds into the recover
	// above, severing the connection).
	if err := fault.Inject(fault.ShardDelay); err != nil {
		reject(rw, http.StatusInternalServerError, rejectInjectedHalt, err, 0)
		return
	}
	if err := fault.Inject(fault.ShardCrash); err != nil {
		w.opt.CrashHook()
		reject(rw, http.StatusInternalServerError, rejectInjectedHalt, err, 0)
		return
	}
	resp, err := w.step(r.Context(), sn, &req)
	if err != nil {
		status, kind := http.StatusBadRequest, rejectBadRequest
		var wpe *result.WorkerPanicError
		if errors.As(err, &wpe) { // a contained sim-task panic: the worker's fault, not the request's
			status, kind = http.StatusInternalServerError, rejectInternalErr
		}
		reject(rw, status, kind, err, 0)
		return
	}
	w.stepsN.Add(1)
	w.steps.Inc()
	rw.Header().Set("Content-Type", "application/octet-stream")
	wrote = true
	_ = gob.NewEncoder(rw).Encode(resp)
}

// step executes one self-contained round against the generation sn; ctx
// (the step request's) bounds the similarity pass a state miss runs.
func (w *Worker) step(ctx context.Context, sn *snapState, req *StepRequest) (*StepResponse, error) {
	th, err := simdef.NewThreshold(req.Eps, req.Mu)
	if err != nil {
		return nil, fmt.Errorf("bad parameters: %w", err)
	}
	st, err := w.ensure(ctx, sn, req, th)
	if err != nil {
		return nil, err
	}
	resp := &StepResponse{Shard: w.opt.Shard, Round: req.Round}
	st.mu.Lock()
	defer st.mu.Unlock()
	// Re-applying an inbox on a retried round is idempotent: the same
	// offsets get the same values.
	if len(req.Inbox) > 0 {
		if err := applyInbox(sn, st, req.Inbox); err != nil {
			return nil, err
		}
	}
	switch req.Round {
	case RoundSim:
		resp.Outbox = st.outbox
	case RoundRoles:
		resp.Roles = make([]result.Role, sn.hi-sn.lo)
		for u := sn.lo; u < sn.hi; u++ {
			resp.Roles[u-sn.lo] = result.ArcRole(sn.g, sn.lo, st.sim, u, th.Mu)
		}
	case RoundCluster:
		if err := checkRoles(req.Roles, sn.g.NumVertices()); err != nil {
			return nil, fmt.Errorf("cluster %w", err)
		}
		resp.UnionEdges = result.AppendCoreEdges(nil, sn.g, sn.lo, sn.hi, st.sim, req.Roles)
	case RoundMembers:
		if err := checkRoles(req.Roles, sn.g.NumVertices()); err != nil {
			return nil, fmt.Errorf("members %w", err)
		}
		if int32(len(req.CoreClusterID)) != sn.hi-sn.lo {
			return nil, fmt.Errorf("members round needs %d cluster ids, got %d", sn.hi-sn.lo, len(req.CoreClusterID))
		}
		resp.Members = result.AppendNonCore(nil, sn.g, sn.lo, sn.hi, st.sim, req.Roles, req.CoreClusterID)
	default:
		return nil, fmt.Errorf("unknown round %q", req.Round)
	}
	return resp, nil
}

// ensure returns the similarity state for the request's (epoch, eps, mu),
// computing the shard-local pass if the cache misses — which is exactly
// how a restarted worker catches up mid-query: the pass is deterministic,
// so recomputing it yields bit-identical state.
func (w *Worker) ensure(ctx context.Context, sn *snapState, req *StepRequest, th simdef.Threshold) (*queryState, error) {
	key := stateKey{epoch: req.Epoch, eps: th.Eps.String(), mu: req.Mu}
	w.mu.Lock()
	st, ok := w.states[key]
	if !ok {
		st = &queryState{}
		w.states[key] = st
		w.order = append(w.order, key)
		for len(w.order) > w.opt.StateCache {
			delete(w.states, w.order[0])
			w.order = w.order[1:]
		}
	}
	w.mu.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.ready {
		w.hits.Inc()
		return st, nil
	}
	w.misses.Inc()
	if err := w.computeLocal(ctx, sn, st, th); err != nil {
		return nil, err
	}
	st.ready = true
	return st, nil
}

// computeLocal runs the shard-local similarity pass: every undirected edge
// whose smaller endpoint u is owned gets its value computed once, mirrored
// locally when the larger endpoint is owned too. One Algorithm 5 phase over
// the owned range: tasks own disjoint tails, so all sim writes are
// disjoint. The mirrors other shards need are then read off the labelled
// range into the outbox. When ctx ends the pass stops within one task and
// returns ctx.Err().
func (w *Worker) computeLocal(ctx context.Context, sn *snapState, st *queryState, th simdef.Threshold) error {
	g := sn.g
	base := g.Off[sn.lo]
	st.sim = make([]simdef.EdgeSim, g.Off[sn.hi]-base)
	err := sched.ForEachVertexCtx(ctx,
		sched.Options{Workers: w.opt.Workers, Phase: "shard " + RoundSim},
		sn.hi-sn.lo, nil,
		func(i int32) int32 { return g.Degree(sn.lo + i) },
		func(i int32, _ int) {
			result.LabelArcs(g, sn.lo, sn.hi, st.sim, sn.lo+i, true, true, w.opt.Kernel, th.Eps)
		})
	if err != nil {
		return err
	}
	st.outbox = st.outbox[:0]
	for u := sn.lo; u < sn.hi; u++ {
		for i, v := range g.Neighbors(u) {
			if v >= sn.hi {
				st.outbox = append(st.outbox, SimMsg{V: v, U: u, Val: st.sim[g.Off[u]-base+int64(i)]})
			}
		}
	}
	return nil
}

// applyInbox writes mirror similarities addressed to this shard. Messages
// outside the owned range, naming absent edges or carrying a label other
// than Sim / NSim are protocol errors.
func applyInbox(sn *snapState, st *queryState, inbox []SimMsg) error {
	g := sn.g
	for _, m := range inbox {
		if m.V < sn.lo || m.V >= sn.hi {
			return fmt.Errorf("inbox message for vertex %d outside owned range [%d, %d)", m.V, sn.lo, sn.hi)
		}
		e := g.EdgeOffset(m.V, m.U)
		if e < 0 {
			return fmt.Errorf("inbox message for absent edge (%d, %d)", m.V, m.U)
		}
		if m.Val != simdef.Sim && m.Val != simdef.NSim {
			return fmt.Errorf("inbox message for edge (%d, %d) carries label %v", m.V, m.U, m.Val)
		}
		st.sim[e-g.Off[sn.lo]] = m.Val
	}
	return nil
}

// checkRoles refuses a role list that is not one Core / NonCore per vertex.
func checkRoles(roles []result.Role, n int32) error {
	if int32(len(roles)) != n {
		return fmt.Errorf("round needs %d roles, got %d", n, len(roles))
	}
	for v, r := range roles {
		if r != result.RoleCore && r != result.RoleNonCore {
			return fmt.Errorf("vertex %d has role %v", v, r)
		}
	}
	return nil
}
