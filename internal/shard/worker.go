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
	"ppscan/internal/core"
	"ppscan/internal/fault"
	"ppscan/internal/intersect"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
)

// DefaultStateCache is how many per-query states a worker keeps resident
// (see WorkerOptions.StateCache). Each costs O(m/p + n) memory; the
// coordinator touches one per in-flight query, so a handful suffices.
const DefaultStateCache = 4

// DefaultMaxBodyBytes bounds a step request body. Round inputs are O(n)
// (roles and cluster ids); 1 GiB is far above any graph this tier
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
	// Workers bounds intra-process parallelism for each round's phases;
	// < 1 defaults to GOMAXPROCS.
	Workers int
	// Kernel selects the set-intersection kernel. The zero value is
	// intersect.Merge; cmd/scanshard passes intersect.BlockMerge, ppSCAN's
	// default.
	Kernel intersect.Kind
	// StateCache bounds resident per-query states; < 1 defaults to
	// DefaultStateCache.
	StateCache int
	// MaxBodyBytes bounds one request body; < 1 defaults to
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Registry receives the shard.worker.* metrics. nil means a private
	// registry.
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

// stateKey identifies one query state. QueryID is deliberately absent: for
// a fixed (epoch, eps, mu) the roles are deterministic and every known arc
// label is exact, so two queries with equal parameters share state — the
// worker-side analogue of the server's response cache.
type stateKey struct {
	epoch uint64
	eps   string
	mu    int32
}

// queryState caches one stateKey's ppSCAN phases over the owned range:
// the arc labels of [Off[lo], Off[hi)), the roles and the local union-find
// live in r; roles are the owned range's, read-only once ready. ready
// flips once P1–P3 completed; a pass cut short — a contained panic, or the
// step request's context ending — leaves ready false so the next request
// recomputes instead of serving torn roles. Later rounds only add exact
// labels, so one cut short leaves nothing torn.
type queryState struct {
	mu    sync.Mutex
	ready bool
	r     *core.Range
	roles []result.Role
}

// Worker owns one vertex-range partition and serves superstep rounds.
// Construct with NewWorker, mount Handler on an HTTP server, and point a
// Coordinator at it.
type Worker struct {
	opt  WorkerOptions
	snap atomic.Pointer[snapState]

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

// Range returns the vertex range [lo, hi) the worker owns in the published
// snapshot.
func (w *Worker) Range() (lo, hi int32) {
	sn := w.snap.Load()
	return sn.lo, sn.hi
}

// Handler returns the worker's HTTP surface (PathStep, PathSync).
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathStep, w.handleStep)
	mux.HandleFunc(PathSync, w.handleSync)
	return mux
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
	if req.Shard != w.opt.Shard || req.Shards != w.opt.Shards {
		reject(rw, http.StatusBadRequest, rejectWrongShard, fmt.Errorf("round addressed to shard %d of %d, worker is shard %d of %d",
			req.Shard, req.Shards, w.opt.Shard, w.opt.Shards), 0)
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
		if errors.As(err, &wpe) { // a contained phase-task panic: the worker's fault, not the request's
			status, kind = http.StatusInternalServerError, rejectInternalErr
		}
		reject(rw, status, kind, err, 0)
		return
	}
	w.steps.Inc()
	rw.Header().Set("Content-Type", "application/octet-stream")
	wrote = true
	_ = gob.NewEncoder(rw).Encode(resp)
}

// step executes one self-contained round against the generation sn; ctx
// (the step request's) bounds the phases it runs. The request is checked
// whole before any of it is used.
func (w *Worker) step(ctx context.Context, sn *snapState, req *StepRequest) (*StepResponse, error) {
	th, err := simdef.NewThreshold(req.Eps, req.Mu)
	if err != nil {
		return nil, fmt.Errorf("bad parameters: %w", err)
	}
	switch req.Round {
	case RoundRoles:
	case RoundCluster, RoundMembers:
		if err := checkRoles(req.Roles, sn.g.NumVertices()); err != nil {
			return nil, fmt.Errorf("%s %w", req.Round, err)
		}
		if req.Round == RoundMembers {
			if err := checkIDs(req.CoreClusterID, req.Roles, sn.lo, sn.hi); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("unknown round %q", req.Round)
	}
	st := w.state(stateKey{epoch: req.Epoch, eps: th.Eps.String(), mu: req.Mu})
	st.mu.Lock()
	defer st.mu.Unlock()
	resp := &StepResponse{Shard: w.opt.Shard, Round: req.Round}
	if st.ready {
		w.hits.Inc()
	} else {
		// A miss is how a restarted worker catches up mid-query: the roles
		// are deterministic, so recomputing them yields the same answer.
		w.misses.Inc()
		if st.r == nil {
			if st.r, err = core.NewRange(sn.g, sn.lo, sn.hi, th, w.opt.Kernel, w.opt.Workers); err != nil {
				return nil, err
			}
		}
		roles, calls, err := st.r.Roles(ctx)
		if err != nil {
			return nil, err
		}
		st.roles, st.ready, resp.Calls = roles, true, calls
	}
	var calls int64
	switch req.Round {
	case RoundRoles:
		resp.Roles = st.roles
	case RoundCluster:
		resp.UnionEdges, calls, err = st.r.ClusterCores(ctx, req.Roles)
	case RoundMembers:
		resp.Members, calls, err = st.r.NonCore(ctx, req.Roles, req.CoreClusterID)
	}
	resp.Calls += calls
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// state returns the query state for key, creating it (and evicting the
// oldest beyond StateCache) on a miss.
func (w *Worker) state(key stateKey) *queryState {
	w.mu.Lock()
	defer w.mu.Unlock()
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
	return st
}

// checkIDs refuses cluster ids that cannot be P6's: each core u of [lo, hi)
// must carry the id of a core c <= u — its cluster's minimum — and an owned
// c must carry its own id.
func checkIDs(ids []int32, roles []result.Role, lo, hi int32) error {
	if int32(len(ids)) != hi-lo {
		return fmt.Errorf("members round needs %d cluster ids, got %d", hi-lo, len(ids))
	}
	for i, c := range ids {
		u := lo + int32(i)
		if roles[u] != result.RoleCore {
			continue
		}
		if c < 0 || c > u || roles[c] != result.RoleCore || (c >= lo && ids[c-lo] != c) {
			return fmt.Errorf("core %d has cluster id %d", u, c)
		}
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
