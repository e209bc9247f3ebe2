// Package core implements ppSCAN, the paper's primary contribution: a
// multi-phase, lock-free parallelization of pruning-based structural graph
// clustering (Algorithms 3 and 4), scheduled with degree-based dynamic
// tasks (Algorithm 5). Similarity is computed by the vector block-merge
// kernel (intersect.BlockMerge), which beats the paper's pivot-based
// kernel (Algorithm 6, intersect.PivotBlock16 — still selectable by name)
// on every measured pair; see DESIGN.md.
//
// The computation runs in seven phases with barriers between them:
//
//	Role computing (Algorithm 3)
//	  P1 PruneSim         — similarity-predicate pruning, role init
//	  P2 CheckCore        — min-max pruning with the u < v constraint
//	  P3 ConsolidateCore  — same logic without the constraint
//	Core and non-core clustering (Algorithm 4)
//	  P4 ClusterCore without CompSim — unions over already-known Sim edges
//	  P5 ClusterCore with CompSim    — unions needing new intersections
//	  P6 InitClusterID               — CAS minimum-core-id per set
//	  P7 ClusterNonCore              — batched membership emission
//
// Shared mutable state across threads is confined to: the per-arc words
// (a 2-bit similarity label beside the reverse arc's position), the
// wait-free union-find, the CAS'd cluster-id array, and the batch-flushed
// membership list. Per Theorem 4.1 each edge's similarity is computed at
// most once; the u < v constraints make each edge's writer unique within
// every phase, so the atomics carry no retry loops — the design is
// lock-free end to end — and a store is fenced only where two tasks can
// meet at one word (DESIGN.md §3a).
//
// The per-vertex bodies of P1–P5 and P7 are methods of Range, a walk over
// one vertex range with the arc words of that range: Run's is [0, n), a
// fleet worker's (internal/shard) its partition.
//
// # Workspace pooling
//
// All O(n+m) scratch (roles, arc words, union-find, cluster ids,
// per-worker stat blocks, membership batches) and the scheduler's worker
// goroutines live in an engine.Workspace. Run acquires them from
// the workspace and leaves them there grown for the next run, so a warm
// run on a previously-seen graph size performs near-zero heap allocations
// — the property the serving stack's steady state depends on. A nil
// workspace is the allocate-per-run convenience: Run then uses a transient
// one.
package core

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"ppscan/graph"
	"ppscan/internal/engine"
	"ppscan/internal/intersect"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
	"ppscan/internal/sched"
	"ppscan/internal/simdef"
)

// nonCoreBatch is the non-core clustering batch size: pairs a worker
// buffers before one flush into the shared list (P7). A package value, not
// an option: only this package's tests vary it.
var nonCoreBatch = 1024

func init() {
	engine.Register(engine.Engine{Name: "ppscan", Kernel: intersect.BlockMerge, Checkpoints: true, Run: Run})
	// The kernel ablation: the same phases on pSCAN's scalar merge kernel.
	engine.Register(engine.Engine{Name: "ppscan-no", Label: "ppSCAN-NO", Kernel: intersect.MergeEarly, Checkpoints: true, Run: Run})
}

// scratchKey parks the pooled ppSCAN state in an engine.Workspace.
const scratchKey = "core"

// Run executes ppSCAN on g with threshold th under ctx, with opt.Kernel the
// resolved intersection kernel (ppSCAN defaults to BlockMerge, Figure 5's
// Algorithm 6 row selects PivotBlock16 by name; ppSCAN-NO is ppSCAN on
// pSCAN's MergeEarly).
// opt.Workers < 1 means GOMAXPROCS, opt.DegreeThreshold < 1 Algorithm 5's
// default (32768). Every run fills result.Stats, kernel telemetry
// included; a non-nil opt.Tracer also records the phase and task spans.
//
// The run checks for cancellation at every phase barrier and — through the
// degree-based scheduler — between task batches inside each phase, so a
// cancelled run aborts within roughly one scheduler task of work per
// worker, returning a *result.PartialError carrying the statistics
// accumulated so far (unwrapping to ctx.Err()) and a nil result.
//
// Every scratch buffer and the scheduler crew come from ws and stay there
// for the next run. A nil ws falls back to a transient workspace (closed
// on return).
//
// Aliasing rule: the returned Result's Roles, CoreClusterID and NonCore
// slices alias workspace memory and are valid only until the next run on
// ws; clone the result (Result.Clone) to retain it longer. The workspace
// must not be used concurrently by another run.
func Run(ctx context.Context, g *graph.Graph, th simdef.Threshold, opt engine.Options, ws *engine.Workspace) (*result.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ws == nil {
		ws = engine.NewWorkspace()
		defer ws.Close()
	}
	if opt.Workers < 1 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.DegreeThreshold < 1 {
		opt.DegreeThreshold = sched.DefaultDegreeThreshold
	}
	s := ws.Scratch(scratchKey, newCoreState).(*state)
	s.reset(ctx, g, th, opt, ws)
	defer s.endRun()
	if err := s.loadArcs(); err != nil {
		return nil, err
	}
	if ctx.Done() != nil {
		release := context.AfterFunc(ctx, s.fnSetStop)
		defer release()
	}
	if s.tr != nil {
		// Idempotent on a pooled tracer: after its first run these build no
		// strings and record no events (names live in tracer fields until
		// export), keeping traced serving inside the allocation budget.
		s.tr.SetProcessName("ppscan")
		s.tr.SetThreadName(0, "coordinator")
		s.tr.NameWorkers(opt.Workers)
	}
	n := g.NumVertices()

	// --- Step 1: role computing (Algorithm 3) ---------------------------
	t0 := time.Now()
	err := s.forEach("P1 prune-sim", s.fnTrue, s.fnPruneSim)
	s.phaseTimes[result.PhasePruning] = time.Since(t0)
	if err != nil {
		return s.abortFault("P1 prune-sim", err)
	}
	if ctx.Err() != nil {
		return s.abort("P1 prune-sim")
	}

	t0 = time.Now()
	s.phase = result.PhaseCheckCore
	err = s.forEach("P2 check-core", s.fnRoleUnknown, s.fnCheckCore)
	if err != nil {
		s.phaseTimes[result.PhaseCheckCore] = time.Since(t0)
		return s.abortFault("P2 check-core", err)
	}
	if ctx.Err() != nil {
		s.phaseTimes[result.PhaseCheckCore] = time.Since(t0)
		return s.abort("P2 check-core")
	}
	err = s.forEach("P3 consolidate-core", s.fnRoleUnknown, s.fnConsolidate)
	s.phaseTimes[result.PhaseCheckCore] = time.Since(t0)
	if err != nil {
		return s.abortFault("P3 consolidate-core", err)
	}
	if ctx.Err() != nil {
		return s.abort("P3 consolidate-core")
	}

	// --- Step 2: core and non-core clustering (Algorithm 4) -------------
	t0 = time.Now()
	s.phase = result.PhaseClusterCore
	err = s.forEach("P4 cluster-core", s.fnIsCore, s.fnClusterNoCS)
	if err != nil {
		s.phaseTimes[result.PhaseClusterCore] = time.Since(t0)
		return s.abortFault("P4 cluster-core", err)
	}
	if ctx.Err() != nil {
		s.phaseTimes[result.PhaseClusterCore] = time.Since(t0)
		return s.abort("P4 cluster-core")
	}
	err = s.forEach("P5 cluster-core-compsim", s.fnIsCore, s.fnClusterCS)
	if err != nil {
		s.phaseTimes[result.PhaseClusterCore] = time.Since(t0)
		return s.abortFault("P5 cluster-core-compsim", err)
	}
	if ctx.Err() != nil {
		s.phaseTimes[result.PhaseClusterCore] = time.Since(t0)
		return s.abort("P5 cluster-core-compsim")
	}
	// P6: cluster-id initialization with CAS (Algorithm 4, InitClusterId).
	s.clusterID = ws.ClusterIDs(int(n))
	err = s.forEach("P6 init-cluster-id", s.fnIsCore, s.fnInitCID)
	s.phaseTimes[result.PhaseClusterCore] = time.Since(t0)
	if err != nil {
		return s.abortFault("P6 init-cluster-id", err)
	}
	if ctx.Err() != nil {
		return s.abort("P6 init-cluster-id")
	}

	// Materialize per-core cluster ids (read-only from here on). The
	// aliasing rule between the two id arrays: clusterID is root-indexed
	// and CAS-written during P6, coreClusterID is its vertex-indexed
	// projection — this loop reads the former while writing the latter, so
	// the workspace guarantees they never share a backing array (they were
	// separate allocations before pooling for the same reason; see
	// Workspace.CoreClusterIDs).
	coreClusterID := ws.CoreClusterIDs(int(n)) // pre-filled with -1
	for u := int32(0); u < n; u++ {
		if s.roles[u] == result.RoleCore {
			//lint:atomicok clusterID is read-only here: P6's CAS phase completed behind the forEach barrier
			coreClusterID[u] = s.clusterID[s.uf.Find(u)]
		}
	}
	s.ids = coreClusterID

	t0 = time.Now()
	s.phase = result.PhaseClusterNonCore
	nonCore, err := s.clusterNonCore()
	s.phaseTimes[result.PhaseClusterNonCore] = time.Since(t0)
	if err != nil {
		return s.abortFault("P7 cluster-non-core", err)
	}
	if ctx.Err() != nil {
		return s.abort("P7 cluster-non-core")
	}

	// The one budgeted per-run result allocation (TestServingAllocBudget).
	res := &result.Result{
		Eps:           th.Eps.String(),
		Mu:            th.Mu,
		Roles:         s.roles,
		CoreClusterID: coreClusterID,
		NonCore:       nonCore,
	}
	res.Normalize()
	res.Stats = s.stats()
	return res, nil
}

// stats folds the per-worker instrumentation blocks into the run's one
// record, complete or partial.
func (s *state) stats() result.Stats {
	calls, byPhase, kern := s.fold()
	return result.Stats{
		Algorithm:      "ppSCAN",
		Workers:        s.opt.Workers,
		CompSimCalls:   calls,
		CompSimByPhase: byPhase,
		Kernel:         kern,
		PhaseTimes:     s.phaseTimes,
		Total:          time.Since(s.start),
	}
}

// abort wraps the partial Stats in a PartialError naming the phase that
// observed cancellation.
func (s *state) abort(phase string) (*result.Result, error) {
	return nil, &result.PartialError{Stats: s.stats(), Phase: phase, Err: context.Cause(s.ctx)}
}

// abortFault reports a phase that ended in a contained worker panic as a
// PartialError naming the phase, and poisons the workspace so the pool
// rebuilds it before any reuse. The barrier completed, so every worker is
// quiescent and the per-worker counters fold normally.
func (s *state) abortFault(phase string, err error) (*result.Result, error) {
	s.ws.Poison()
	return nil, &result.PartialError{Stats: s.stats(), Phase: phase, Err: err}
}

// workerState is one worker's private instrumentation block, sized and
// padded to whole cache lines so concurrent updates never share a line.
// CompSim calls are attributed to the stage active when they happen; kern
// is folded into the run aggregate after the last barrier.
type workerState struct {
	compSim [result.NumPhases]int64
	kern    intersect.Stats
	_       [2]int64
}

// state is the pooled per-workspace run state. One instance lives in each
// engine.Workspace under scratchKey and is re-pointed at fresh inputs by
// reset; the fn* fields are method values bound once at construction so
// the per-phase scheduling calls do not allocate closures per run.
type state struct {
	// Range is the whole graph [0, n): the roles, arc words, union-find,
	// per-worker stat blocks and P7 batches (all grow-only, reused across
	// runs), with the phase bodies Run shares with a fleet worker.
	Range
	// arcsID is the graph.ID the arc words were built for; 0 when none are.
	arcsID     uint64
	cursor     []int32 // buildArcs' scratch
	ctx        context.Context
	stop       atomic.Bool // set by context.AfterFunc on cancellation
	opt        engine.Options
	ws         *engine.Workspace
	clusterID  []int32 // per union-find root, CAS'd in P6
	tr         *obsv.Tracer
	start      time.Time
	phaseTimes [result.NumPhases]time.Duration

	// Method values and closures prebound at construction.
	fnTrue        func(int32) bool
	fnRoleUnknown func(int32) bool
	fnIsCore      func(int32) bool
	fnStop        func() bool
	fnSetStop     func()
	fnDegree      func(int32) int32
	fnPruneSim    func(int32, int)
	fnCheckCore   func(int32, int)
	fnConsolidate func(int32, int)
	fnClusterNoCS func(int32, int)
	fnClusterCS   func(int32, int)
	fnInitCID     func(int32, int)
	fnNonCore     func(int32, int)
}

// newCoreState builds a state with its method-value closures bound once.
//
// It is constructed once per workspace via Scratch; binding the closures
// here is what keeps the per-phase launches allocation-free.
func newCoreState() any {
	s := &state{}
	s.kernelOn = true // every Run fills Stats.Kernel; a fleet worker's Range leaves it off
	s.fnTrue = func(int32) bool { return true }
	s.fnRoleUnknown = s.roleUnknown
	s.fnIsCore = s.isCore
	s.fnStop = s.stop.Load
	s.fnSetStop = func() { s.stop.Store(true) }
	s.fnDegree = s.degree
	s.fnPruneSim = s.pruneSim
	s.fnCheckCore = s.checkCore
	s.fnConsolidate = s.consolidateCore
	s.fnClusterNoCS = s.clusterCoreWithoutCompSim
	s.fnClusterCS = s.clusterCoreWithCompSim
	s.fnInitCID = s.initClusterID
	s.fnNonCore = s.nonCoreVertex
	return s
}

// reset points the state at a new run's inputs, re-sourcing every scratch
// buffer from the workspace (each getter re-initializes its buffer, which
// is the no-stale-data guarantee between runs).
func (s *state) reset(ctx context.Context, g *graph.Graph, th simdef.Threshold, opt engine.Options, ws *engine.Workspace) {
	n := int(g.NumVertices())
	s.g, s.lo, s.hi, s.base, s.th, s.kernel = g, 0, int32(n), 0, th, opt.Kernel
	s.ctx, s.opt, s.ws = ctx, opt, ws
	s.start = time.Now()
	s.stop.Store(false)
	s.roles = ws.Roles(n)
	s.uf = ws.ConcurrentUF(int32(n))
	s.clusterID = nil
	s.ids = nil
	if cap(s.workers) < opt.Workers {
		s.workers = make([]workerState, opt.Workers)
	} else {
		s.workers = s.workers[:opt.Workers]
		for i := range s.workers {
			s.workers[i] = workerState{}
		}
	}
	s.phase = result.PhasePruning
	s.phaseTimes = [result.NumPhases]time.Duration{}
	if len(s.ncLocal) < opt.Workers {
		s.ncLocal = append(s.ncLocal, make([][]result.Membership, opt.Workers-len(s.ncLocal))...)
	}
	for w := range s.ncLocal {
		s.ncLocal[w] = s.ncLocal[w][:0]
	}
	s.collected = s.collected[:0]
	s.tr = opt.Tracer
}

// loadArcs points the arc words at s.g, rebuilding them unless they were
// last built for its graph.ID; ID 0 always rebuilds. The state keeps only
// the number, so an idle workspace pins no old graph, and an ID is never
// reused by another graph.
func (s *state) loadArcs() error {
	id, m, n := s.g.ID(), s.g.NumDirectedEdges(), s.g.NumVertices()
	if id != 0 && id == s.arcsID {
		return nil
	}
	s.arcsID = 0
	if int64(cap(s.arcs)) < m {
		s.arcs = make([]int32, m)
	}
	s.arcs = s.arcs[:m]
	if int32(cap(s.cursor)) < n {
		s.cursor = make([]int32, n)
	}
	if err := buildArcs(s.g, 0, n, s.arcs, s.cursor[:n]); err != nil {
		return err
	}
	s.arcsID = id
	return nil
}

// MemoryBytes is the arc words' share of the workspace's retained memory.
func (s *state) MemoryBytes() int64 {
	return int64(cap(s.arcs)+cap(s.cursor)) * 4
}

// endRun drops the per-run references so a pooled workspace does not pin
// the caller's graph or context between requests.
func (s *state) endRun() {
	s.ctx = nil
	s.g = nil
}

// forEach runs one parallel phase over all vertices satisfying need on the
// workspace's persistent crew, cut by Algorithm 5's degree-based dynamic
// scheduling (or into static blocks for the ablation). name labels the
// phase in the trace: the whole barrier-to-barrier interval becomes a span
// on the coordinator track, and each scheduler task a span named after the
// phase on its worker's track.
func (s *state) forEach(name string, need func(int32) bool, process func(u int32, worker int)) error {
	n := s.g.NumVertices()
	sp := s.tr.Begin(name, 0)
	defer sp.End()
	crew := s.ws.Crew(s.opt.Workers)
	opt := sched.Options{
		DegreeThreshold: s.opt.DegreeThreshold,
		Phase:           name,
		Tracer:          s.tr,
		TIDOffset:       1,
	}
	if s.opt.StaticScheduling {
		return crew.ForEachVertexStatic(opt, n, need, process, s.fnStop)
	}
	return crew.ForEachVertex(opt, n, need, s.fnDegree, process, s.fnStop)
}

// initClusterID is Algorithm 4 lines 17-23: CAS the minimum core id into
// the cluster-id slot of u's union-find root.
func (s *state) initClusterID(u int32, worker int) {
	ru := s.uf.Find(u)
	for {
		cur := atomic.LoadInt32(&s.clusterID[ru])
		if cur >= 0 && u >= cur {
			return
		}
		if atomic.CompareAndSwapInt32(&s.clusterID[ru], cur, u) {
			return
		}
	}
}

// clusterNonCore is Algorithm 4 lines 24-29 with the paper's batched
// design: workers emit (non-core, cluster-id) pairs into per-worker
// buffers, flushing each full batch into the shared list under a mutex so
// membership computation overlaps the copy-back. All buffers are pooled:
// the per-worker batches and the collected list keep their capacity across
// runs.
func (s *state) clusterNonCore() ([]result.Membership, error) {
	if err := s.forEach("P7 cluster-non-core", s.fnIsCore, s.fnNonCore); err != nil {
		return nil, err
	}
	for w := range s.ncLocal {
		s.flushNonCore(w)
	}
	return s.collected, nil
}
