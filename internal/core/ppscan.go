// Package core implements ppSCAN, the paper's primary contribution: a
// multi-phase, lock-free parallelization of pruning-based structural graph
// clustering (Algorithms 3 and 4), scheduled with degree-based dynamic
// tasks (Algorithm 5). Similarity is computed by the vector block-merge
// kernel (intersect.BlockMerge), which beats the paper's pivot-based
// kernel (Algorithm 6, intersect.PivotBlock16/PivotBlock8 — still
// selectable by name) on every measured pair; see DESIGN.md.
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
// Shared mutable state across threads is confined to: the per-edge
// similarity array (atomic int32), the wait-free union-find, the CAS'd
// cluster-id array, and the batch-flushed membership list. Per Theorem 4.1
// each edge's similarity is computed at most once; the u < v constraints
// make each edge's writer unique within every phase, so the atomics carry
// no retry loops — the design is lock-free end to end.
//
// # Workspace pooling
//
// All O(n+m) scratch (roles, similarity labels, union-find, cluster ids,
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
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ppscan/graph"
	"ppscan/internal/engine"
	"ppscan/internal/intersect"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
	"ppscan/internal/sched"
	"ppscan/internal/simdef"
	"ppscan/internal/unionfind"
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
// resolved intersection kernel (ppSCAN defaults to BlockMerge, the paper's
// figures select PivotBlock16 / PivotBlock8 by name; ppSCAN-NO uses
// MergeEarly).
// opt.Workers < 1 means GOMAXPROCS, opt.DegreeThreshold < 1 Algorithm 5's
// default (32768), a nil opt.Registry obsv.Default() — pass obsv.NewNop()
// to turn collection off entirely. opt.StallTimeout arms the phase
// watchdog (dynamic scheduling only): a phase in which no scheduler task
// completes for that long is abandoned with a result.PartialError wrapping
// result.ErrStalled and the workspace is fatally poisoned.
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
	if opt.Registry == nil {
		opt.Registry = obsv.Default()
	}
	s := ws.Scratch(scratchKey, newCoreState).(*state)
	s.reset(ctx, g, th, opt, ws)
	defer s.endRun()
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
	s.coreClusterID = coreClusterID

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
	// Fold the per-worker instrumentation blocks into one aggregate; both
	// result.Stats and the registry are read-outs of this single source.
	calls, byPhase, kern := s.fold()
	total := time.Since(s.start)
	if s.pub != nil {
		s.pub.publish(s.phaseTimes, calls, byPhase, &kern)
	}
	res.Stats = result.Stats{
		Algorithm:      "ppSCAN",
		Workers:        opt.Workers,
		CompSimCalls:   calls,
		CompSimByPhase: byPhase,
		Kernel:         kern,
		PhaseTimes:     s.phaseTimes,
		Total:          total,
	}
	return res, nil
}

// fold sums the per-worker instrumentation blocks into one aggregate.
func (s *state) fold() (calls int64, byPhase [result.NumPhases]int64, kern intersect.Stats) {
	for i := range s.workers {
		w := &s.workers[i]
		for p, n := range w.compSim {
			calls += n
			byPhase[p] += n
		}
		kern.Merge(&w.kern)
	}
	return calls, byPhase, kern
}

// abort folds the per-worker counters into a partial Stats and wraps them
// in a PartialError naming the phase that observed cancellation.
func (s *state) abort(phase string) (*result.Result, error) {
	calls, byPhase, kern := s.fold()
	s.reg.Counter(obsv.MetricCoreCancels).Inc()
	return nil, &result.PartialError{
		Stats: result.Stats{
			Algorithm:      "ppSCAN",
			Workers:        s.opt.Workers,
			CompSimCalls:   calls,
			CompSimByPhase: byPhase,
			Kernel:         kern,
			PhaseTimes:     s.phaseTimes,
			Total:          time.Since(s.start),
		},
		Phase: phase,
		Err:   context.Cause(s.ctx),
	}
}

// abortFault reports a phase that ended in a contained failure — a
// recovered worker panic or a watchdog stall — as a PartialError naming
// the phase, and poisons the workspace so the pool rebuilds (panic) or
// discards (stall) it before any reuse.
//
// Stalled phases skip the per-worker counter fold: the hung task's worker
// may still be mutating its stat block, so only coordinator-owned numbers
// (phase times, totals) are safe to read. Panic aborts fold normally —
// the barrier completed, every worker is quiescent.
func (s *state) abortFault(phase string, err error) (*result.Result, error) {
	if errors.Is(err, result.ErrStalled) {
		s.zombie = true
		s.ws.PoisonFatal()
		s.reg.Counter(obsv.MetricWatchdogStalls).Inc()
		return nil, &result.PartialError{
			Stats: result.Stats{
				Algorithm:  "ppSCAN",
				Workers:    s.opt.Workers,
				PhaseTimes: s.phaseTimes,
				Total:      time.Since(s.start),
			},
			Phase: phase,
			Err:   err,
		}
	}
	s.ws.Poison()
	s.reg.Counter(obsv.MetricCorePanics).Inc()
	calls, byPhase, kern := s.fold()
	return nil, &result.PartialError{
		Stats: result.Stats{
			Algorithm:      "ppSCAN",
			Workers:        s.opt.Workers,
			CompSimCalls:   calls,
			CompSimByPhase: byPhase,
			Kernel:         kern,
			PhaseTimes:     s.phaseTimes,
			Total:          time.Since(s.start),
		},
		Phase: phase,
		Err:   err,
	}
}

// runPublisher caches every registry instrument a run publishes to —
// including the per-phase counters whose names are concatenations — so
// the steady-state publish path performs no string building and no
// registry map writes.
type runPublisher struct {
	reg          *obsv.Registry
	runs         *obsv.Counter
	phaseNs      [result.NumPhases]*obsv.Counter
	phaseDur     [result.NumPhases]*obsv.Histogram
	compSimPhase [result.NumPhases]*obsv.Counter
	compSim      *obsv.Counter
	kernCalls    *obsv.Counter
	kernSim      *obsv.Counter
	kernNSim     *obsv.Counter
	kernPSim     *obsv.Counter
	kernPNSim    *obsv.Counter
	kernEarlyDu  *obsv.Counter
	kernEarlyDv  *obsv.Counter
	kernVecBlk   *obsv.Counter
	kernScalar   *obsv.Counter
	kernScanned  *obsv.Counter
}

// newRunPublisher runs once per registry; caching these instruments is
// what keeps the steady-state publish path allocation-free.
func newRunPublisher(reg *obsv.Registry) *runPublisher {
	p := &runPublisher{
		reg:         reg,
		runs:        reg.Counter(obsv.MetricCoreRuns),
		compSim:     reg.Counter(obsv.MetricCompSimCalls),
		kernCalls:   reg.Counter(obsv.MetricKernelCalls),
		kernSim:     reg.Counter(obsv.MetricKernelSim),
		kernNSim:    reg.Counter(obsv.MetricKernelNSim),
		kernPSim:    reg.Counter(obsv.MetricKernelPrunedSim),
		kernPNSim:   reg.Counter(obsv.MetricKernelPrunedNSim),
		kernEarlyDu: reg.Counter(obsv.MetricKernelEarlyDu),
		kernEarlyDv: reg.Counter(obsv.MetricKernelEarlyDv),
		kernVecBlk:  reg.Counter(obsv.MetricKernelVectorBlocks),
		kernScalar:  reg.Counter(obsv.MetricKernelScalarSteps),
		kernScanned: reg.Counter(obsv.MetricKernelScanned),
	}
	for ph := result.PhaseID(0); ph < result.NumPhases; ph++ {
		p.phaseNs[ph] = reg.Counter(obsv.MetricPhaseNsPrefix + result.PhaseNames[ph])
		p.phaseDur[ph] = reg.Histogram(obsv.MetricPhaseDurPrefix + result.PhaseNames[ph])
		p.compSimPhase[ph] = reg.Counter(obsv.MetricCompSimPrefix + result.PhaseNames[ph])
	}
	return p
}

// publish folds one run's aggregates into the registry under the
// canonical obsv.Metric* names. Counters accumulate across runs; per-run
// values live in result.Stats.
func (p *runPublisher) publish(phaseTimes [result.NumPhases]time.Duration,
	calls int64, byPhase [result.NumPhases]int64, kern *intersect.Stats) {
	p.runs.Inc()
	for ph := result.PhaseID(0); ph < result.NumPhases; ph++ {
		p.phaseNs[ph].Add(phaseTimes[ph].Nanoseconds())
		p.phaseDur[ph].Observe(phaseTimes[ph].Nanoseconds())
		p.compSimPhase[ph].Add(byPhase[ph])
	}
	p.compSim.Add(calls)
	p.kernCalls.Add(kern.Calls)
	p.kernSim.Add(kern.Sim)
	p.kernNSim.Add(kern.NSim)
	p.kernPSim.Add(kern.PrunedSim)
	p.kernPNSim.Add(kern.PrunedNSim)
	p.kernEarlyDu.Add(kern.EarlyDu)
	p.kernEarlyDv.Add(kern.EarlyDv)
	p.kernVecBlk.Add(kern.VectorBlocks)
	p.kernScalar.Add(kern.ScalarSteps)
	p.kernScanned.Add(kern.Scanned)
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

// schedInstruments caches the registry lookups for scheduler telemetry so
// forEach builds a sched.Metrics without re-locking the registry per phase.
type schedInstruments struct {
	tasks   *obsv.Counter
	degSum  *obsv.Histogram
	verts   *obsv.Histogram
	wait    *obsv.Histogram
	taskDur *obsv.Histogram
	busy    *obsv.ShardedCounter
}

// state is the pooled per-workspace run state. One instance lives in each
// engine.Workspace under scratchKey and is re-pointed at fresh inputs by
// reset; the fn* fields are method values bound once at construction so
// the per-phase scheduling calls do not allocate closures per run.
type state struct {
	g             *graph.Graph
	th            simdef.Threshold
	ctx           context.Context
	stop          atomic.Bool // set by context.AfterFunc on cancellation
	opt           engine.Options
	ws            *engine.Workspace
	roles         []result.Role
	sim           []int32 // simdef.EdgeSim values, accessed atomically
	uf            *unionfind.Concurrent
	clusterID     []int32 // per union-find root, CAS'd in P6
	coreClusterID []int32 // per vertex, read-only after P6
	workers       []workerState
	reg           *obsv.Registry
	tr            *obsv.Tracer
	sm            *schedInstruments // nil when neither registry nor tracer observe
	smReg         *obsv.Registry    // registry sm was built from
	pub           *runPublisher     // nil when the registry is disabled
	schedM        sched.Metrics     // reused per phase (field, so taking &schedM is alloc-free)
	kernelOn      bool
	start         time.Time
	phaseTimes    [result.NumPhases]time.Duration
	// phase is the stage currently attributed for CompSim counting; set by
	// the coordinating goroutine between phases (before workers receive
	// tasks, so the happens-before edge is the task submission).
	phase result.PhaseID
	// zombie records a watchdog abort: a hung task may still reference
	// the run's inputs, so endRun must not clear them. Coordinator-only.
	zombie bool

	// Non-core clustering batches: per-worker emission buffers flushed
	// into collected under ncMu (all grow-only, reused across runs).
	ncMu      sync.Mutex
	ncLocal   [][]result.Membership
	collected []result.Membership

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
	s.g, s.th, s.ctx, s.opt, s.ws = g, th, ctx, opt, ws
	s.start = time.Now()
	s.stop.Store(false)
	s.zombie = false
	s.roles = ws.Roles(n)
	s.sim = ws.AtomicSim(int(g.NumDirectedEdges()))
	s.uf = ws.ConcurrentUF(int32(n))
	s.clusterID = nil
	s.coreClusterID = nil
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

	// Instruments: cache the registry lookups (and the publisher's
	// concatenated metric names) per registry, not per run.
	s.reg, s.tr = opt.Registry, opt.Tracer
	s.kernelOn = s.reg.Enabled()
	if s.reg.Enabled() || s.tr != nil {
		if s.sm == nil || s.smReg != s.reg {
			s.sm = &schedInstruments{
				tasks:   s.reg.Counter(obsv.MetricSchedTasks),
				degSum:  s.reg.Histogram(obsv.MetricSchedTaskDegreeSum),
				verts:   s.reg.Histogram(obsv.MetricSchedTaskVertices),
				wait:    s.reg.Histogram(obsv.MetricSchedQueueWaitNs),
				taskDur: s.reg.Histogram(obsv.MetricSchedTaskSpanNs),
				busy:    s.reg.Sharded(obsv.MetricSchedWorkerBusyNs, opt.Workers),
			}
			s.smReg = s.reg
		}
	} else {
		s.sm, s.smReg = nil, nil
	}
	if s.reg.Enabled() {
		if s.pub == nil || s.pub.reg != s.reg {
			s.pub = newRunPublisher(s.reg)
		}
	} else {
		s.pub = nil
	}
}

// endRun drops the per-run references so a pooled workspace does not pin
// the caller's graph or context between requests. After a stalled
// (abandoned) phase the references are left in place: the hung task may
// still read them, and nil-ing them here would race with it — the
// workspace is fatally poisoned and about to be discarded anyway, so the
// pinning is bounded by the zombie's lifetime.
func (s *state) endRun() {
	if s.zombie {
		return
	}
	s.ctx = nil
	s.g = nil
}

func (s *state) degree(u int32) int32 { return s.g.Degree(u) }

func (s *state) loadSim(e int64) simdef.EdgeSim {
	return simdef.EdgeSim(atomic.LoadInt32(&s.sim[e]))
}

func (s *state) storeSim(e int64, v simdef.EdgeSim) {
	atomic.StoreInt32(&s.sim[e], int32(v))
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
	var m *sched.Metrics
	if s.sm != nil {
		s.schedM = sched.Metrics{
			TasksSubmitted: s.sm.tasks,
			TaskDegreeSum:  s.sm.degSum,
			TaskVertices:   s.sm.verts,
			QueueWaitNs:    s.sm.wait,
			TaskDurNs:      s.sm.taskDur,
			WorkerBusyNs:   s.sm.busy,
			Tracer:         s.tr,
			SpanName:       name,
			TIDOffset:      1,
		}
		m = &s.schedM
	}
	crew := s.ws.Crew(s.opt.Workers)
	opt := sched.Options{
		DegreeThreshold: s.opt.DegreeThreshold,
		Metrics:         m,
		Phase:           name,
		StallTimeout:    s.opt.StallTimeout,
	}
	if s.opt.StaticScheduling {
		return crew.ForEachVertexStatic(opt, n, need, process, s.fnStop)
	}
	return crew.ForEachVertex(opt, n, need, s.fnDegree, process, s.fnStop)
}

func (s *state) roleUnknown(u int32) bool { return s.roles[u] == result.RoleUnknown }
func (s *state) isCore(u int32) bool      { return s.roles[u] == result.RoleCore }

// compSim evaluates one structural similarity with the configured kernel,
// attributing the call (and, when observability is on, the kernel-level
// telemetry) to this worker's private block.
func (s *state) compSim(u, v int32, worker int) simdef.EdgeSim {
	w := &s.workers[worker]
	w.compSim[s.phase]++
	var st *intersect.Stats
	if s.kernelOn {
		st = &w.kern
	}
	return intersect.Sim(s.opt.Kernel, s.th.Eps, s.g.Neighbors(u), s.g.Neighbors(v), st)
}

// pruneSim is Algorithm 3's PruneSim(u): label edges by the similarity
// predicate pruning rules and initialize u's role from the labels.
func (s *state) pruneSim(u int32, worker int) {
	g := s.g
	du := g.Degree(u)
	sd, ed := int32(0), du
	uOff := g.Off[u]
	for i, v := range g.Neighbors(u) {
		e := uOff + int64(i)
		switch s.th.Eps.PruneResult(du, g.Degree(v)) {
		case simdef.Sim:
			s.storeSim(e, simdef.Sim)
			sd++
		case simdef.NSim:
			s.storeSim(e, simdef.NSim)
			ed--
		}
	}
	switch {
	case sd >= s.th.Mu:
		s.roles[u] = result.RoleCore
	case ed < s.th.Mu:
		s.roles[u] = result.RoleNonCore
	default:
		s.roles[u] = result.RoleUnknown
	}
}

// checkCore is Algorithm 3's CheckCore(u): re-derive local sd/ed from known
// similarity labels, then compute unknown similarities under the u < v
// constraint, with min-max early termination. The role may remain Unknown
// (resolved by consolidateCore).
func (s *state) checkCore(u int32, worker int) {
	s.roleScan(u, worker, true)
}

// consolidateCore is Algorithm 3's ConsolidateCore(u): CheckCore without
// the u < v constraint. After it, u's role is definitely known: every
// needed similarity is either already labeled or computed here.
func (s *state) consolidateCore(u int32, worker int) {
	s.roleScan(u, worker, false)
	if s.roles[u] == result.RoleUnknown {
		// All similarities known and neither bound fired early: sd is now
		// exact, decide directly (sd == ed here).
		panic("core: role still unknown after consolidation")
	}
}

// roleScan implements the shared body of CheckCore/ConsolidateCore.
func (s *state) roleScan(u int32, worker int, onlyGreater bool) {
	g := s.g
	mu := s.th.Mu
	du := g.Degree(u)
	sd, ed := int32(0), du
	uOff := g.Off[u]
	nbrs := g.Neighbors(u)
	// Pass 1 (Algorithm 3 lines 22-30): fold in known labels.
	for i := range nbrs {
		switch s.loadSim(uOff + int64(i)) {
		case simdef.Sim:
			sd++
			if sd >= mu {
				s.roles[u] = result.RoleCore
				return
			}
		case simdef.NSim:
			ed--
			if ed < mu {
				s.roles[u] = result.RoleNonCore
				return
			}
		}
	}
	// Pass 2 (lines 31-33): compute unknown similarities.
	for i, v := range nbrs {
		if onlyGreater && v <= u {
			continue
		}
		e := uOff + int64(i)
		if s.loadSim(e) != simdef.Unknown {
			continue
		}
		val := s.compSim(u, v, worker)
		// Similarity-value reuse: publish the reverse edge first so the
		// owner of v can pick it up in its own pass 1.
		s.storeSim(g.EdgeOffset(v, u), val)
		s.storeSim(e, val)
		if val == simdef.Sim {
			sd++
			if sd >= mu {
				s.roles[u] = result.RoleCore
				return
			}
		} else {
			ed--
			if ed < mu {
				s.roles[u] = result.RoleNonCore
				return
			}
		}
	}
	if !onlyGreater {
		// Every edge labeled, no bound fired: sd is the exact similar
		// count and it is < mu (otherwise we'd have returned).
		s.roles[u] = result.RoleNonCore
	}
	// With the u < v constraint the role may legitimately stay Unknown.
}

// clusterCoreWithoutCompSim is Algorithm 4 lines 9-11: union adjacent cores
// over already-known Sim edges, building small clusters that power the
// union-find pruning of the next phase.
func (s *state) clusterCoreWithoutCompSim(u int32, worker int) {
	g := s.g
	uOff := g.Off[u]
	for i, v := range g.Neighbors(u) {
		if u >= v || s.roles[v] != result.RoleCore {
			continue
		}
		if s.loadSim(uOff+int64(i)) != simdef.Sim {
			continue
		}
		if s.uf.Same(u, v) {
			continue
		}
		s.uf.Union(u, v)
	}
}

// clusterCoreWithCompSim is Algorithm 4 lines 12-16: compute the remaining
// unknown core-core similarities (skipping pairs already clustered, the
// union-find pruning) and union on Sim.
func (s *state) clusterCoreWithCompSim(u int32, worker int) {
	g := s.g
	uOff := g.Off[u]
	for i, v := range g.Neighbors(u) {
		if u >= v || s.roles[v] != result.RoleCore {
			continue
		}
		e := uOff + int64(i)
		if s.loadSim(e) != simdef.Unknown {
			continue
		}
		if s.uf.Same(u, v) {
			continue
		}
		val := s.compSim(u, v, worker)
		s.storeSim(g.EdgeOffset(v, u), val)
		s.storeSim(e, val)
		if val == simdef.Sim {
			s.uf.Union(u, v)
		}
	}
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

// nonCoreVertex processes one core's adjacency in P7.
func (s *state) nonCoreVertex(u int32, w int) {
	g := s.g
	id := s.coreClusterID[u]
	uOff := g.Off[u]
	for i, v := range g.Neighbors(u) {
		if s.roles[v] != result.RoleNonCore {
			continue
		}
		e := uOff + int64(i)
		sim := s.loadSim(e)
		if sim == simdef.Unknown {
			sim = s.compSim(u, v, w)
			s.storeSim(g.EdgeOffset(v, u), sim)
			s.storeSim(e, sim)
		}
		if sim == simdef.Sim {
			// Grow-only per-worker batch: capacity persists across runs in the
			// workspace scratch.
			s.ncLocal[w] = append(s.ncLocal[w], result.Membership{V: v, ClusterID: id})
			if len(s.ncLocal[w]) >= nonCoreBatch {
				s.flushNonCore(w)
			}
		}
	}
}

// flushNonCore drains worker w's batch into the shared list.
func (s *state) flushNonCore(w int) {
	b := s.ncLocal[w]
	if len(b) == 0 {
		return
	}
	s.ncMu.Lock()
	// Grow-only shared list: capacity persists across runs in the workspace
	// scratch.
	s.collected = append(s.collected, b...)
	s.ncMu.Unlock()
	s.ncLocal[w] = b[:0]
}
