// Package ppscan is a Go implementation of structural graph clustering in
// the SCAN family, reproducing "Parallelizing Pruning-based Graph
// Structural Clustering" (Che, Sun, Luo; ICPP 2018).
//
// Given an undirected graph and parameters 0 < ε ≤ 1, µ ≥ 1, the library
// computes the exact SCAN clustering: every vertex's role (core or
// non-core), the disjoint clusters of cores, the cluster memberships of
// non-cores, and — optionally — the hub/outlier classification of
// unclustered vertices.
//
// Seven algorithm selections produce identical results at very different
// speeds:
//
//   - AlgoPPSCAN   — the paper's parallel, multi-phase, lock-free ppSCAN
//     with the pivot-based block-vectorized intersection kernel (default);
//   - AlgoPPSCANNO — ppSCAN with pSCAN's scalar merge kernel (the paper's
//     ppSCAN-NO ablation);
//   - AlgoPSCAN    — the sequential pruning-based pSCAN baseline;
//   - AlgoSCAN     — the original exhaustive sequential SCAN;
//   - AlgoSCANXP   — the parallel exhaustive SCAN-XP baseline;
//   - AlgoAnySCAN  — a surrogate of the anySCAN parallel baseline;
//   - AlgoDistSCAN — a partitioned BSP surrogate of the distributed
//     SparkSCAN/PSCAN systems, reporting communication bytes.
//
// Quick start:
//
//	g, _ := graph.FromEdges(n, edges)
//	res, err := ppscan.Run(g, ppscan.Options{Epsilon: "0.6", Mu: 3})
//	if err != nil { ... }
//	clusters := res.Clusters()
//
// Graph construction and I/O live in the ppscan/graph package.
package ppscan

import (
	"context"
	"fmt"
	"io"

	"ppscan/graph"
	"ppscan/internal/engine"
	"ppscan/internal/gsindex"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
	"ppscan/internal/simdef"

	// Every algorithm backend registers itself with internal/engine from
	// init; the facade reaches them by name through engine.Run.
	_ "ppscan/internal/anyscan"
	_ "ppscan/internal/core"
	_ "ppscan/internal/pscan"
	_ "ppscan/internal/scan"
	_ "ppscan/internal/scanxp"
	_ "ppscan/internal/shard"
)

// Algorithm selects which clustering algorithm to run. All algorithms
// produce identical results.
type Algorithm string

const (
	// AlgoPPSCAN is the paper's parallel ppSCAN (default).
	AlgoPPSCAN Algorithm = "ppscan"
	// AlgoPPSCANNO is ppSCAN without the vectorized intersection kernel.
	AlgoPPSCANNO Algorithm = "ppscan-no"
	// AlgoPSCAN is the sequential pruning-based baseline.
	AlgoPSCAN Algorithm = "pscan"
	// AlgoSCAN is the original exhaustive sequential algorithm.
	AlgoSCAN Algorithm = "scan"
	// AlgoSCANXP is the parallel exhaustive baseline.
	AlgoSCANXP Algorithm = "scan-xp"
	// AlgoAnySCAN is the anySCAN-surrogate parallel baseline.
	AlgoAnySCAN Algorithm = "anyscan"
	// AlgoDistSCAN is the partitioned/distributed surrogate (SparkSCAN /
	// PSCAN family); Workers selects the partition count and
	// Stats.CommBytes reports the communication overhead.
	AlgoDistSCAN Algorithm = "dist-scan"
)

// Algorithms lists every supported algorithm.
func Algorithms() []Algorithm {
	return []Algorithm{AlgoPPSCAN, AlgoPPSCANNO, AlgoPSCAN, AlgoSCAN, AlgoSCANXP, AlgoAnySCAN, AlgoDistSCAN}
}

// Result re-exports the shared result type: roles, core cluster ids,
// non-core memberships, and run statistics.
type Result = result.Result

// Role is a vertex role.
type Role = result.Role

// Role values.
const (
	RoleCore    = result.RoleCore
	RoleNonCore = result.RoleNonCore
)

// Membership is one (non-core vertex, cluster id) pair.
type Membership = result.Membership

// Attachment classifies unclustered vertices as hubs or outliers.
type Attachment = result.Attachment

// Attachment values.
const (
	AttachClustered = result.AttachClustered
	AttachHub       = result.AttachHub
	AttachOutlier   = result.AttachOutlier
)

// Options configures a clustering run.
type Options struct {
	// Algorithm selects the implementation; empty means AlgoPPSCAN.
	Algorithm Algorithm
	// Epsilon is the similarity threshold as a decimal string ("0.6") or
	// rational ("3/5"); required, must be in (0, 1]. A string keeps the
	// value exact — every algorithm and kernel then agrees bit-for-bit on
	// borderline edges.
	Epsilon string
	// Mu is the core threshold µ ≥ 1; required.
	Mu int
	// Workers bounds parallel algorithms' worker goroutines; < 1 means
	// GOMAXPROCS. Ignored by sequential algorithms.
	Workers int
	// Kernel optionally overrides the set-intersection kernel by name
	// ("merge", "merge-early", "pivot-scalar", "pivot-block16",
	// "block-merge"). Empty selects each algorithm's default (block-merge
	// for ppSCAN).
	Kernel string
	// StaticScheduling disables ppSCAN's degree-based dynamic scheduler
	// (ablation knob).
	StaticScheduling bool
	// Tracer, when non-nil, records the run as Chrome trace_event spans in
	// the engines that support tracing (ppscan, ppscan-no): phases P1–P7 on
	// track 0, one span per scheduler task on tracks 1..Workers. A pooled
	// tracer (Tracer.Reset between runs) keeps traced runs allocation-free
	// in steady state; export with Tracer.WriteJSON.
	Tracer *Tracer
}

// Tracer re-exports the span tracer engines record into; see
// Options.Tracer. Create with NewTracer, reuse via Tracer.Reset.
type Tracer = obsv.Tracer

// NewTracer returns a tracer whose time origin is now.
func NewTracer() *Tracer {
	return obsv.NewTracer()
}

// Run executes the selected algorithm on g and returns its clustering.
func Run(g *graph.Graph, opt Options) (*Result, error) {
	return RunContext(context.Background(), g, opt)
}

// PartialError is returned (wrapped) by RunContext when a run is aborted
// by context cancellation or deadline expiry: it carries the statistics
// accumulated up to the abort point and unwraps to the context's error.
type PartialError = result.PartialError

// WorkerPanicError is the contained form of a panic raised inside a
// parallel worker: the run aborts with a *PartialError wrapping one of
// these (phase name, worker id, panic value, stack) instead of crashing
// the process. The workspace involved is poisoned so pooled reuse starts
// from a reset state.
type WorkerPanicError = result.WorkerPanicError

// RunContext is Run with cooperative cancellation. The parallel
// multi-phase algorithms (ppscan, ppscan-no, dist-scan) check ctx at every
// phase/superstep barrier and between scheduler task batches inside each
// phase, aborting promptly with a *PartialError that carries partial
// statistics. The remaining baselines are single uninterruptible passes:
// they check ctx only before starting (and RunContext reports the
// cancellation after they finish); use a cancellable algorithm when serving
// untrusted deadlines.
func RunContext(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	return RunWorkspace(ctx, g, opt, nil)
}

// RunWorkspace is RunContext running on a pooled workspace: the selected
// algorithm draws its O(n+m) scratch buffers from ws and leaves them there
// grown for the next run, so repeated runs on similar graph sizes perform
// near-zero heap allocations. A nil ws allocates transient scratch.
//
// Aliasing rule: when ws is non-nil the returned Result may alias
// workspace memory and is valid only until the next run on the same
// workspace; call Result.Clone to retain it longer. A workspace serves one
// run at a time — use a WorkspacePool for concurrent callers.
func RunWorkspace(ctx context.Context, g *graph.Graph, opt Options, ws *Workspace) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if g == nil {
		return nil, fmt.Errorf("ppscan: nil graph")
	}
	if opt.Mu < 1 {
		return nil, fmt.Errorf("ppscan: Mu = %d, want >= 1", opt.Mu)
	}
	if opt.Mu > 1<<30 {
		return nil, fmt.Errorf("ppscan: Mu = %d too large", opt.Mu)
	}
	th, err := simdef.NewThreshold(opt.Epsilon, int32(opt.Mu))
	if err != nil {
		return nil, err
	}
	algo := opt.Algorithm
	if algo == "" {
		algo = AlgoPPSCAN
	}
	// The dispatcher reports a bad kernel name, then an unknown algorithm,
	// then a ctx already done ("not started") — in that order.
	return engine.Run(ctx, string(algo), opt.Kernel, g, th, engine.Options{
		Workers:          opt.Workers,
		StaticScheduling: opt.StaticScheduling,
		Tracer:           opt.Tracer,
	}, ws)
}

// Workspace re-exports engine.Workspace: the pooled container for every
// O(n+m) scratch buffer (and the persistent scheduler crew) a clustering
// run needs. See RunWorkspace for the aliasing rule.
type Workspace = engine.Workspace

// NewWorkspace creates an empty workspace; buffers materialize on first
// use and are retained, grow-only, for reuse. Call Close when done.
func NewWorkspace() *Workspace {
	return engine.NewWorkspace()
}

// WorkspacePool re-exports engine.Pool: a concurrency-safe LIFO free list
// of workspaces for serving (one workspace per in-flight request).
type WorkspacePool = engine.Pool

// NewWorkspacePool creates a pool retaining at most capacity idle
// workspaces; capacity < 1 defaults to GOMAXPROCS.
func NewWorkspacePool(capacity int) *WorkspacePool {
	return engine.NewPool(capacity)
}

// Index is a GS*-Index-style precomputed structure answering any (ε, µ)
// clustering query without set intersections — the index-based alternative
// for interactive parameter exploration discussed in the paper's related
// work (§3.3). Build once with BuildIndex, then call QueryIndexWorkspace
// repeatedly.
type Index = gsindex.Index

// BuildIndex precomputes the structural clustering index for g. The build
// computes every edge's similarity exhaustively, as one triangle count
// (the trade-off the ppSCAN paper highlights: the index pays for every
// edge up front, queries are then near-instant for any parameters).
// workers < 1 means GOMAXPROCS.
func BuildIndex(g *graph.Graph, workers int) *Index {
	return gsindex.Build(g, gsindex.BuildOptions{Workers: workers})
}

// BuildIndexContext is BuildIndex with cooperative cancellation: every
// build pass checks ctx between scheduler task batches. A cancelled build
// returns (nil, error) — there is no partial index.
func BuildIndexContext(ctx context.Context, g *graph.Graph, workers int) (*Index, error) {
	return gsindex.BuildContext(ctx, g, gsindex.BuildOptions{Workers: workers})
}

// QueryIndexWorkspace answers one (ε, µ) clustering query from a built
// index, drawing every scratch buffer from ws — the similarity-reuse entry
// point behind the server's index-served routes (GET /cluster/sweep runs
// the same extraction as one incremental sweep over its ε grid):
// similarities are computed once (the index build) and each parameterization
// is then extracted with zero steady-state allocations. Roles and core
// unions run in parallel on ws's crew, with the worker count the index was
// built with (GOMAXPROCS for a loaded index); memberships come out of one
// walk already in vertex order.
//
// Aliasing rule: the returned Result aliases workspace memory and is valid
// only until the next use of ws; call Result.Clone to retain it longer. ctx
// cancels an extraction between crew tasks and between vertex strides. A
// worker panic is returned as a *WorkerPanicError and poisons ws. A nil ws
// allocates transient scratch.
func QueryIndexWorkspace(ctx context.Context, ix *Index, eps string, mu int, ws *Workspace) (*Result, error) {
	if ix == nil {
		return nil, fmt.Errorf("ppscan: nil index")
	}
	if mu < 1 {
		return nil, fmt.Errorf("ppscan: Mu = %d, want >= 1", mu)
	}
	if mu > 1<<30 {
		return nil, fmt.Errorf("ppscan: Mu = %d too large", mu)
	}
	return ix.QueryWorkspace(ctx, eps, int32(mu), ws)
}

// GraphDelta re-exports the commit summary a graph.Store produces: the
// snapshot pair, the normalized applied edge sets, and the touched
// vertices — the input contract of ApplyIndexBatch.
type GraphDelta = graph.Delta

// ApplyIndexBatch derives the GS*-Index for d.New from the index over
// d.Old incrementally: similarities are recomputed only for edges
// incident to the commit's touched vertices and the affected neighbor
// orders are repaired in place, so a small-churn batch costs a small
// fraction of a full BuildIndex while producing bit-identical query
// results. The receiver index is not modified — like the store itself,
// maintenance returns a new immutable index so queries in flight against
// the old snapshot stay consistent. Scratch is drawn from ws (nil
// allocates transient scratch); workers < 1 means GOMAXPROCS.
func ApplyIndexBatch(ctx context.Context, ix *Index, d *GraphDelta, workers int, ws *Workspace) (*Index, error) {
	if ix == nil {
		return nil, fmt.Errorf("ppscan: nil index")
	}
	return ix.ApplyBatch(ctx, d, gsindex.BuildOptions{Workers: workers}, ws)
}

// SaveIndex serializes an index's payload; load it back with LoadIndex and
// the same graph.
func SaveIndex(w io.Writer, ix *Index) error {
	return ix.Save(w)
}

// LoadIndex deserializes an index previously written by SaveIndex,
// attaching it to g (which must be the graph the index was built from).
func LoadIndex(r io.Reader, g *graph.Graph) (*Index, error) {
	return gsindex.Load(r, g)
}

// ClassifyHubsOutliers labels every vertex of g as clustered, hub, or
// outlier given a clustering result (Definition 2.10 of the paper).
func ClassifyHubsOutliers(g *graph.Graph, r *Result) []Attachment {
	return result.ClassifyHubsOutliers(g, r)
}

// Equal compares two results for semantic equality, returning a
// descriptive error on the first difference (nil when equal).
func Equal(a, b *Result) error {
	return result.Equal(a, b)
}

// WriteResult serializes a result in a stable, diffable text format; two
// Equal results always serialize identically.
func WriteResult(w io.Writer, r *Result) error {
	return result.Write(w, r)
}
