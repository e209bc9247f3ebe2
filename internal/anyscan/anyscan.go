// Package anyscan implements a surrogate of the anySCAN baseline (Mai et
// al., ICDE 2017), the anytime parallel structural clustering algorithm the
// paper compares against in Figures 2-3.
//
// The original anySCAN is closed source and organizationally complex
// (anytime semantics, super-node summarization, five vertex states). This
// surrogate reproduces the three properties the paper attributes to it and
// that drive its measured behaviour relative to ppSCAN (§6.1):
//
//  1. block-iterative parallelism: vertices are processed in fixed-size
//     blocks of "unprocessed" vertices, with a synchronization point per
//     block (the anytime loop structure), rather than in one fully
//     dynamic pass;
//  2. no cross-edge similarity reuse during core checking: each edge's
//     similarity is computed from both endpoints (double work), because
//     per-block summarization does not share values across blocks;
//  3. dynamic allocation overhead in the expansion phase: per-block
//     queues, membership buffers and transition records are allocated and
//     discarded per block (the paper: "the transitions incur significant
//     dynamic memory allocation overheads").
//
// The surrogate keeps anySCAN's lock-based cluster merging (a mutex-guarded
// union-find) in contrast to ppSCAN's wait-free one. Results are exact and
// identical to SCAN/pSCAN/ppSCAN.
package anyscan

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ppscan/graph"
	"ppscan/internal/engine"
	"ppscan/internal/intersect"
	"ppscan/internal/result"
	"ppscan/internal/sched"
	"ppscan/internal/simdef"
	"ppscan/internal/unionfind"
)

// blockSize is the number of vertices summarized per anytime block. A
// package value, not an option: only this package's tests vary it.
var blockSize int32 = 4096

func init() { engine.Register(engine.Engine{Name: "anyscan", Kernel: intersect.MergeEarly, Run: Run}) }

// Run executes the anySCAN surrogate on g with opt.Kernel (anySCAN uses
// merge-based intersection; default intersect.MergeEarly) on opt.Workers
// goroutines (< 1 means GOMAXPROCS). It has no checkpoints and never reads
// ctx, and it deliberately ignores the workspace: anySCAN's per-block
// dynamic allocations are part of the modeled behavior this surrogate
// reproduces (see the package comment), so pooling them away would erase
// the very overhead the baseline exists to measure. A contained worker
// panic is returned as a *result.WorkerPanicError.
func Run(_ context.Context, g *graph.Graph, th simdef.Threshold, opt engine.Options, _ *engine.Workspace) (*result.Result, error) {
	if opt.Workers < 1 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	n := g.NumVertices()
	roles := make([]result.Role, n)
	var calls atomic.Int64

	uf := unionfind.NewSequential(n)
	var ufMu sync.Mutex // anySCAN merges clusters under a lock

	// Anytime outer loop: take the next block of unprocessed vertices,
	// check cores in parallel within the block, then merge clusters.
	for blockStart := int32(0); blockStart < n; blockStart += blockSize {
		blockEnd := blockStart + blockSize
		if blockEnd > n {
			blockEnd = n
		}
		// Per-block allocations (anySCAN's transition overhead).
		blockSim := make([][]simdef.EdgeSim, blockEnd-blockStart)
		err := sched.ForEachVertexStatic(opt.Workers, blockEnd-blockStart, func(i int32, _ int) {
			u := blockStart + i
			row := make([]simdef.EdgeSim, g.Degree(u)) // per-vertex allocation
			calls.Add(result.LabelArcs(g, u, u+1, row, u, false, false, opt.Kernel, th.Eps))
			roles[u] = result.ArcRole(g, u, row, u, th.Mu)
			blockSim[i] = row
		})
		if err != nil {
			return nil, err
		}
		// Cluster-merge step: union this block's cores with already
		// processed neighboring cores over similar edges (lock-guarded).
		for u := blockStart; u < blockEnd; u++ {
			if roles[u] != result.RoleCore {
				continue
			}
			row := blockSim[u-blockStart]
			for i, v := range g.Neighbors(u) {
				if row[i] != simdef.Sim {
					continue
				}
				// Only vertices already role-assigned (this or earlier
				// blocks) can be merged now; later blocks merge back.
				if v < blockEnd && roles[v] == result.RoleCore {
					ufMu.Lock()
					uf.Union(u, v)
					ufMu.Unlock()
				}
			}
		}
	}

	// Finalization: cluster ids and non-core memberships. Similarities are
	// recomputed for core->non-core edges (the per-block rows were
	// discarded — anySCAN's summarization does not persist edge values).
	coreClusterID := result.CoreClusterIDs(roles, uf)
	var nonCore []result.Membership
	var ncMu sync.Mutex
	err := sched.ForEachVertexStatic(opt.Workers, n, func(u int32, _ int) {
		if roles[u] != result.RoleCore {
			return
		}
		id := coreClusterID[u]
		nbrs := g.Neighbors(u)
		var local []result.Membership
		var localCalls int64
		for _, v := range nbrs {
			if roles[v] != result.RoleNonCore {
				continue
			}
			localCalls++
			if intersect.Sim(opt.Kernel, th.Eps, nbrs, g.Neighbors(v), nil) == simdef.Sim {
				local = append(local, result.Membership{V: v, ClusterID: id})
			}
		}
		calls.Add(localCalls)
		if len(local) > 0 {
			ncMu.Lock()
			nonCore = append(nonCore, local...)
			ncMu.Unlock()
		}
	})
	if err != nil {
		return nil, err
	}

	res := &result.Result{
		Eps:           th.Eps.String(),
		Mu:            th.Mu,
		Roles:         roles,
		CoreClusterID: coreClusterID,
		NonCore:       nonCore,
	}
	res.Normalize()
	res.Stats = result.Stats{
		Algorithm:    "anySCAN",
		Workers:      opt.Workers,
		CompSimCalls: calls.Load(),
		Total:        time.Since(start),
	}
	return res, nil
}
