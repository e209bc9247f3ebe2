package engine

import (
	"runtime"
	"sync/atomic"

	"ppscan/internal/result"
	"ppscan/internal/sched"
	"ppscan/internal/simdef"
	"ppscan/internal/unionfind"
)

// Workspace owns every O(n+m) scratch buffer a clustering run needs: role
// and similarity slices, cluster-id arrays, union-find structures, and a
// persistent scheduler crew. Buffers grow monotonically (never shrink), so
// a workspace that has served a graph of size s serves any graph of size
// ≤ s with zero heap allocations.
//
// Each getter returns its buffer re-initialized for a fresh run (cleared,
// filled with -1, or reset to singletons, per the buffer's convention) —
// that is the no-stale-data guarantee: nothing observed through a getter
// ever carries state from a previous run.
//
// # Aliasing rule
//
// Results produced by a run on a workspace MAY alias workspace memory
// (the ppSCAN engines return their Roles, CoreClusterID and NonCore
// buffers directly). Such a Result is valid until the next run on the
// same workspace; retain it across runs — e.g. to cache it — by calling
// Result.Clone first. Buffers handed out by distinct getters never alias
// each other: in particular ClusterIDs (root-indexed, CAS-written during
// core clustering) and CoreClusterIDs (vertex-indexed projection) are
// always distinct arrays, because the projection reads the former while
// writing the latter.
//
// A Workspace serves one run at a time; for concurrent runs use one
// workspace per in-flight request via Pool. The zero value is NOT ready;
// use NewWorkspace.
type Workspace struct {
	roles         []result.Role
	edgeSims      []simdef.EdgeSim
	clusterID     []int32
	coreClusterID []int32
	sd, ed        []int32
	cuf           *unionfind.Concurrent
	suf           *unionfind.Sequential
	crew          *sched.Crew
	scratch       map[string]any

	// poisoned marks a workspace whose last run ended in a contained
	// worker panic: engine-private scratch state may be mid-phase
	// inconsistent (e.g. a mutex held when the panic fired, partial
	// per-worker stat folds). Pool.Release resets a poisoned workspace
	// before retaining it. Atomic because tests and the pool may inspect
	// it from a different goroutine than the run's.
	poisoned atomic.Bool
	// released is set by Pool.Release and cleared when Pool.Acquire hands
	// the workspace out again; a Release that finds it set is a double
	// release, which would hand one workspace to two requests.
	released atomic.Bool
}

// NewWorkspace returns an empty workspace. Buffers materialize on first
// use and are retained for reuse; call Close when done to stop the
// scheduler crew.
func NewWorkspace() *Workspace {
	return &Workspace{scratch: map[string]any{}}
}

// Close releases the workspace's goroutine-backed resources (the
// scheduler crew). The workspace must be idle; it must not be used after
// Close. Buffer memory is left to the garbage collector.
func (w *Workspace) Close() {
	if w.crew != nil {
		w.crew.Close()
		w.crew = nil
	}
	w.scratch = nil
}

// Poison marks the workspace as failure-tainted: its engine-private
// scratch state may be inconsistent and must be rebuilt before the next
// run. Called by the engine layer when a run ends in a contained worker
// panic.
func (w *Workspace) Poison() { w.poisoned.Store(true) }

// Poisoned reports whether the workspace is failure-tainted.
func (w *Workspace) Poisoned() bool { return w.poisoned.Load() }

// Reset rebuilds the workspace to a pristine state after a contained
// failure, clearing the poison mark. It drops the engine-private scratch
// map — the only state whose integrity depends on runs completing
// normally (getters re-initialize the generic buffers on every run, and
// the crew's workers survived the panic via per-task recovery, so both
// are kept).
func (w *Workspace) Reset() {
	clear(w.scratch)
	w.poisoned.Store(false)
}

// Roles returns n vertex roles, all RoleUnknown.
func (w *Workspace) Roles(n int) []result.Role {
	w.roles = grow(w.roles, n)
	clear(w.roles)
	return w.roles
}

// EdgeSims returns n edge-similarity states (for the sequential and
// exhaustive engines), all simdef.Unknown.
func (w *Workspace) EdgeSims(n int) []simdef.EdgeSim {
	w.edgeSims = grow(w.edgeSims, n)
	clear(w.edgeSims)
	return w.edgeSims
}

// ClusterIDs returns n root-indexed cluster ids, all -1.
func (w *Workspace) ClusterIDs(n int) []int32 {
	w.clusterID = grow(w.clusterID, n)
	fillNeg(w.clusterID)
	return w.clusterID
}

// CoreClusterIDs returns n vertex-indexed core cluster ids, all -1.
// Guaranteed distinct from the ClusterIDs array (see the aliasing rule).
func (w *Workspace) CoreClusterIDs(n int) []int32 {
	w.coreClusterID = grow(w.coreClusterID, n)
	fillNeg(w.coreClusterID)
	return w.coreClusterID
}

// Bounds returns pSCAN's two per-vertex bound arrays (similar-degree and
// effective-degree), both zeroed.
func (w *Workspace) Bounds(n int) (sd, ed []int32) {
	w.sd = grow(w.sd, n)
	w.ed = grow(w.ed, n)
	clear(w.sd)
	clear(w.ed)
	return w.sd, w.ed
}

// ConcurrentUF returns the wait-free union–find reset to n singletons.
func (w *Workspace) ConcurrentUF(n int32) *unionfind.Concurrent {
	if w.cuf == nil {
		w.cuf = unionfind.NewConcurrent(n)
	} else {
		w.cuf.Reset(n)
	}
	return w.cuf
}

// SequentialUF returns the sequential union–find reset to n singletons.
func (w *Workspace) SequentialUF(n int32) *unionfind.Sequential {
	if w.suf == nil {
		w.suf = unionfind.NewSequential(n)
	} else {
		w.suf.Reset(n)
	}
	return w.suf
}

// Crew returns the workspace's persistent scheduler crew with the given
// worker count (< 1 means GOMAXPROCS). The crew's goroutines live until
// Close or until a call with a different worker count replaces them.
func (w *Workspace) Crew(workers int) *sched.Crew {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if w.crew != nil && w.crew.Workers() != workers {
		w.crew.Close()
		w.crew = nil
	}
	if w.crew == nil {
		w.crew = sched.NewCrew(workers)
	}
	return w.crew
}

// Scratch returns the engine-private state stored under key, creating it
// with newFn on first use. Engines park state here that has no generic
// buffer shape (e.g. ppSCAN's per-worker stat blocks and prebound
// closures), keeping it alive across runs without the workspace knowing
// its type.
func (w *Workspace) Scratch(key string, newFn func() any) any {
	if w.scratch == nil {
		w.scratch = map[string]any{}
	}
	v, ok := w.scratch[key]
	if !ok {
		v = newFn()
		w.scratch[key] = v
	}
	return v
}

// MemoryBytes approximates the workspace's retained buffer memory,
// counting each Scratch value that reports its own MemoryBytes.
func (w *Workspace) MemoryBytes() int64 {
	b := int64(cap(w.roles)) * 1
	for _, v := range w.scratch {
		if m, ok := v.(interface{ MemoryBytes() int64 }); ok {
			b += m.MemoryBytes()
		}
	}
	b += int64(cap(w.edgeSims)) * 4
	b += int64(cap(w.clusterID)) * 4
	b += int64(cap(w.coreClusterID)) * 4
	b += int64(cap(w.sd)+cap(w.ed)) * 4
	if w.cuf != nil {
		b += int64(w.cuf.Len()) * 4
	}
	if w.suf != nil {
		b += int64(w.suf.Len()) * 5
	}
	return b
}

// grow returns buf resized to n, reusing its backing array when large
// enough and otherwise allocating with power-of-two capacity so repeated
// slightly-larger runs amortize to O(log) allocations.
func grow[T any](buf []T, n int) []T {
	if n <= cap(buf) {
		return buf[:n]
	}
	c := 8
	for c < n {
		c <<= 1
	}
	return make([]T, n, c)
}

// fillNeg sets every element to -1 (the "no cluster" sentinel).
func fillNeg(s []int32) {
	for i := range s {
		s[i] = -1
	}
}
