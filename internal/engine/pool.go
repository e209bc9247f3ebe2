package engine

import (
	"math/bits"
	"runtime"
	"sync"
)

// Pool is a size-classed cache of workspaces for concurrent serving: each
// in-flight request acquires its own workspace, runs, and releases it for
// the next request. Classing by the high-water run size (class =
// bits.Len64(n+m)) steers big requests toward workspaces that already own
// big buffers, so the steady state converges to zero growth allocations
// even under mixed request sizes.
//
// Capacity bounds how many idle workspaces the pool retains — released
// workspaces beyond it are closed and left to the GC. It does not bound
// concurrency: Acquire always returns a workspace, creating one on a
// pool miss. Bound in-flight work elsewhere (the server's admission
// semaphore does), and size the pool to that bound.
//
// All methods are safe for concurrent use.
type Pool struct {
	mu       sync.Mutex
	capacity int
	classes  [65][]*Workspace
	retained int
	closed   bool

	hits, misses, discards, resets uint64
}

// PoolStats is a snapshot of pool effectiveness counters.
type PoolStats struct {
	// Capacity is the maximum number of retained idle workspaces.
	Capacity int
	// Retained is the current number of idle workspaces held.
	Retained int
	// Hits counts Acquire calls served from the pool.
	Hits uint64
	// Misses counts Acquire calls that created a fresh workspace.
	Misses uint64
	// Discards counts Release calls that closed the workspace because the
	// pool was full (or closed).
	Discards uint64
	// Resets counts poisoned workspaces rebuilt at Release after a
	// contained failure (worker panic or watchdog abort).
	Resets uint64
	// RetainedBytes approximates the buffer memory held by idle
	// workspaces.
	RetainedBytes int64
}

// NewPool creates a pool retaining at most capacity idle workspaces;
// capacity < 1 defaults to GOMAXPROCS (a sensible bound when concurrency
// is CPU-bound).
func NewPool(capacity int) *Pool {
	if capacity < 1 {
		capacity = runtime.GOMAXPROCS(0)
	}
	return &Pool{capacity: capacity}
}

// sizeClass buckets a run footprint; one class per power of two.
func sizeClass(work uint64) int {
	return bits.Len64(work)
}

// Acquire returns a workspace suitable for a graph with n vertices and m
// directed edges, preferring an idle workspace whose buffers are already
// at least that large (same or larger size class), then any smaller one
// (grow-only reuse still saves its prior capacity), and creating a fresh
// workspace only when the pool is empty.
func (p *Pool) Acquire(n, m int) *Workspace {
	want := sizeClass(uint64(n) + uint64(m))
	p.mu.Lock()
	for c := want; c < len(p.classes); c++ {
		if ws := p.take(c); ws != nil {
			p.hits++
			p.mu.Unlock()
			ws.note(uint64(n) + uint64(m))
			return ws
		}
	}
	for c := want - 1; c >= 0; c-- {
		if ws := p.take(c); ws != nil {
			p.hits++
			p.mu.Unlock()
			ws.note(uint64(n) + uint64(m))
			return ws
		}
	}
	p.misses++
	p.mu.Unlock()
	ws := NewWorkspace()
	ws.note(uint64(n) + uint64(m))
	return ws
}

// take pops an idle workspace from class c. Caller holds p.mu.
func (p *Pool) take(c int) *Workspace {
	s := p.classes[c]
	if len(s) == 0 {
		return nil
	}
	ws := s[len(s)-1]
	s[len(s)-1] = nil
	p.classes[c] = s[:len(s)-1]
	p.retained--
	ws.released.Store(false)
	return ws
}

// Release returns ws to the pool for reuse. When the pool is at capacity
// (or closed) the workspace is closed instead — its scheduler goroutines
// stop and its memory goes back to the GC. ws must be idle (its run
// finished) and must not be used by the caller after Release. A poisoned
// workspace (see Workspace.Poison) is Reset before it is retained, so
// whatever a pooled workspace is next acquired for starts pristine.
// Releasing a workspace twice without an Acquire in between panics, as
// unlocking an unlocked sync.Mutex does: the second Release would put the
// workspace on the free list twice and hand it to two requests.
func (p *Pool) Release(ws *Workspace) {
	if ws == nil {
		return
	}
	if ws.released.Swap(true) {
		panic("engine: Pool.Release of a workspace that was already released")
	}
	if ws.Fatal() {
		// A fatal workspace (stalled phase, possibly a hung goroutine
		// still referencing its buffers) can never be made safe to reuse:
		// close it and let the GC reclaim the memory once the zombie —
		// if any — lets go.
		p.mu.Lock()
		p.discards++
		p.mu.Unlock()
		ws.Close()
		return
	}
	reset := false
	if ws.Poisoned() {
		ws.Reset()
		reset = true
	}
	p.mu.Lock()
	if reset {
		p.resets++
	}
	if p.closed || p.retained >= p.capacity {
		p.discards++
		p.mu.Unlock()
		ws.Close()
		return
	}
	c := sizeClass(ws.work)
	p.classes[c] = append(p.classes[c], ws)
	p.retained++
	p.mu.Unlock()
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PoolStats{
		Capacity: p.capacity,
		Retained: p.retained,
		Hits:     p.hits,
		Misses:   p.misses,
		Discards: p.discards,
		Resets:   p.resets,
	}
	for _, s := range p.classes {
		for _, ws := range s {
			st.RetainedBytes += ws.MemoryBytes()
		}
	}
	return st
}

// Close closes every retained workspace and makes future Releases close
// their workspaces immediately. Acquire remains usable (it will simply
// always miss).
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	var all []*Workspace
	for c := range p.classes {
		all = append(all, p.classes[c]...)
		p.classes[c] = nil
	}
	p.retained = 0
	p.mu.Unlock()
	for _, ws := range all {
		ws.Close()
	}
}
