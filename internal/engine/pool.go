package engine

import (
	"runtime"
	"sync"
)

// Pool is a cache of workspaces for concurrent serving: each in-flight
// request acquires its own workspace, runs, and releases it for the next
// request. Every workspace of a server serves the same graph, so the
// pool is one LIFO free list: the most recently released workspace, whose
// buffers are warmest, goes out first, and the steady state converges to
// zero growth allocations.
//
// Capacity bounds how many idle workspaces the pool retains — released
// workspaces beyond it are closed and left to the GC. It does not bound
// concurrency: Acquire always returns a workspace, creating one on a
// pool miss.
//
// All methods are safe for concurrent use.
type Pool struct {
	mu       sync.Mutex
	capacity int
	free     []*Workspace
	closed   bool

	hits, misses, discards, resets uint64
}

// PoolStats is a snapshot of pool effectiveness counters.
type PoolStats struct {
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
	// contained worker panic.
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

// Acquire returns the most recently released idle workspace, or a fresh
// one when the pool is empty.
func (p *Pool) Acquire() *Workspace {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		ws := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.hits++
		p.mu.Unlock()
		ws.released.Store(false)
		return ws
	}
	p.misses++
	p.mu.Unlock()
	return NewWorkspace()
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
	reset := false
	if ws.Poisoned() {
		ws.Reset()
		reset = true
	}
	p.mu.Lock()
	if reset {
		p.resets++
	}
	if p.closed || len(p.free) >= p.capacity {
		p.discards++
		p.mu.Unlock()
		ws.Close()
		return
	}
	p.free = append(p.free, ws)
	p.mu.Unlock()
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PoolStats{
		Retained: len(p.free),
		Hits:     p.hits,
		Misses:   p.misses,
		Discards: p.discards,
		Resets:   p.resets,
	}
	for _, ws := range p.free {
		st.RetainedBytes += ws.MemoryBytes()
	}
	return st
}

// Close closes every retained workspace and makes future Releases close
// their workspaces immediately. Acquire remains usable (it will simply
// always miss).
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	all := p.free
	p.free = nil
	p.mu.Unlock()
	for _, ws := range all {
		ws.Close()
	}
}
