package engine

import (
	"sync"
	"testing"

	"ppscan/internal/result"
	"ppscan/internal/simdef"
)

// TestWorkspaceGrowOnly: buffers never shrink — after serving a large run,
// smaller runs reuse the same backing arrays with zero growth.
func TestWorkspaceGrowOnly(t *testing.T) {
	ws := NewWorkspace()
	defer ws.Close()

	big := ws.Roles(1000)
	if len(big) != 1000 {
		t.Fatalf("Roles(1000): len %d", len(big))
	}
	bigCap := cap(ws.roles)

	small := ws.Roles(10)
	if len(small) != 10 {
		t.Fatalf("Roles(10): len %d", len(small))
	}
	if cap(ws.roles) != bigCap {
		t.Errorf("capacity shrank: %d -> %d", bigCap, cap(ws.roles))
	}
	if &small[0] != &big[0] {
		t.Error("Roles(10) after Roles(1000) did not reuse the backing array")
	}
	if ws.work < 1000 {
		t.Errorf("high-water work = %d, want >= 1000", ws.work)
	}

	// Growing past capacity allocates, then stays put again.
	huge := ws.ClusterIDs(5000)
	hugeCap := cap(ws.clusterID)
	again := ws.ClusterIDs(4000)
	if cap(ws.clusterID) != hugeCap {
		t.Errorf("ClusterIDs capacity changed on smaller request: %d -> %d", hugeCap, cap(ws.clusterID))
	}
	if &huge[0] != &again[0] {
		t.Error("ClusterIDs did not reuse its backing array")
	}
}

// TestWorkspaceNoStaleData: every getter hands back fully re-initialized
// contents even when the previous run scribbled over a larger buffer.
func TestWorkspaceNoStaleData(t *testing.T) {
	ws := NewWorkspace()
	defer ws.Close()

	// Dirty every buffer at size 64.
	for i, r := range ws.Roles(64) {
		_ = r
		ws.roles[i] = result.RoleCore
	}
	for i := range ws.EdgeSims(64) {
		ws.edgeSims[i] = simdef.Sim
	}
	for i := range ws.ClusterIDs(64) {
		ws.clusterID[i] = int32(i)
	}
	for i := range ws.CoreClusterIDs(64) {
		ws.coreClusterID[i] = int32(i)
	}
	sd, ed := ws.Bounds(64)
	for i := range sd {
		sd[i], ed[i] = 3, 9
	}
	for i := range ws.Flags(64) {
		ws.flags[i] = true
	}
	for i := range ws.Flags2(64) {
		ws.flags2[i] = true
	}
	ws.ConcurrentUF(64).Union(1, 2)
	ws.SequentialUF(64).Union(3, 4)

	// Re-acquire at a smaller size; everything must be factory-fresh.
	for i, r := range ws.Roles(32) {
		if r != result.RoleUnknown {
			t.Fatalf("Roles[%d] = %v, want Unknown", i, r)
		}
	}
	for i, v := range ws.EdgeSims(32) {
		if v != simdef.Unknown {
			t.Fatalf("EdgeSims[%d] = %v, want Unknown", i, v)
		}
	}
	for i, v := range ws.ClusterIDs(32) {
		if v != -1 {
			t.Fatalf("ClusterIDs[%d] = %d, want -1", i, v)
		}
	}
	for i, v := range ws.CoreClusterIDs(32) {
		if v != -1 {
			t.Fatalf("CoreClusterIDs[%d] = %d, want -1", i, v)
		}
	}
	sd, ed = ws.Bounds(32)
	for i := range sd {
		if sd[i] != 0 || ed[i] != 0 {
			t.Fatalf("Bounds[%d] = (%d, %d), want zeros", i, sd[i], ed[i])
		}
	}
	for i, v := range ws.Flags(32) {
		if v {
			t.Fatalf("Flags[%d] = true, want false", i)
		}
	}
	for i, v := range ws.Flags2(32) {
		if v {
			t.Fatalf("Flags2[%d] = true, want false", i)
		}
	}
	if cuf := ws.ConcurrentUF(32); cuf.Find(1) == cuf.Find(2) {
		t.Error("ConcurrentUF not reset to singletons")
	}
	if suf := ws.SequentialUF(32); suf.Find(3) == suf.Find(4) {
		t.Error("SequentialUF not reset to singletons")
	}
}

// TestWorkspaceClusterIDArraysDistinct pins the aliasing rule: the
// root-indexed and vertex-indexed cluster-id buffers are never the same
// array (core clustering reads one while writing the other).
func TestWorkspaceClusterIDArraysDistinct(t *testing.T) {
	ws := NewWorkspace()
	defer ws.Close()
	a := ws.ClusterIDs(100)
	b := ws.CoreClusterIDs(100)
	a[0] = 42
	if b[0] == 42 {
		t.Fatal("ClusterIDs and CoreClusterIDs share a backing array")
	}
}

// TestWorkspaceCrewReplacedOnWorkerChange: the crew persists across calls
// with the same worker count and is rebuilt on a different one.
func TestWorkspaceCrewReplacedOnWorkerChange(t *testing.T) {
	ws := NewWorkspace()
	defer ws.Close()
	c1 := ws.Crew(2)
	if c2 := ws.Crew(2); c2 != c1 {
		t.Error("crew with unchanged worker count was rebuilt")
	}
	c3 := ws.Crew(3)
	if c3 == c1 {
		t.Error("crew with changed worker count was not rebuilt")
	}
	if c3.Workers() != 3 {
		t.Errorf("Workers() = %d, want 3", c3.Workers())
	}
}

// TestWorkspaceScratch: Scratch creates once per key and returns the same
// value thereafter.
func TestWorkspaceScratch(t *testing.T) {
	ws := NewWorkspace()
	defer ws.Close()
	calls := 0
	mk := func() any { calls++; return &calls }
	a := ws.Scratch("k", mk)
	b := ws.Scratch("k", mk)
	if a != b || calls != 1 {
		t.Fatalf("Scratch created %d values (same=%v), want exactly one", calls, a == b)
	}
}

// TestPoolReuseAndClassing: a released workspace is preferred over a fresh
// allocation, and a big released workspace serves a small request.
func TestPoolReuseAndClassing(t *testing.T) {
	p := NewPool(4)
	defer p.Close()

	ws := p.Acquire(1000, 8000)
	ws.Roles(1000) // materialize something
	p.Release(ws)

	got := p.Acquire(10, 20)
	if got != ws {
		t.Error("small Acquire did not reuse the released larger workspace")
	}
	p.Release(got)

	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if st.Retained != 1 {
		t.Errorf("retained = %d, want 1", st.Retained)
	}
	if st.RetainedBytes <= 0 {
		t.Errorf("RetainedBytes = %d, want > 0", st.RetainedBytes)
	}
}

// TestPoolCapacityBound: releases beyond capacity discard (and close) the
// workspace instead of growing the pool.
func TestPoolCapacityBound(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	a, b, c := p.Acquire(8, 8), p.Acquire(8, 8), p.Acquire(8, 8)
	p.Release(a)
	p.Release(b)
	p.Release(c) // over capacity: discarded
	st := p.Stats()
	if st.Retained != 2 {
		t.Errorf("retained = %d, want 2", st.Retained)
	}
	if st.Discards != 1 {
		t.Errorf("discards = %d, want 1", st.Discards)
	}
}

// TestPoolDoubleReleasePanics: a second Release without an Acquire in
// between panics instead of putting the workspace on the free list twice —
// on the retain path and on the discard path — and a re-acquired workspace
// releases normally again.
func TestPoolDoubleReleasePanics(t *testing.T) {
	mustPanic := func(p *Pool, ws *Workspace) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("second Release did not panic; retained = %d", p.Stats().Retained)
			}
		}()
		p.Release(ws)
	}
	p := NewPool(2)
	ws := p.Acquire(8, 8)
	p.Release(ws)
	mustPanic(p, ws)
	if st := p.Stats(); st.Retained != 1 {
		t.Errorf("retained after a double release = %d, want 1", st.Retained)
	}
	if again := p.Acquire(8, 8); again != ws {
		t.Fatal("Acquire did not return the one retained workspace")
	}
	p.Release(ws)

	p.Close()
	discarded := p.Acquire(8, 8)
	p.Release(discarded) // closed pool: discarded, not retained
	mustPanic(p, discarded)
}

// TestPoolClose: close discards retained workspaces and makes later
// releases discard immediately, while Acquire keeps working.
func TestPoolClose(t *testing.T) {
	p := NewPool(2)
	a := p.Acquire(8, 8)
	b := p.Acquire(8, 8)
	p.Release(a)
	p.Close()
	if st := p.Stats(); st.Retained != 0 {
		t.Errorf("retained after Close = %d, want 0", st.Retained)
	}
	p.Release(b)
	if st := p.Stats(); st.Discards < 1 {
		t.Errorf("discards after post-Close release = %d, want >= 1", st.Discards)
	}
	if ws := p.Acquire(8, 8); ws == nil {
		t.Error("Acquire after Close returned nil")
	} else {
		ws.Close()
	}
}

// TestPoolConcurrent hammers Acquire/Release from many goroutines; run
// with -race to verify the locking discipline.
func TestPoolConcurrent(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				n := 16 << uint((seed+j)%6)
				ws := p.Acquire(n, 4*n)
				ids := ws.ClusterIDs(n)
				for k := range ids {
					if ids[k] != -1 {
						t.Errorf("stale ClusterIDs[%d] = %d", k, ids[k])
						break
					}
					ids[k] = int32(k)
				}
				p.Release(ws)
			}
		}(i)
	}
	wg.Wait()
	st := p.Stats()
	if st.Hits+st.Misses != 8*200 {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*200)
	}
}
