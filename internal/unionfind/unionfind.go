// Package unionfind provides the disjoint-set structures used for core
// clustering: a classic sequential union–find (for SCAN and pSCAN) and a
// wait-free concurrent union–find (for ppSCAN's lock-free core clustering,
// following Anderson & Woll, "Wait-free parallel algorithms for the
// union-find problem", STOC 1991).
package unionfind

import "sync/atomic"

// Sequential is a union–find with union by rank and full path compression.
// Not safe for concurrent use.
type Sequential struct {
	parent []int32
	rank   []int8
}

// NewSequential creates a sequential union–find over n singleton elements.
func NewSequential(n int32) *Sequential {
	u := &Sequential{}
	u.Reset(n)
	return u
}

// Reset reinitializes the structure to n singleton elements, reusing the
// backing arrays when they are large enough (grow-only, for workspace
// pooling). Not safe for concurrent use, like every other method.
func (u *Sequential) Reset(n int32) {
	if int(n) > cap(u.parent) {
		u.parent = make([]int32, n)
		u.rank = make([]int8, n)
	} else {
		u.parent = u.parent[:n]
		u.rank = u.rank[:n]
	}
	for i := int32(0); i < n; i++ {
		u.parent[i] = i
		u.rank[i] = 0
	}
}

// Find returns the representative of x's set, compressing the path.
func (u *Sequential) Find(x int32) int32 {
	root := x
	for u.parent[root] != root {
		root = u.parent[root]
	}
	for u.parent[x] != root {
		u.parent[x], x = root, u.parent[x]
	}
	return root
}

// Union merges the sets containing x and y.
func (u *Sequential) Union(x, y int32) {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return
	}
	switch {
	case u.rank[rx] < u.rank[ry]:
		u.parent[rx] = ry
	case u.rank[rx] > u.rank[ry]:
		u.parent[ry] = rx
	default:
		u.parent[ry] = rx
		u.rank[rx]++
	}
}

// Same reports whether x and y are in the same set (IsSameSet in the paper).
func (u *Sequential) Same(x, y int32) bool {
	return u.Find(x) == u.Find(y)
}

// Len returns the number of elements.
func (u *Sequential) Len() int32 {
	return int32(len(u.parent))
}

// Concurrent is a wait-free union–find safe for fully concurrent Find,
// Union and Same calls.
//
// Linking discipline: a root may only ever be linked under a root with a
// *smaller* index, installed by CAS on the root's own parent slot. Because
// parents strictly decrease along any path, no cycle can form, and a failed
// CAS simply means another thread linked the same root first — the
// operation retries with fresh roots. Finds use atomic path halving, which
// is safe because it only ever re-points a node to its current grandparent.
//
// The smaller-index-wins discipline also yields a useful deterministic
// property: the representative of a set is always its minimum member.
type Concurrent struct {
	parent []int32
}

// NewConcurrent creates a concurrent union–find over n singleton elements.
func NewConcurrent(n int32) *Concurrent {
	u := &Concurrent{}
	u.Reset(n)
	return u
}

// Reset reinitializes the structure to n singleton elements, reusing the
// backing array when it is large enough (grow-only, for workspace pooling).
// It must only be called while no concurrent operations are in flight; the
// caller provides the quiescence barrier (e.g. a completed run).
func (u *Concurrent) Reset(n int32) {
	if int(n) > cap(u.parent) {
		u.parent = make([]int32, n)
	} else {
		u.parent = u.parent[:n]
	}
	for i := int32(0); i < n; i++ {
		//lint:atomicok quiescent by contract: Reset requires no concurrent Find/Union in flight
		u.parent[i] = i
	}
}

// Find returns the representative of x's set. Wait-free: each iteration
// either terminates or permanently shortens x's path via CAS path halving.
func (u *Concurrent) Find(x int32) int32 {
	for {
		p := atomic.LoadInt32(&u.parent[x])
		if p == x {
			return x
		}
		gp := atomic.LoadInt32(&u.parent[p])
		if gp == p {
			return p
		}
		// Path halving; failure is benign (someone else compressed).
		atomic.CompareAndSwapInt32(&u.parent[x], p, gp)
		x = gp
	}
}

// Union merges the sets containing x and y (lock-free).
func (u *Concurrent) Union(x, y int32) {
	for {
		rx := u.Find(x)
		ry := u.Find(y)
		if rx == ry {
			return
		}
		if rx > ry {
			rx, ry = ry, rx
		}
		// Link the larger root under the smaller one. CAS can only fail if
		// ry stopped being a root, in which case we retry from fresh roots.
		if atomic.CompareAndSwapInt32(&u.parent[ry], ry, rx) {
			return
		}
	}
}

// Same reports whether x and y are currently in the same set. In a
// concurrent execution this is a snapshot answer: a false result may be
// stale if a racing Union merges the sets, which is exactly the semantics
// pSCAN's IsSameSet pruning needs (a stale false only costs an extra
// similarity computation, never correctness).
func (u *Concurrent) Same(x, y int32) bool {
	for {
		rx := u.Find(x)
		ry := u.Find(y)
		if rx == ry {
			return true
		}
		// Confirm rx is still a root; if so, the sets were momentarily
		// distinct and false is a consistent answer.
		if atomic.LoadInt32(&u.parent[rx]) == rx {
			return false
		}
	}
}

// Len returns the number of elements.
func (u *Concurrent) Len() int32 {
	return int32(len(u.parent))
}
