package unionfind

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestSequentialBasic(t *testing.T) {
	u := NewSequential(5)
	if u.Len() != 5 {
		t.Fatalf("Len = %d", u.Len())
	}
	for i := int32(0); i < 5; i++ {
		if u.Find(i) != i {
			t.Fatalf("singleton Find(%d) = %d", i, u.Find(i))
		}
	}
	u.Union(0, 1)
	u.Union(2, 3)
	if !u.Same(0, 1) || !u.Same(2, 3) {
		t.Errorf("unions not applied")
	}
	if u.Same(1, 2) {
		t.Errorf("unexpected merge")
	}
	u.Union(1, 3)
	if !u.Same(0, 2) {
		t.Errorf("transitive union failed")
	}
	if u.Same(0, 4) {
		t.Errorf("4 should be alone")
	}
}

func TestSequentialSelfUnion(t *testing.T) {
	u := NewSequential(3)
	u.Union(1, 1)
	u.Union(1, 2)
	u.Union(1, 2) // idempotent
	if !u.Same(1, 2) || u.Same(0, 1) {
		t.Errorf("self/repeat unions broken")
	}
}

func TestConcurrentSequentialSemantics(t *testing.T) {
	// Used single-threaded, Concurrent must behave like Sequential.
	rng := rand.New(rand.NewSource(5))
	n := int32(200)
	s := NewSequential(n)
	c := NewConcurrent(n)
	for i := 0; i < 500; i++ {
		x := int32(rng.Intn(int(n)))
		y := int32(rng.Intn(int(n)))
		s.Union(x, y)
		c.Union(x, y)
	}
	for x := int32(0); x < n; x++ {
		for y := x + 1; y < n; y += 17 {
			if s.Same(x, y) != c.Same(x, y) {
				t.Fatalf("partition mismatch at (%d,%d)", x, y)
			}
		}
	}
}

func TestConcurrentMinRepresentative(t *testing.T) {
	c := NewConcurrent(10)
	c.Union(9, 4)
	c.Union(4, 7)
	if got := c.Find(9); got != 4 {
		t.Errorf("representative = %d, want min member 4", got)
	}
	c.Union(7, 2)
	if got := c.Find(9); got != 2 {
		t.Errorf("representative = %d, want min member 2", got)
	}
}

func TestConcurrentParallelStress(t *testing.T) {
	// Many goroutines union random pairs constrained to chain components;
	// afterwards the partition must match a sequential replay.
	n := int32(2000)
	type pair struct{ x, y int32 }
	rng := rand.New(rand.NewSource(7))
	ops := make([]pair, 20000)
	for i := range ops {
		ops[i] = pair{int32(rng.Intn(int(n))), int32(rng.Intn(int(n)))}
	}
	c := NewConcurrent(n)
	workers := 8
	var wg sync.WaitGroup
	chunk := len(ops) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if w == workers-1 {
			hi = len(ops)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for _, p := range ops[lo:hi] {
				c.Union(p.x, p.y)
				_ = c.Same(p.x, p.y)
				_ = c.Find(p.x)
			}
		}(lo, hi)
	}
	wg.Wait()
	s := NewSequential(n)
	for _, p := range ops {
		s.Union(p.x, p.y)
	}
	// Compare induced partitions via canonical labels.
	canon := func(find func(int32) int32) []int32 {
		label := make(map[int32]int32)
		out := make([]int32, n)
		for i := int32(0); i < n; i++ {
			r := find(i)
			if _, ok := label[r]; !ok {
				label[r] = int32(len(label))
			}
			out[i] = label[r]
		}
		return out
	}
	cs := canon(c.Find)
	ss := canon(s.Find)
	for i := range cs {
		if cs[i] != ss[i] {
			t.Fatalf("concurrent and sequential partitions differ at %d", i)
		}
	}
}

func TestConcurrentUnionAllParallel(t *testing.T) {
	// All goroutines union everything into one set; final must be single.
	n := int32(512)
	c := NewConcurrent(n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(off int32) {
			defer wg.Done()
			for i := int32(0); i+1 < n; i++ {
				c.Union((i+off)%n, (i+off+1)%n)
			}
		}(int32(w) * 61)
	}
	wg.Wait()
	root := c.Find(0)
	if root != 0 {
		t.Errorf("root = %d, want 0 (min member)", root)
	}
	for i := int32(0); i < n; i++ {
		if c.Find(i) != root {
			t.Fatalf("element %d not merged", i)
		}
	}
}

// Property: union is commutative, associative and idempotent — the final
// partition depends only on the *set* of union operations, not their order.
func TestUnionOrderIndependenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(60)
		type pair struct{ x, y int32 }
		ops := make([]pair, 100)
		for i := range ops {
			ops[i] = pair{int32(rng.Intn(int(n))), int32(rng.Intn(int(n)))}
		}
		a := NewSequential(n)
		for _, p := range ops {
			a.Union(p.x, p.y)
		}
		b := NewSequential(n)
		perm := rng.Perm(len(ops))
		for _, i := range perm {
			b.Union(ops[i].x, ops[i].y)
		}
		for x := int32(0); x < n; x++ {
			for y := x + 1; y < n; y++ {
				if a.Same(x, y) != b.Same(x, y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSequentialUnionFind(b *testing.B) {
	n := int32(1 << 16)
	rng := rand.New(rand.NewSource(1))
	xs := make([]int32, 4096)
	ys := make([]int32, 4096)
	for i := range xs {
		xs[i] = int32(rng.Intn(int(n)))
		ys[i] = int32(rng.Intn(int(n)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := NewSequential(n)
		for j := range xs {
			u.Union(xs[j], ys[j])
		}
	}
}

func BenchmarkConcurrentUnionFindSingleThread(b *testing.B) {
	n := int32(1 << 16)
	rng := rand.New(rand.NewSource(1))
	xs := make([]int32, 4096)
	ys := make([]int32, 4096)
	for i := range xs {
		xs[i] = int32(rng.Intn(int(n)))
		ys[i] = int32(rng.Intn(int(n)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := NewConcurrent(n)
		for j := range xs {
			u.Union(xs[j], ys[j])
		}
	}
}
