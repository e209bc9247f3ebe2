package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppscan/internal/result"
)

// TestCrewProcessesAllVertices: every needed vertex is processed exactly
// once per phase, across several phases — of both cuts — reusing the same
// crew.
func TestCrewProcessesAllVertices(t *testing.T) {
	c := NewCrew(4)
	defer c.Close()
	const n = int32(10_000)
	deg := func(u int32) int32 { return u % 97 }
	need := func(u int32) bool { return u%3 != 0 }
	for phase := 0; phase < 6; phase++ {
		var hits [n]int32
		process := func(u int32, worker int) { atomic.AddInt32(&hits[u], 1) }
		var err error
		if phase%2 == 0 {
			err = c.ForEachVertex(Options{DegreeThreshold: 512}, n, need, deg, process, nil)
		} else {
			err = c.ForEachVertexStatic(Options{}, n, need, process, nil)
		}
		if err != nil {
			t.Fatalf("phase %d: %v", phase, err)
		}
		for u := int32(0); u < n; u++ {
			want := int32(1)
			if u%3 == 0 {
				want = 0
			}
			if hits[u] != want {
				t.Fatalf("phase %d: vertex %d processed %d times, want %d", phase, u, hits[u], want)
			}
		}
	}
}

// TestCrewEmptyAndTinyPhases: n <= 0 and all-filtered phases complete
// without submitting, and a single-vertex phase works.
func TestCrewEmptyAndTinyPhases(t *testing.T) {
	c := NewCrew(3)
	defer c.Close()
	c.ForEachVertex(Options{}, 0, always, unit, func(int32, int) { t.Error("processed vertex of empty phase") }, nil)
	c.ForEachVertex(Options{}, 100, func(int32) bool { return false },
		unit, func(int32, int) { t.Error("processed filtered vertex") }, nil)
	ran := false
	c.ForEachVertex(Options{}, 1, always, unit, func(u int32, w int) { ran = u == 0 }, nil)
	if !ran {
		t.Fatal("single-vertex phase did not run")
	}
}

// TestCrewSurvivesPanic: a contained panic costs the phase, not the crew —
// its workers serve the next phase, whose result is exact.
func TestCrewSurvivesPanic(t *testing.T) {
	c := NewCrew(3)
	defer c.Close()
	const n = int32(5000)
	for _, static := range []bool{false, true} {
		phase := func(process func(int32, int)) error {
			if static {
				return c.ForEachVertexStatic(Options{Phase: "p"}, n, nil, process, nil)
			}
			return c.ForEachVertex(Options{Phase: "p", DegreeThreshold: 32}, n, always, unit, process, nil)
		}
		var wpe *result.WorkerPanicError
		if err := phase(func(u int32, w int) { panic(u) }); !errors.As(err, &wpe) {
			t.Fatalf("static=%v: err = %v, want *result.WorkerPanicError", static, err)
		}
		var processed atomic.Int64
		if err := phase(func(int32, int) { processed.Add(1) }); err != nil {
			t.Fatalf("static=%v: phase after a contained panic: %v", static, err)
		}
		if got := processed.Load(); got != int64(n) {
			t.Errorf("static=%v: phase after a contained panic processed %d of %d", static, got, n)
		}
	}
}

// TestCrewConcurrentWorkersUsed: more than one worker participates. The
// first worker to enter the task body holds there until a second distinct
// worker id has entered too (bounded, so a crew that really starves its
// other workers fails instead of hanging) — on a 2-core host one worker
// can otherwise drain the whole queue before a second one wakes.
func TestCrewConcurrentWorkersUsed(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >= 2 procs")
	}
	c := NewCrew(4)
	defer c.Close()
	wait, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var mu sync.Mutex
	workers := map[int]bool{}
	c.ForEachVertex(Options{DegreeThreshold: 16}, 50_000, always, unit,
		func(u int32, w int) {
			mu.Lock()
			workers[w] = true
			if len(workers) >= 2 {
				cancel() // releases the holder, and every later wait
			}
			mu.Unlock()
			<-wait.Done()
		}, nil)
	if len(workers) < 2 {
		t.Errorf("only %d workers participated, want >= 2", len(workers))
	}
}
