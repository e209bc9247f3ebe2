package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppscan/internal/obsv"
)

// TestCrewProcessesAllVertices: every needed vertex is processed exactly
// once per phase, across several phases reusing the same crew.
func TestCrewProcessesAllVertices(t *testing.T) {
	c := NewCrew(4)
	defer c.Close()
	const n = int32(10_000)
	deg := func(u int32) int32 { return u % 97 }
	for phase := 0; phase < 5; phase++ {
		var hits [n]int32
		need := func(u int32) bool { return u%3 != 0 }
		c.ForEachVertex(Options{DegreeThreshold: 512}, n, need,
			deg,
			func(u int32, worker int) { atomic.AddInt32(&hits[u], 1) },
			nil)
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

// TestCrewStop: once stop reports true, the coordinator stops submitting
// and workers drain queued tasks without running them, so the phase ends
// early with only a prefix processed.
func TestCrewStop(t *testing.T) {
	c := NewCrew(2)
	defer c.Close()
	const n = int32(100_000)
	var processed atomic.Int64
	var stopped atomic.Bool
	c.ForEachVertex(Options{DegreeThreshold: 64}, n,
		func(int32) bool { return true },
		func(int32) int32 { return 1 },
		func(u int32, worker int) {
			if processed.Add(1) > 500 {
				stopped.Store(true)
			}
		},
		stopped.Load)
	if got := processed.Load(); got >= int64(n) {
		t.Fatalf("processed %d vertices, want early stop well below %d", got, n)
	}
}

// TestCrewEmptyAndTinyPhases: n <= 0 and all-filtered phases complete
// without submitting, and a single-vertex phase works.
func TestCrewEmptyAndTinyPhases(t *testing.T) {
	c := NewCrew(3)
	defer c.Close()
	c.ForEachVertex(Options{}, 0, func(int32) bool { return true },
		func(int32) int32 { return 1 }, func(int32, int) { t.Error("processed vertex of empty phase") }, nil)
	c.ForEachVertex(Options{}, 100, func(int32) bool { return false },
		func(int32) int32 { return 1 }, func(int32, int) { t.Error("processed filtered vertex") }, nil)
	ran := false
	c.ForEachVertex(Options{}, 1, func(int32) bool { return true },
		func(int32) int32 { return 1 }, func(u int32, w int) { ran = u == 0 }, nil)
	if !ran {
		t.Fatal("single-vertex phase did not run")
	}
}

// TestCrewMetrics: instruments fire like Pool's — every needed vertex's
// degree lands in exactly one task, ranges tile [0, n), and the timed path
// (queue wait + worker busy) engages.
func TestCrewMetrics(t *testing.T) {
	reg := obsv.New()
	m := &Metrics{
		TasksSubmitted: reg.Counter("sched.tasks_submitted"),
		TaskDegreeSum:  reg.Histogram("sched.task_degree_sum"),
		TaskVertices:   reg.Histogram("sched.task_vertices"),
		QueueWaitNs:    reg.Histogram("sched.queue_wait_ns"),
		WorkerBusyNs:   reg.Sharded("sched.worker_busy_ns", 2),
	}
	c := NewCrew(2)
	defer c.Close()
	const n = int32(4096)
	c.ForEachVertex(Options{DegreeThreshold: 100, Metrics: m}, n,
		func(int32) bool { return true },
		func(int32) int32 { return 3 },
		func(int32, int) {}, nil)
	tasks := m.TasksSubmitted.Value()
	if tasks == 0 {
		t.Fatal("no tasks counted")
	}
	if got := m.TaskVertices.Sum(); got != int64(n) {
		t.Fatalf("task vertices sum %d, want %d", got, n)
	}
	if got := m.TaskDegreeSum.Sum(); got != 3*int64(n) {
		t.Fatalf("task degree sum %d, want %d", got, 3*int64(n))
	}
	if got := m.QueueWaitNs.Count(); got != tasks {
		t.Fatalf("queue-wait observations %d, want %d", got, tasks)
	}
	if m.WorkerBusyNs.Value() <= 0 {
		t.Fatal("worker busy time not recorded")
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
	c.ForEachVertex(Options{DegreeThreshold: 16}, 50_000,
		func(int32) bool { return true },
		func(int32) int32 { return 1 },
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
