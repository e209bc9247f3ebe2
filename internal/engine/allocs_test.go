package engine_test

import (
	"context"
	"testing"

	"ppscan/graph"
	"ppscan/internal/engine"
	"ppscan/internal/gen"
	"ppscan/internal/gsindex"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
)

// servingBudget is the acceptance bound: a warm run on a pooled workspace
// may perform at most this many heap allocations. It reads 2 (the Result
// header and its phase-stats backing); the bound is that plus 3.
const servingBudget = 5

func benchGraph() *graph.Graph { return gen.Roll(20_000, 16, 5) }

func benchThreshold(tb testing.TB) simdef.Threshold {
	th, err := simdef.NewThreshold("0.5", 4)
	if err != nil {
		tb.Fatal(err)
	}
	return th
}

// TestServingAllocBudget is the serving-hot-path allocation gate: after
// warmup, a ppSCAN run on a pooled workspace must stay within
// servingBudget heap allocations (the steady-state serving criterion —
// all O(n+m) scratch comes from the workspace).
//
// Skipped under -race (the race runtime allocates per instrumented
// access); `make check` runs this test in a dedicated non-race pass.
func TestServingAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	g := benchGraph()
	th := benchThreshold(t)
	opt := engine.Options{Workers: 4}
	ws := engine.NewWorkspace()
	defer ws.Close()
	ctx := context.Background()

	run := func() {
		if _, err := engine.Run(ctx, "ppscan", "", g, th, opt, ws); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: grow every buffer to this graph's size
	run()
	allocs := testing.AllocsPerRun(10, run)
	if allocs > servingBudget {
		t.Errorf("warm run allocates %.1f objects, budget %d", allocs, servingBudget)
	}
	t.Logf("warm run: %.1f allocs (budget %d)", allocs, servingBudget)
}

// TestServingAllocBudgetTraced is the same gate with always-on exemplar
// tracing: a pooled tracer (Reset between runs, as the server's tracer
// pool does) recording every phase and scheduler-task span must not push
// the warm run past the same servingBudget — the tail-latency exemplar
// machinery is free on the steady-state path.
func TestServingAllocBudgetTraced(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	g := benchGraph()
	th := benchThreshold(t)
	tr := obsv.NewTracer()
	opt := engine.Options{Workers: 4, Tracer: tr}
	ws := engine.NewWorkspace()
	defer ws.Close()
	ctx := context.Background()

	run := func() {
		tr.Reset()
		if _, err := engine.Run(ctx, "ppscan", "", g, th, opt, ws); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: grow the buffers AND the tracer's event slice
	run()
	allocs := testing.AllocsPerRun(10, run)
	if allocs > servingBudget {
		t.Errorf("traced warm run allocates %.1f objects, budget %d", allocs, servingBudget)
	}
	if tr.Len() == 0 {
		t.Fatal("tracer recorded no spans — the gate measured an untraced run")
	}
	t.Logf("traced warm run: %.1f allocs (budget %d), %d spans", allocs, servingBudget, tr.Len())
}

// TestServingAllocBudgetIndex is the same gate for the index: a warm
// QueryWorkspace (every indexed answer) and a warm 7-step SweepWorkspace
// (a sweep's missing gridpoints), each on one pooled workspace with its
// crew phases at one and at two workers, must stay within servingBudget
// per extracted step.
func TestServingAllocBudgetIndex(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	// Measured on a graph whose answer is not empty (benchGraph's is):
	// the benchmark's community graph at a fifth of its size.
	g := gen.PlantedPartition(200, 50, 0.5, 6e-5, 1)
	var grid []simdef.Epsilon // the benchmark's sweep, largest ε first
	for _, e := range []string{"0.6", "0.55", "0.5", "0.45", "0.4", "0.35", "0.3"} {
		grid = append(grid, simdef.MustEpsilon(e))
	}
	ctx := context.Background()
	for _, workers := range []int{1, 2} {
		ix := gsindex.Build(g, gsindex.BuildOptions{Workers: workers})
		ws := engine.NewWorkspace()
		var res *result.Result
		query := func() {
			var err error
			if res, err = ix.QueryWorkspace(ctx, "0.5", 4, ws); err != nil {
				t.Fatal(err)
			}
		}
		sweep := func() {
			if err := ix.SweepWorkspace(ctx, grid, 4, ws, func(int, *result.Result) {}); err != nil {
				t.Fatal(err)
			}
		}
		for _, tc := range []struct {
			name  string
			run   func()
			steps int
		}{{"extraction", query, 1}, {"7-step sweep", sweep, len(grid)}} {
			tc.run() // warm: grow every buffer and start the crew
			tc.run()
			perStep := testing.AllocsPerRun(10, tc.run) / float64(tc.steps)
			if perStep > servingBudget {
				t.Errorf("workers=%d: warm %s allocates %.1f objects per step, budget %d", workers, tc.name, perStep, servingBudget)
			}
			t.Logf("workers=%d: warm %s %.1f allocs per step (budget %d)", workers, tc.name, perStep, servingBudget)
		}
		ws.Close()
		if res.NumClusters() == 0 || len(res.NonCore) == 0 {
			t.Fatalf("workers=%d: the gate point has an empty answer", workers)
		}
	}
}

// BenchmarkEngineSteadyState measures the warm serving path: repeated runs
// on one pooled workspace. Compare with BenchmarkEngineColdRun (fresh
// workspace each run) to see the pooling win; `make bench-alloc` runs both
// with -benchmem.
func BenchmarkEngineSteadyState(b *testing.B) {
	g := benchGraph()
	th := benchThreshold(b)
	opt := engine.Options{Workers: 4}
	ws := engine.NewWorkspace()
	defer ws.Close()
	ctx := context.Background()
	if _, err := engine.Run(ctx, "ppscan", "", g, th, opt, ws); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(ctx, "ppscan", "", g, th, opt, ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineColdRun measures the unpooled path: every run pays the
// full O(n+m) scratch allocation and scheduler startup.
func BenchmarkEngineColdRun(b *testing.B) {
	g := benchGraph()
	th := benchThreshold(b)
	opt := engine.Options{Workers: 4}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws := engine.NewWorkspace()
		if _, err := engine.Run(ctx, "ppscan", "", g, th, opt, ws); err != nil {
			b.Fatal(err)
		}
		ws.Close()
	}
}
