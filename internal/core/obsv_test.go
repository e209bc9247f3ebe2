package core

// Observability contract tests: result.Stats is the one record of a run
// and its parts add up, and a traced run must produce the P1–P7
// coordinator spans with task spans nested on worker tracks.

import (
	"testing"

	"ppscan/internal/engine"
	"ppscan/internal/gen"
	"ppscan/internal/intersect"
	"ppscan/internal/obsv"
	"ppscan/internal/simdef"
)

func TestRunPublishesRegistryMetrics(t *testing.T) {
	g := gen.ErdosRenyi(500, 4000, 11)
	th, _ := simdef.NewThreshold("0.5", 3)
	for _, workers := range []int{1, 4} {
		res := run(g, th, engine.Options{Kernel: intersect.PivotBlock16, Workers: workers})
		st := res.Stats
		if st.CompSimCalls == 0 {
			t.Fatalf("workers=%d: no CompSim calls", workers)
		}
		// The per-stage decomposition sums to the total.
		var byPhase int64
		for _, n := range st.CompSimByPhase {
			byPhase += n
		}
		if byPhase != st.CompSimCalls {
			t.Errorf("workers=%d: per-phase compsim sum %d != total %d", workers, byPhase, st.CompSimCalls)
		}
		// Kernel telemetry is on for every run, and its outcomes add up.
		k := st.Kernel
		if k.Calls != st.CompSimCalls {
			t.Errorf("workers=%d: kernel calls %d != compsim calls %d", workers, k.Calls, st.CompSimCalls)
		}
		if k.Sim+k.NSim != k.Calls {
			t.Errorf("workers=%d: kernel Sim %d + NSim %d != Calls %d", workers, k.Sim, k.NSim, k.Calls)
		}
	}
}

func TestRunTraceSpans(t *testing.T) {
	g := gen.ErdosRenyi(400, 3000, 3)
	th, _ := simdef.NewThreshold("0.5", 3)
	tr := obsv.NewTracer()
	const workers = 3
	run(g, th, engine.Options{Kernel: intersect.PivotBlock16, Workers: workers, Tracer: tr})

	phases := map[string]int{}
	tasks := 0
	for _, e := range tr.Events() {
		if e.Ph != "X" {
			continue
		}
		if e.TID == 0 {
			phases[e.Name]++
		} else {
			if e.TID < 1 || e.TID > workers {
				t.Errorf("task span on tid %d, want 1..%d", e.TID, workers)
			}
			tasks++
		}
	}
	for _, want := range []string{
		"P1 prune-sim", "P2 check-core", "P3 consolidate-core",
		"P4 cluster-core", "P5 cluster-core-compsim",
		"P6 init-cluster-id", "P7 cluster-non-core",
	} {
		if phases[want] != 1 {
			t.Errorf("coordinator span %q recorded %d times, want 1", want, phases[want])
		}
	}
	if tasks == 0 {
		t.Errorf("no task spans on worker tracks")
	}
}
