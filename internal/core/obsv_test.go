package core

// Observability contract tests: the registry and result.Stats must be two
// consistent read-outs of the same per-worker counters, and a traced run
// must produce the P1–P7 coordinator spans with task spans nested on
// worker tracks.

import (
	"testing"

	"ppscan/internal/engine"
	"ppscan/internal/gen"
	"ppscan/internal/intersect"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
)

func TestRunPublishesRegistryMetrics(t *testing.T) {
	g := gen.ErdosRenyi(500, 4000, 11)
	th, _ := simdef.NewThreshold("0.5", 3)
	reg := obsv.New()
	res := run(g, th, engine.Options{Kernel: intersect.PivotBlock16, Workers: 4, Registry: reg})

	if got := reg.Counter(obsv.MetricCoreRuns).Value(); got != 1 {
		t.Errorf("core.runs = %d, want 1", got)
	}
	// CompSim totals must agree between the registry and result.Stats.
	if got := reg.Counter(obsv.MetricCompSimCalls).Value(); got != res.Stats.CompSimCalls {
		t.Errorf("registry compsim_calls = %d, Stats = %d", got, res.Stats.CompSimCalls)
	}
	var byPhase int64
	for p := result.PhaseID(0); p < result.NumPhases; p++ {
		n := reg.Counter(obsv.MetricCompSimPrefix + result.PhaseNames[p]).Value()
		if n != res.Stats.CompSimByPhase[p] {
			t.Errorf("phase %v compsim = %d, Stats = %d", p, n, res.Stats.CompSimByPhase[p])
		}
		byPhase += n
		ns := reg.Counter(obsv.MetricPhaseNsPrefix + result.PhaseNames[p]).Value()
		if ns != res.Stats.PhaseTimes[p].Nanoseconds() {
			t.Errorf("phase %v ns = %d, Stats = %d", p, ns, res.Stats.PhaseTimes[p].Nanoseconds())
		}
	}
	if byPhase != res.Stats.CompSimCalls {
		t.Errorf("per-phase compsim sum %d != total %d", byPhase, res.Stats.CompSimCalls)
	}
	// Kernel telemetry: registry mirrors Stats.Kernel, and outcomes add up.
	k := res.Stats.Kernel
	if k.Calls != res.Stats.CompSimCalls {
		t.Errorf("kernel calls %d != compsim calls %d", k.Calls, res.Stats.CompSimCalls)
	}
	if k.Sim+k.NSim != k.Calls {
		t.Errorf("kernel Sim %d + NSim %d != Calls %d", k.Sim, k.NSim, k.Calls)
	}
	if got := reg.Counter(obsv.MetricKernelCalls).Value(); got != k.Calls {
		t.Errorf("registry kernel.calls = %d, Stats.Kernel.Calls = %d", got, k.Calls)
	}
	if got := reg.Counter(obsv.MetricKernelScanned).Value(); got != k.Scanned {
		t.Errorf("registry kernel scanned = %d, Stats %d", got, k.Scanned)
	}
	// The scheduler must have reported tasks for the seven phases.
	if got := reg.Counter(obsv.MetricSchedTasks).Value(); got < int64(result.NumPhases) {
		t.Errorf("sched tasks = %d, want >= %d", got, result.NumPhases)
	}
	if got := reg.Histogram(obsv.MetricSchedTaskDegreeSum).Count(); got != reg.Counter(obsv.MetricSchedTasks).Value() {
		t.Errorf("degree-sum observations %d != tasks %d", got, reg.Counter(obsv.MetricSchedTasks).Value())
	}
}

func TestRunWithNopRegistry(t *testing.T) {
	g := gen.CliqueChain(3, 5)
	th, _ := simdef.NewThreshold("0.6", 2)
	res := run(g, th, engine.Options{Kernel: intersect.MergeEarly, Workers: 2, Registry: obsv.NewNop()})
	// CompSim counting stays (it is result.Stats' own field); kernel
	// telemetry is off.
	if res.Stats.CompSimCalls == 0 {
		t.Errorf("CompSimCalls = 0 with nop registry")
	}
	if res.Stats.Kernel.Calls != 0 {
		t.Errorf("kernel telemetry collected under nop registry: %+v", res.Stats.Kernel)
	}
}

func TestRunTraceSpans(t *testing.T) {
	g := gen.ErdosRenyi(400, 3000, 3)
	th, _ := simdef.NewThreshold("0.5", 3)
	tr := obsv.NewTracer()
	const workers = 3
	run(g, th, engine.Options{Kernel: intersect.PivotBlock16, Workers: workers,
		Registry: obsv.New(), Tracer: tr})

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
