package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"ppscan"
)

// testRun is a quick run of one workload in a scratch directory of its own.
func testRun(t *testing.T, name string) *run {
	t.Helper()
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		stopAll()
		os.RemoveAll(e.tmp)
	})
	return &run{w: findWorkload(name), seed: 7, seconds: 0.5, quick: true, clients: 2, setups: 1, env: e}
}

// The same seed must give a byte-identical graph file and identical
// schedules and mutation batches; another seed must not.
func TestSeedDeterminesInputs(t *testing.T) {
	w := findWorkload("serve-churn")
	gen := func(seed int64) (*inputs, []byte) {
		in, err := makeInputs(w, seed, true, 1, 2, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(in.graphFile)
		if err != nil {
			t.Fatal(err)
		}
		return in, file
	}
	a, fileA := gen(5)
	b, fileB := gen(5)
	c, fileC := gen(6)
	if !bytes.Equal(fileA, fileB) {
		t.Error("same seed, different graph files")
	}
	if !reflect.DeepEqual(a.scheds, b.scheds) || !reflect.DeepEqual(a.bodies, b.bodies) {
		t.Error("same seed, different schedules or batches")
	}
	if bytes.Equal(fileA, fileC) || reflect.DeepEqual(a.scheds, c.scheds) || reflect.DeepEqual(a.bodies, c.bodies) {
		t.Error("different seeds gave the same graph file, schedules or batches")
	}
	// Round-robin workloads visit the keys in seeded order; Zipf workloads
	// fix each key's popularity and seed the draws.
	direct := findWorkload("serve-direct")
	order := func(seed int64) []key {
		in, err := makeInputs(direct, seed, true, 1, 2, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return in.keys
	}
	if !reflect.DeepEqual(order(5), order(5)) || reflect.DeepEqual(order(5), order(6)) {
		t.Error("round-robin key order does not follow the seed")
	}
	if !reflect.DeepEqual(a.keys, c.keys) {
		t.Error("Zipf popularity ranks moved with the seed")
	}
	posts := 0
	for _, o := range a.scheds[0] {
		if o.kind == opPost {
			posts++
		}
	}
	if posts != len(a.batches) || posts == 0 {
		t.Errorf("client 0 schedules %d writes for %d batches", posts, len(a.batches))
	}
}

// The oracle shares no code with the engines; pSCAN, the sequential
// baseline, must agree with it on both graph shapes.
func TestReferenceAgreesWithPSCAN(t *testing.T) {
	for _, w := range []*workload{findWorkload("batch-community"), findWorkload("batch-skewed")} {
		g := w.graph.make(11, true)
		ref := newReference(g)
		for _, eps := range w.eps {
			want, err := ref.cluster(eps, w.mu)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ppscan.Run(g, ppscan.Options{Algorithm: ppscan.AlgoPSCAN, Epsilon: eps, Mu: w.mu})
			if err != nil {
				t.Fatal(err)
			}
			if err := ppscan.Equal(want, got); err != nil {
				t.Errorf("%s eps=%s: %v", w.graph.name, eps, err)
			}
		}
	}
}

// A spoiled reference must show up as failed operations, inside the
// measurement, on the facade path, the HTTP path and the churn replay, and
// turn the exit code non-zero.
func TestCorruptedReferenceFails(t *testing.T) {
	for _, name := range []string{"batch-community", "serve-index", "serve-churn"} {
		r := testRun(t, name)
		r.corrupt = true
		rep, err := r.measure()
		if name == "serve-index" {
			// The warm-up reads are checked too: set-up itself refuses.
			if err == nil || !strings.Contains(err.Error(), "warm-up read failed") {
				t.Errorf("%s: err = %v, want a failed warm-up read", name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.failed == 0 || rep.firstFailure == "" {
			t.Errorf("%s: corrupted reference went unnoticed: attempted %d failed %d", name, rep.attempted, rep.failed)
		}
		if printReport(r, rep) {
			t.Errorf("%s: reported correct with %d failures", name, rep.failed)
		}
	}
	if code := realMain("batch-skewed", 7, 0.2, false, true, 1, true); code == 0 {
		t.Error("exit code 0 with a corrupted reference")
	}
}

// The counters the roadmap wants gated at zero tolerance must repeat to
// the unit: CompSim calls per stage with one worker, and what the kernels
// scan on the seeded edge sample.
func TestExactCountersRepeat(t *testing.T) {
	w := findWorkload("batch-skewed")
	g := w.graph.make(3, true)
	var keys []key
	for _, eps := range w.eps {
		keys = append(keys, key{eps, w.mu})
	}
	count := func() map[string]float64 {
		m := map[string]float64{}
		ws := ppscan.NewWorkspace()
		defer ws.Close()
		if err := probeCore(m, nil, g, keys, ws); err != nil {
			t.Fatal(err)
		}
		if err := probeIntersect(m, nil, g, "0.5", 3); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := count(), count()
	exact := 0
	for name, v := range a {
		if strings.HasPrefix(name, "core.compsim.") || strings.HasSuffix(name, ".elems_scanned") || strings.HasSuffix(name, ".vector_blocks") {
			exact++
			if v != b[name] {
				t.Errorf("%s: %v then %v", name, v, b[name])
			}
		}
	}
	if exact != 7 || a["core.compsim.check"] == 0 || a["intersect.pivot-block16.vector_blocks"] == 0 {
		t.Errorf("exact counters missing or zero: %v", a)
	}
}

// runDirs lists the per-run scratch directories under .bench_build.
func runDirs(t *testing.T) []string {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	dirs, _ := filepath.Glob(filepath.Join(root, ".bench_build", "run-*"))
	return dirs
}

// Every workload, untraced and traced, on the real binaries: launch, port
// discovery, /metrics parsing, every check, and nothing left behind.
func TestQuickRunOfEveryWorkload(t *testing.T) {
	before := runDirs(t)
	for _, trace := range []bool{false, true} {
		if code := realMain("", 7, 0.5, trace, true, 1, false); code != 0 {
			t.Fatalf("trace=%v: exit code %d", trace, code)
		}
	}
	procs.Lock()
	live := len(procs.live)
	procs.Unlock()
	if live != 0 {
		t.Errorf("%d child processes still tracked after the runs", live)
	}
	if after := runDirs(t); len(after) > len(before) {
		t.Errorf("scratch directories left behind: %v", after)
	}
	root, _ := findRoot()
	for _, w := range workloads {
		data, err := os.ReadFile(filepath.Join(root, "benchmark", "out", "trace-"+w.name+".json"))
		var tf struct{ TraceEvents []map[string]any }
		if err != nil || json.Unmarshal(data, &tf) != nil || len(tf.TraceEvents) == 0 {
			t.Errorf("%s: no readable trace file: %v", w.name, err)
		}
	}
}

// children lists the direct children of pid.
func children(pid int) []int {
	var out []int
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	for _, path := range stats {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		// pid (comm) state ppid …; comm may hold spaces, so cut at the last ')'.
		_, rest, ok := strings.Cut(string(data), ") ")
		fields := strings.Fields(rest)
		if !ok || len(fields) < 2 {
			continue
		}
		if ppid, _ := strconv.Atoi(fields[1]); ppid == pid {
			child, _ := strconv.Atoi(filepath.Base(filepath.Dir(path)))
			out = append(out, child)
		}
	}
	return out
}

// SIGINT in the middle of a fleet window must take the three children and
// the scratch directory with it.
func TestInterruptStopsChildren(t *testing.T) {
	before := runDirs(t)
	bin := filepath.Join(t.TempDir(), "benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-workload", "serve-fleet", "-quick", "-seconds", "30")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var kids []int
	for deadline := time.Now().Add(20 * time.Second); len(kids) < 3 && time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		kids = children(cmd.Process.Pid)
	}
	if len(kids) < 3 {
		cmd.Process.Kill()
		t.Fatalf("fleet never came up: children %v", kids)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 130 {
		t.Errorf("exit after SIGINT: %v, want code 130", err)
	}
	for _, pid := range kids {
		if syscall.Kill(pid, 0) == nil {
			t.Errorf("child %d survived the interrupt", pid)
		}
	}
	if after := runDirs(t); len(after) > len(before) {
		t.Errorf("scratch directories left behind: %v", after)
	}
}

// BENCHMARK.json is what the driver and later issues read; it must say
// what this package does.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) || spec.RunSeconds != 15 {
		t.Errorf("command %v paths %v run_seconds %d", spec.Command, spec.Paths, spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %+v, here %s: %s (%d chars)", i, spec.Workloads[i], w.name, w.why, len(w.why))
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s %d: %+v, here %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound %v, here %v", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
}

// The steadiness figure must be the one Python's statistics.quantiles
// (n=4, exclusive) gives.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{10, 12, 11, 13, 9, 14, 10.5, 11.5, 12.5, 13.5}
	// statistics.quantiles(xs, n=4) = [10.375, 11.75, 13.125]; median 11.75.
	if got, want := quartileSpread(xs), (13.125-10.375)/11.75; fmt.Sprintf("%.9f", got) != fmt.Sprintf("%.9f", want) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
