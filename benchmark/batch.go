package main

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"ppscan"
	"ppscan/graph"
)

// report is what one run of one workload produced.
type report struct {
	attempted, failed int
	firstFailure      string
	metrics           map[string]float64
	notes             []string // sample counts and the like, printed but not gated
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// run is one invocation's settings.
type run struct {
	w       *workload
	seed    int64
	seconds float64
	quick   bool
	trace   bool
	clients int
	setups  int // how many times set-up is measured; the median is reported
	env     *env
	// corrupt, set only by tests, spoils the reference answers so that the
	// checks inside the measurement can be seen to fail.
	corrupt bool
}

// share is the given share of the run's window.
func (r *run) share(f float64) time.Duration {
	return time.Duration(f * r.seconds * float64(time.Second))
}

// refAnswers computes the oracle's clustering for every key.
func (r *run) refAnswers(g *graph.Graph, keys []key) (map[key]*ppscan.Result, error) {
	ref := newReference(g)
	out := make(map[key]*ppscan.Result, len(keys))
	for _, k := range keys {
		res, err := ref.cluster(k.Eps, k.Mu)
		if err != nil {
			return nil, err
		}
		if r.corrupt {
			res.CoreClusterID[0]++
			res.NonCore = append(res.NonCore, ppscan.Membership{V: 0, ClusterID: 0})
		}
		out[k] = res
	}
	return out, nil
}

// pass runs every ε of a batch workload once on ws and returns the wall
// time of the runs alone, per ε. check sees each result while it is still
// valid (before the workspace is reused).
func pass(g *graph.Graph, keys []key, opt ppscan.Options, ws *ppscan.Workspace, t *track, op int64,
	check func(k key, res *ppscan.Result)) ([]time.Duration, error) {
	durs := make([]time.Duration, len(keys))
	root := t.open("pass", -1, op, time.Now())
	for i, k := range keys {
		opt.Epsilon, opt.Mu = k.Eps, k.Mu
		t0 := time.Now()
		res, err := ppscan.RunWorkspace(context.Background(), g, opt, ws)
		t1 := time.Now()
		durs[i] = t1.Sub(t0)
		if err != nil {
			return nil, fmt.Errorf("eps=%s mu=%d: %w", k.Eps, k.Mu, err)
		}
		if t != nil {
			// The engine's own stage times, laid end to end under the call
			// that produced them.
			runSpan := t.add("ppscan.RunWorkspace eps="+k.Eps, root, op, t0, t1)
			at := t0
			for ph, d := range res.Stats.PhaseTimes {
				t.add("core."+stageNames[ph], runSpan, op, at, at.Add(d))
				at = at.Add(d)
			}
		}
		c0 := time.Now()
		check(k, res)
		t.add("check", root, op, c0, time.Now())
	}
	t.close(root, time.Now())
	return durs, nil
}

// stageNames are the four reported ppSCAN stages, in Stats.PhaseTimes order.
var stageNames = [...]string{"prune", "check", "cluster", "noncore"}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resetPeakRSS makes VmHWM count from now: it returns freed heap to the
// system and clears the kernel's high-water mark, so the generator's and
// the oracle's transient memory are not billed to the engine. Where the
// kernel refuses, the peak simply includes them.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// runBatch measures a batch workload: the ppscan facade in this process,
// engine ppscan on a warm workspace.
func (r *run) runBatch() (*report, error) {
	in, err := makeInputs(r.w, r.seed, r.quick, r.seconds, 0, r.env.tmp)
	if err != nil {
		return nil, err
	}
	want, err := r.refAnswers(in.g, in.keys)
	if err != nil {
		return nil, err
	}
	in.g = nil // the program gets the file, not the generator's graph
	resetPeakRSS()

	rep := &report{metrics: map[string]float64{}}
	check := func(k key, res *ppscan.Result) {
		rep.attempted++
		if err := ppscan.Equal(want[k], res); err != nil {
			rep.fail("eps=%s mu=%d: %v", k.Eps, k.Mu, err)
		}
	}

	// Set-up: load the graph file and run the first (cold) pass.
	var g *graph.Graph
	var ws *ppscan.Workspace
	var setups []float64
	for i := 0; i < r.setups; i++ {
		if ws != nil {
			ws.Close()
		}
		t0 := time.Now()
		if g, err = graph.LoadFile(in.graphFile); err != nil {
			return nil, err
		}
		ws = ppscan.NewWorkspace()
		if _, err := pass(g, in.keys, ppscan.Options{}, ws, nil, 0, check); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer ws.Close()

	if r.trace {
		return rep, r.traceBatch(rep, in, g, ws, check)
	}

	heavy := 0
	for i, k := range in.keys {
		if k.Eps == r.w.heavy {
			heavy = i
		}
	}
	var passMS, heavyMS []float64
	failedBefore := rep.failed
	start := time.Now()
	deadline := start.Add(r.share(1))
	for time.Now().Before(deadline) {
		durs, err := pass(g, in.keys, ppscan.Options{}, ws, nil, 0, check)
		if err != nil {
			return nil, err
		}
		passMS = append(passMS, ms(sum(durs)))
		heavyMS = append(heavyMS, ms(durs[heavy]))
	}
	elapsed := time.Since(start).Seconds()

	rep.metrics["setup_s"] = median(setups)
	rep.metrics["req_per_s"] = float64(len(passMS)*len(in.keys)-(rep.failed-failedBefore)) / elapsed
	rep.metrics["lat_p50_ms"] = median(passMS)
	rep.metrics["lat_tail_ms"] = percentile(passMS, r.w.tail)
	rep.metrics["heavy_p50_ms"] = median(heavyMS)
	rep.metrics["peak_rss_mb"] = peakRSSMB(0)
	rep.note("passes n=%d (one pass = eps %v at mu=%d); lat_* are per pass, tail = p%.0f; heavy op = the eps=%s run",
		len(passMS), r.w.eps, r.w.mu, r.w.tail, r.w.heavy)
	return rep, nil
}
