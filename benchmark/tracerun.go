package main

import (
	"path/filepath"
	"time"

	"ppscan"
	"ppscan/graph"
)

// The traced run repeats a workload shortened, with the benchmark's spans
// on, beside an equally short run with them off (the difference is the
// tracing overhead), reads the program's own /metrics across the window,
// and runs the in-process probes of the layers the workload enters. It
// reports the per-layer metrics and writes benchmark/out/trace-<name>.json.

// finishTrace fills the metrics every traced run has in common, writes the
// trace file and lists each span name's self time.
func (r *run) finishTrace(rep *report, tr *tracer, untracedRate, tracedRate float64) error {
	if untracedRate > 0 {
		rep.metrics["trace.overhead_share"] = 1 - tracedRate/untracedRate
	}
	path := filepath.Join(r.env.root, "benchmark", "out", "trace-"+r.w.name+".json")
	if err := tr.writeChrome(path); err != nil {
		return err
	}
	rep.note("trace written to %s", path)
	for _, st := range tr.selfTimes() {
		rep.note("self %-34s n=%-6d total %9.2f ms  mean %8.3f ms", st.name, st.count, ms(st.total), ms(st.total)/float64(st.count))
	}
	for _, def := range perLayer {
		if _, ok := rep.metrics[def.name]; !ok {
			rep.metrics[def.name] = 0 // a layer this workload never enters
		}
	}
	return nil
}

// traceBatch is the traced run of a batch workload.
func (r *run) traceBatch(rep *report, in *inputs, g *graph.Graph, ws *ppscan.Workspace, check func(key, *ppscan.Result)) error {
	m := rep.metrics
	tr := newTracer(2)
	client, probe := tr.track(0), tr.track(1)
	share := r.share(0.3)

	// passesFor runs passes for about d and returns each pass's time in ms.
	passesFor := func(d time.Duration, opt ppscan.Options, t *track, each func(key, *ppscan.Result)) ([]float64, error) {
		var out []float64
		for end := time.Now().Add(d); len(out) == 0 || time.Now().Before(end); {
			durs, err := pass(g, in.keys, opt, ws, t, int64(len(out)), each)
			if err != nil {
				return nil, err
			}
			out = append(out, ms(sum(durs)))
		}
		return out, nil
	}
	untraced, err := passesFor(share, ppscan.Options{}, nil, check)
	if err != nil {
		return err
	}
	stages := 0
	traced, err := passesFor(share, ppscan.Options{}, client, func(k key, res *ppscan.Result) {
		check(k, res)
		stageMS(m, res)
		stages++
	})
	if err != nil {
		return err
	}
	for _, name := range stageNames { // per pass, averaged over the traced passes
		m["core.stage_ms."+name] /= float64(len(traced))
	}
	static, err := passesFor(share/3, ppscan.Options{StaticScheduling: true}, nil, check)
	if err != nil {
		return err
	}
	if err := probeCore(m, probe, g, in.keys, ws); err != nil {
		return err
	}
	m["sched.par_speedup"] = m["core.cluster_1w_s"] * 1e3 / median(untraced)
	m["sched.static_ratio"] = median(static) / median(untraced)
	mid := in.keys[len(in.keys)/2]
	probeEngines(m, probe, g, mid, ws)
	if err := probeIntersect(m, probe, g, mid.Eps, r.seed); err != nil {
		return err
	}
	if _, err := probeGraph(m, probe, in.graphFile); err != nil {
		return err
	}
	m["trace.client_ms"] = mean(traced)
	// The engine's four stages against the time the caller saw.
	stageSum := 0.0
	for _, name := range stageNames {
		stageSum += m["core.stage_ms."+name]
	}
	m["trace.layer_sum_share"] = stageSum / mean(traced)
	rep.note("passes: %d untraced, %d traced, %d static; stage times over %d runs", len(untraced), len(traced), len(static), stages)
	return r.finishTrace(rep, tr, 1/median(untraced), 1/median(traced))
}

// traceServe is the traced run of a serving workload: one client, so that
// a request's time is its own and not its neighbours'.
func (r *run) traceServe(s *session) (*report, error) {
	var extra []string
	if r.w.fleet {
		extra = []string{"-mutations"} // for the publish probe after the reads
	}
	d, _, err := r.setUp(s, extra...)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	rep := &report{metrics: map[string]float64{}}
	m := rep.metrics
	tr := newTracer(2)
	probe := tr.track(1)

	before, err := fetchMetrics(hc, d.base)
	if err != nil {
		return nil, err
	}
	untraced, untracedFor := s.window(r.share(0.3), 1, nil)
	traced, tracedFor := s.window(r.share(0.4), 1, tr)
	after, err := fetchMetrics(hc, d.base)
	if err != nil {
		return nil, err
	}

	var reads, sweeps, posts, compSims []float64
	count := func(logs [][]sample) (ok int) {
		for _, sm := range logs[0] {
			rep.attempted++
			if !sm.ok {
				rep.failed++
				continue
			}
			ok++
			switch sm.op.kind {
			case opGet:
				reads = append(reads, ms(sm.dur))
				compSims = append(compSims, float64(sm.compSims))
			case opSweep:
				sweeps = append(sweeps, ms(sm.dur))
			case opPost:
				posts = append(posts, ms(sm.dur))
			}
		}
		return ok
	}
	untracedRate := float64(count(untraced)) / untracedFor.Seconds()
	tracedRate := float64(count(traced)) / tracedFor.Seconds()
	if s.churn {
		if _, err := s.verifyChurn(append(untraced, traced...), rep, 20); err != nil {
			return nil, err
		}
	}

	// What the program says about the same interval.
	serverMS := after.meanMS(before, "http.latency_ns.cluster")
	m["trace.client_ms"] = mean(reads)
	m["server.wire_ms"] = mean(reads) - serverMS
	m["server.compute_ms"] = after.meanMS(before, "server.compute_ns")
	// Of the reads: every sweep step is a lookup too, and by construction a
	// miss (see sweepMus).
	if lookups := after.delta(before, "cache.hits") + after.delta(before, "cache.misses") - after.delta(before, "server.sweep.steps"); lookups > 0 {
		m["server.cache_hit_share"] = after.delta(before, "cache.hits") / lookups
	}
	m["server.cache_invalidations"] = after.delta(before, "server.cache.invalidations")
	m["server.rejected"] = after.delta(before, "admission.rejected")
	m["server.compsim_calls"] = after.delta(before, "core.compsim_calls")
	m["server.sweep_p50_ms"] = median(sweeps)
	m["server.commit_p50_ms"] = median(posts)

	if r.w.fleet {
		if q := after.delta(before, "shard.queries"); q > 0 {
			rounds := 0.0
			for _, round := range []string{"sim", "roles", "cluster", "members"} {
				m["shard.round_ms."+round] = after.delta(before, "shard.round_ns."+round) / q / 1e6
				rounds += m["shard.round_ms."+round]
			}
			m["shard.rpcs_per_query"] = after.delta(before, "shard.rpcs") / q
			m["shard.comm_bytes_per_query"] = after.delta(before, "shard.comm_bytes") / q
			m["shard.coord_self_ms"] = serverMS - rounds
		}
		m["shard.retries"] = after.delta(before, "shard.retries")
		// The fleet path leaves compSimCalls at what the coordinator fills
		// in; 0 here means it fills in nothing.
		m["shard.compsim_per_query"] = mean(compSims)
		// Publishing is lazy: the coordinator swaps snapshots and the next
		// query's first round syncs the workers. So the cost of a publish
		// is the POST plus the first read after it; the reads are checked
		// against a replay like serve-churn's.
		s.churn = true
		c := &client{s: s, http: hc, t: tr.track(0)}
		var publish []float64
		var log []sample
		for i := range s.in.batches {
			post := c.do(op{opPost, int32(i)}, int64(2*i))
			read := c.do(op{opGet, int32(i)}, int64(2*i+1))
			log = append(log, post, read)
			publish = append(publish, ms(post.dur+read.dur))
		}
		for _, sm := range log {
			rep.attempted++
			if !sm.ok {
				rep.failed++
			}
		}
		if _, err := s.verifyChurn([][]sample{log}, rep, len(s.in.batches)); err != nil {
			return nil, err
		}
		published, err := fetchMetrics(hc, d.base)
		if err != nil {
			return nil, err
		}
		m["shard.publish_ms"] = median(publish)
		m["shard.syncs"] = published.delta(after, "shard.syncs")
	}
	rep.firstFailure = s.failure
	d.stop()

	g, err := probeGraph(m, probe, s.in.graphFile)
	if err != nil {
		return nil, err
	}
	mid := key{"0.5", 4}
	switch {
	case r.w.fleet:
		err = probeIntersect(m, probe, g, mid.Eps, r.seed) // merge-early is the worker's kernel
	case !r.w.indexed(): // serve-direct: the engine, at the middle key
		ws := ppscan.NewWorkspace()
		defer ws.Close()
		if _, err = pass(g, []key{mid}, ppscan.Options{}, ws, nil, 0, func(_ key, res *ppscan.Result) { stageMS(m, res) }); err == nil {
			err = probeCore(m, probe, g, []key{mid}, ws)
		}
	default: // the index workloads
		var ix *ppscan.Index
		if ix, err = probeIndex(m, probe, g, s.in.keys); err != nil {
			break
		}
		var hitMean, missMean float64
		if hitMean, missMean, err = probeHandlers(m, probe, g, ix, s.in.keys, s.in.bodies); err != nil {
			break
		}
		if s.churn {
			err = probeCommit(m, probe, g, ix, s.in.batches)
		}
		// A read is a hit or a miss in the handler plus the wire: do the
		// parts measured in this process add up to what the client saw?
		hit := m["server.cache_hit_share"]
		m["trace.layer_sum_share"] = (hit*hitMean + (1-hit)*missMean + m["server.wire_ms"]) / mean(reads)
	}
	if err != nil {
		return nil, err
	}
	rep.note("clients=1; GET /cluster n=%d, sweeps n=%d, POST /edges n=%d; server-side mean %.3f ms", len(reads), len(sweeps), len(posts), serverMS)
	return rep, r.finishTrace(rep, tr, untracedRate, tracedRate)
}
