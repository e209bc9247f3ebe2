package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"ppscan"
	"ppscan/graph"
	"ppscan/internal/intersect"
	"ppscan/internal/server"
	"ppscan/internal/simdef"
	"ppscan/quality"
)

// The probes call one layer's public function in this process, on the
// workload's own graph, and time it from outside. Each records a span on
// the probe track, so the trace file shows them beside the client's view.

// timed runs f, records it as a span and returns its duration in ms.
func timed(t *track, name string, f func()) float64 {
	t0 := time.Now()
	f()
	t1 := time.Now()
	t.add(name, -1, 0, t0, t1)
	return ms(t1.Sub(t0))
}

// probeGraph: graph.load_ms, graph.csr_mb.
func probeGraph(m map[string]float64, t *track, file string) (*graph.Graph, error) {
	var g *graph.Graph
	var loads []float64
	for i := 0; i < 3; i++ {
		var err error
		loads = append(loads, timed(t, "graph.LoadFile", func() { g, err = graph.LoadFile(file) }))
		if err != nil {
			return nil, err
		}
	}
	m["graph.load_ms"] = median(loads)
	// CSR: an int64 offset per vertex and an int32 per arc.
	m["graph.csr_mb"] = float64(8*(int64(g.NumVertices())+1)+4*g.NumDirectedEdges()) / 1e6
	return g, nil
}

// probeIntersect times the three kernels the roadmap argues about on the
// same 100 000 seeded edges of g, with the threshold ε gives each pair,
// and counts what they scan. Kernels are looked up by name, so one that a
// later change removes reads 0 here and does not break the build.
func probeIntersect(m map[string]float64, t *track, g *graph.Graph, eps string, seed int64) error {
	e, err := simdef.ParseEpsilon(eps)
	if err != nil {
		return err
	}
	type pair struct {
		a, b []int32
		c    int32
	}
	rng := stream(seed, 3)
	arcs := g.NumDirectedEdges()
	// Draw arcs uniformly: pick a position, find its source by bisection.
	off := make([]int64, g.NumVertices()+1)
	for u := int32(0); u < g.NumVertices(); u++ {
		off[u+1] = off[u] + int64(g.Degree(u))
	}
	pairs := make([]pair, 0, 100000)
	skewed := 0
	for len(pairs) < cap(pairs) && arcs > 0 {
		pos := rng.Int63n(arcs)
		lo, hi := int32(0), g.NumVertices()
		for lo < hi {
			mid := (lo + hi) / 2
			if off[mid+1] <= pos {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		u := lo
		v := g.Neighbors(u)[pos-off[u]]
		du, dv := g.Degree(u), g.Degree(v)
		if max(du, dv) >= 8*min(du, dv) {
			skewed++
		}
		pairs = append(pairs, pair{g.Neighbors(u), g.Neighbors(v), e.MinCN(du, dv)})
	}
	if len(pairs) == 0 {
		return nil
	}
	m["intersect.skewed_pair_share"] = float64(skewed) / float64(len(pairs))
	for _, name := range []string{"pivot-block16", "merge-early", "pivot-scalar"} {
		kind, err := intersect.ParseKind(name)
		if err != nil {
			continue
		}
		var st intersect.Stats
		for _, p := range pairs { // the counted pass
			intersect.CompSimStats(kind, p.a, p.b, p.c, &st)
		}
		best := 0.0
		for rep := 0; rep < 3; rep++ { // the timed passes, counters off
			d := timed(t, "intersect.CompSim "+name, func() {
				for _, p := range pairs {
					intersect.CompSim(kind, p.a, p.b, p.c)
				}
			})
			if rep == 0 || d < best {
				best = d
			}
		}
		m["intersect."+name+".ns_per_call"] = best * 1e6 / float64(len(pairs))
		if name != "pivot-scalar" {
			m["intersect."+name+".elems_scanned"] = float64(st.Scanned)
		}
		if name == "pivot-block16" {
			m["intersect."+name+".vector_blocks"] = float64(st.VectorBlocks)
		}
	}
	return nil
}

// probeCore runs keys once with one worker — only then are the CompSim
// counts exact — and reports them per stage with the pass time.
func probeCore(m map[string]float64, t *track, g *graph.Graph, keys []key, ws *ppscan.Workspace) error {
	var calls [4]int64
	t0 := time.Now()
	_, err := pass(g, keys, ppscan.Options{Workers: 1}, ws, nil, 0, func(_ key, res *ppscan.Result) {
		for ph, n := range res.Stats.CompSimByPhase {
			calls[ph] += n
		}
	})
	if err != nil {
		return err
	}
	t.add("core pass, 1 worker", -1, 0, t0, time.Now())
	m["core.cluster_1w_s"] = time.Since(t0).Seconds()
	total := int64(0)
	for ph, n := range calls {
		m["core.compsim."+stageNames[ph]] = float64(n)
		total += n
	}
	m["core.pruned_share"] = 1 - float64(total)/float64(g.NumEdges()*int64(len(keys)))
	return nil
}

// stageMS adds the engine's own per-stage wall times of one result.
func stageMS(m map[string]float64, res *ppscan.Result) {
	for ph, d := range res.Stats.PhaseTimes {
		m["core.stage_ms."+stageNames[ph]] += ms(d)
	}
}

// runOnce times one clustering with the named engine; 0 if the engine is
// not registered.
func runOnce(t *track, g *graph.Graph, algo string, k key, ws *ppscan.Workspace) float64 {
	var err error
	d := timed(t, "ppscan.RunWorkspace "+algo, func() {
		_, err = ppscan.RunWorkspace(context.Background(), g,
			ppscan.Options{Algorithm: ppscan.Algorithm(algo), Epsilon: k.Eps, Mu: k.Mu}, ws)
	})
	if err != nil {
		return 0
	}
	return d / 1e3
}

// probeEngines: the reference points of Figures 4 and 5 at the middle key.
func probeEngines(m map[string]float64, t *track, g *graph.Graph, k key, ws *ppscan.Workspace) {
	cold := ppscan.NewWorkspace()
	m["engine.cold_s"] = runOnce(t, g, "ppscan", k, cold)
	cold.Close()
	warm := runOnce(t, g, "ppscan", k, ws)
	m["engine.pscan.mid_s"] = runOnce(t, g, "pscan", k, ws)
	m["engine.ppscan-no.mid_s"] = runOnce(t, g, "ppscan-no", k, ws)
	m["engine.scanpp.mid_s"] = runOnce(t, g, "scan++", k, ws)
	if warm > 0 {
		m["engine.vs_pscan_speedup"] = m["engine.pscan.mid_s"] / warm
		m["engine.vec_speedup"] = m["engine.ppscan-no.mid_s"] / warm
	}
}

// probeIndex: build, size, and per key the extraction, the clone the
// server makes before caching, and the coverage it computes per answer.
func probeIndex(m map[string]float64, t *track, g *graph.Graph, keys []key) (*ppscan.Index, error) {
	var ix *ppscan.Index
	m["gsindex.build_ms"] = timed(t, "ppscan.BuildIndex", func() { ix = ppscan.BuildIndex(g, 0) })
	m["gsindex.index_mb"] = float64(ix.MemoryBytes()) / 1e6
	ws := ppscan.NewWorkspace()
	defer ws.Close()
	var query, clone, coverage []float64
	for _, k := range keys {
		var res, kept *ppscan.Result
		var err error
		query = append(query, timed(t, "ppscan.QueryIndexWorkspace", func() {
			res, err = ppscan.QueryIndexWorkspace(context.Background(), ix, k.Eps, k.Mu, ws)
		}))
		if err != nil {
			return nil, err
		}
		clone = append(clone, timed(t, "result.Clone", func() { kept = res.Clone() }))
		coverage = append(coverage, timed(t, "quality.Coverage", func() { quality.Coverage(kept) }))
	}
	m["gsindex.query_ms"] = median(query)
	m["result.clone_ms"] = median(clone)
	m["quality.coverage_ms"] = median(coverage)
	return ix, nil
}

// serveOnce sends one request through a handler with no socket in between.
func serveOnce(t *track, h http.Handler, name, method, target string, body []byte) (float64, error) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	d := timed(t, name, func() { h.ServeHTTP(rec, req) })
	if rec.Code/100 != 2 {
		return 0, fmt.Errorf("%s %s: status %d: %s", method, target, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return d, nil
}

// probeHandlers times the server's handlers without TCP. A cache of one
// entry under cycling keys makes every request a miss; repeating one key
// makes every request a hit. The metrics are medians; the means are
// returned too, because only means add up to a mean.
func probeHandlers(m map[string]float64, t *track, g *graph.Graph, ix *ppscan.Index, keys []key, bodies [][]byte) (hitMean, missMean float64, err error) {
	h := server.New(g, 0).WithCacheSize(1).WithIndex(ix).Handler()
	var miss, hit, sweep, edges []float64
	target := func(k key) string { return fmt.Sprintf("/cluster?eps=%s&mu=%d", k.Eps, k.Mu) }
	for _, k := range keys {
		d, err := serveOnce(t, h, "server handler, miss", "GET", target(k), nil)
		if err != nil {
			return 0, 0, err
		}
		miss = append(miss, d)
	}
	for range keys {
		d, err := serveOnce(t, h, "server handler, hit", "GET", target(keys[len(keys)-1]), nil)
		if err != nil {
			return 0, 0, err
		}
		hit = append(hit, d)
	}
	for i := 0; i < 3; i++ {
		d, err := serveOnce(t, h, "server handler, sweep", "GET", fmt.Sprintf("/cluster/sweep?eps=%s&mu=%d", sweepRange, sweepMus[i]), nil)
		if err != nil {
			return 0, 0, err
		}
		sweep = append(sweep, d)
	}
	m["server.handler_miss_ms"] = median(miss)
	m["server.handler_hit_ms"] = median(hit)
	m["server.sweep_handler_ms"] = median(sweep)
	m["server.self_ms"] = m["server.handler_miss_ms"] - m["gsindex.query_ms"] - m["result.clone_ms"] - m["quality.coverage_ms"]
	if len(bodies) > 0 {
		hm := server.New(g, 0).WithCacheSize(8).WithIndex(ix).WithMutations().Handler()
		for _, body := range bodies[:min(len(bodies), 8)] {
			d, err := serveOnce(t, hm, "server handler, edges", "POST", "/edges", body)
			if err != nil {
				return 0, 0, err
			}
			edges = append(edges, d)
		}
		m["server.edges_handler_ms"] = median(edges)
	}
	return mean(hit), mean(miss), nil
}

// probeCommit: a 64-line batch through graph.Store.Commit, and the index
// carried across the same commit by ApplyIndexBatch.
func probeCommit(m map[string]float64, t *track, g *graph.Graph, ix *ppscan.Index, batches [][]graph.EdgeOp) error {
	store := graph.NewStore(g)
	ws := ppscan.NewWorkspace()
	defer ws.Close()
	var commit, apply []float64
	for _, b := range batches[:min(len(batches), 8)] {
		var d *graph.Delta
		var err error
		commit = append(commit, timed(t, "graph.Store.Commit", func() { d, err = store.Commit(b) }))
		if err != nil {
			return err
		}
		apply = append(apply, timed(t, "ppscan.ApplyIndexBatch", func() {
			ix, err = ppscan.ApplyIndexBatch(context.Background(), ix, d, 0, ws)
		}))
		if err != nil {
			return err
		}
	}
	m["graph.commit_ms"] = median(commit)
	m["gsindex.apply_ms"] = median(apply)
	return nil
}
