package main

import (
	"slices"

	"ppscan/graph"
	"ppscan/internal/gen"
)

// graphSpec names one seeded input graph. The sizes are what a 15 s window
// on two cores can hold with enough samples for a median and a tail: the
// community graph gives ~60 three-ε passes or ~190 direct requests per
// window. quick divides them by 20 for the tests.
type graphSpec struct {
	name string
	make func(seed int64, quick bool) *graph.Graph
}

var (
	// gComm clusters: 1000 planted communities of 50, three inter-community
	// edges per vertex. Adjacency lists are short, and 22 of the K24 keys
	// have 1000 clusters or more (ε=0.6 has 900 at µ=6 and 570 at µ=8).
	gComm = graphSpec{"G-comm-50k", func(seed int64, quick bool) *graph.Graph {
		comms := int32(1000)
		if quick {
			comms /= 20
		}
		return gen.PlantedPartition(comms, 50, 0.5, 3/float64(comms*50), seed)
	}}
	// gSkew has heavy-tailed degrees (max ≈ 5000 of 32768 vertices): long
	// adjacency lists, few triangles, so nearly all time is set intersection.
	gSkew = graphSpec{"G-skew-rmat15", func(seed int64, quick bool) *graph.Graph {
		scale, m := 15, int64(400000)
		if quick {
			scale, m = 11, m/20
		}
		return gen.RMAT(scale, m, .57, .19, .19, seed)
	}}
)

// key is one (ε, µ) clustering request.
type key struct {
	Eps string
	Mu  int
}

// k24 is the serving key set: ε ∈ {0.3 … 0.6} × µ ∈ {2, 4, 6, 8}.
func k24() []key {
	var ks []key
	for _, eps := range []string{"0.3", "0.4", "0.45", "0.5", "0.55", "0.6"} {
		for _, mu := range []int{2, 4, 6, 8} {
			ks = append(ks, key{eps, mu})
		}
	}
	return ks
}

// The sweep serve-index issues walks seven ε at a µ outside K24, cycling
// through three of them: no step is ever in the response cache (a read
// cannot have put it there, and the cache of 16 has turned over before a µ
// comes round again), so every sweep costs seven index extractions.
var (
	sweepEps = []string{"0.3", "0.35", "0.4", "0.45", "0.5", "0.55", "0.6"}
	sweepMus = []int{3, 5, 7}
)

const sweepRange = "0.3:0.6:0.05"

// heavyEps marks the upper half of the K24 ε range. There the community
// graph has non-core vertices to attach (at ε ≤ 0.45 nearly every vertex
// is a core), which is the extra work of P7 on the engine path — twice the
// time of the lower half — and of the members round on the fleet. Those
// reads are the heavy op class of serve-direct and serve-fleet.
var heavyEps = map[string]bool{"0.5": true, "0.55": true, "0.6": true}

// workload is one fixed traffic mix. The names are cited by later issues.
type workload struct {
	name  string
	graph graphSpec

	// Batch workloads: one pass runs every ε at mu on a warm workspace;
	// heavy is the ε whose run is the pass's heaviest.
	batch bool
	eps   []string
	mu    int
	heavy string

	// Serving workloads.
	serverArgs []string // scanserver flags beyond -graph and -addr
	fleet      bool     // two scanshard workers behind the server
	zipf       bool     // Zipf(1.2) key draws (cache is used) or round-robin (it is not)
	sweepEvery int      // every n-th op of a client is the sweep; 0 = none
	writeEvery int      // every n-th op of client 0 is a POST /edges; 0 = none
	clients    int      // closed-loop connections; 0 = min(nproc, 4)

	// tail is the percentile lat_tail_ms reports: the highest of
	// 75/90/95/99 a window leaves about ten samples beyond, serve-churn
	// (see there) excepted.
	tail float64
	why  string
}

var workloads = []workload{
	{
		name: "batch-community", graph: gComm, batch: true,
		eps: []string{"0.3", "0.5", "0.6"}, mu: 4, heavy: "0.6", tail: 75,
		why: "short adjacency lists: pruning, sched, unionfind and P3/P4/P7 do real work and the kernel little, so a kernel change must not move it",
	},
	{
		name: "batch-skewed", graph: gSkew, batch: true,
		eps: []string{"0.2", "0.5", "0.8"}, mu: 5, heavy: "0.2", tail: 75,
		why: "heavy-tailed degrees: core checking is over 90% of the run, so internal/intersect and internal/vec do most of the work",
	},
	{
		name: "serve-index", graph: gComm,
		serverArgs: []string{"-index", "-cache", "16"}, zipf: true, sweepEvery: 50, tail: 99,
		// One connection. Two closed loops couple through the cache (a sweep
		// turns over 7 of its 16 entries) and through the cores: whether they
		// sweep in step or in turn moved a window's hit share by 3 points and
		// its rate by 14 %, and a 0.7 ms hit queued behind the neighbour's
		// 130 ms sweep and the collector measures the scheduler. With one,
		// the cache's states follow from the seed alone and a core stays free.
		clients: 1,
		why:     "no set intersection at all: gsindex extraction, result.Clone, quality.Coverage, cache, JSON and HTTP; Zipf keys hit the cache",
	},
	{
		name: "serve-direct", graph: gComm,
		serverArgs: []string{"-cache", "1"}, tail: 90,
		why: "round-robin keys bypass the cache: the batch engine reached through admission, the workspace pool and concurrent runs sharing cores",
	},
	{
		name: "serve-churn", graph: gComm,
		// p95, not p99: the top percent are the reads that met a commit or a
		// collection, and over ten seeds it spread twice as wide as p95.
		serverArgs: []string{"-index", "-mutations", "-cache", "16"}, zipf: true, writeEvery: 25, tail: 95,
		why: "writes beside reads on one graph.Store, gsindex and cache: a read gain bought with a slower commit or purge shows here",
	},
	{
		name: "serve-fleet", graph: gComm, fleet: true,
		serverArgs: []string{"-cache", "1"}, tail: 75,
		why: "the only path through internal/shard: wire, gob, exhaustive worker similarity and the central merge, cache bypassed",
	},
}

// indexed reports whether the workload's server answers from a GS*-Index.
func (w *workload) indexed() bool { return slices.Contains(w.serverArgs, "-index") }

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef is one line of the catalogue BENCHMARK.json repeats.
type metricDef struct {
	name, unit string
	higher     bool    // better when higher
	bound      float64 // end-to-end only: tolerated worsening as a share
}

// endToEnd is measured with tracing off, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"req_per_s", "1/s", true, 0.25},
	{"lat_p50_ms", "ms", false, 0.25},
	{"lat_tail_ms", "ms", false, 0.25},
	{"heavy_p50_ms", "ms", false, 0.25},
	{"peak_rss_mb", "MB", false, 0.25},
}

// perLayer is reported by the traced run. A workload that never enters a
// layer reports 0 for it.
var perLayer = []metricDef{
	{name: "graph.load_ms", unit: "ms"},
	{name: "graph.csr_mb", unit: "MB"},
	{name: "graph.commit_ms", unit: "ms"},

	{name: "intersect.pivot-block16.ns_per_call", unit: "ns"},
	{name: "intersect.merge-early.ns_per_call", unit: "ns"},
	{name: "intersect.pivot-scalar.ns_per_call", unit: "ns"},
	{name: "intersect.pivot-block16.elems_scanned", unit: "count"},
	{name: "intersect.pivot-block16.vector_blocks", unit: "count"},
	{name: "intersect.merge-early.elems_scanned", unit: "count"},
	{name: "intersect.skewed_pair_share", unit: "share"},

	{name: "core.compsim.prune", unit: "count"},
	{name: "core.compsim.check", unit: "count"},
	{name: "core.compsim.cluster", unit: "count"},
	{name: "core.compsim.noncore", unit: "count"},
	{name: "core.pruned_share", unit: "share", higher: true},
	{name: "core.stage_ms.prune", unit: "ms"},
	{name: "core.stage_ms.check", unit: "ms"},
	{name: "core.stage_ms.cluster", unit: "ms"},
	{name: "core.stage_ms.noncore", unit: "ms"},
	{name: "core.cluster_1w_s", unit: "s"},

	{name: "sched.par_speedup", unit: "x", higher: true},
	{name: "sched.static_ratio", unit: "x", higher: true},

	{name: "engine.cold_s", unit: "s"},
	{name: "engine.pscan.mid_s", unit: "s"},
	{name: "engine.ppscan-no.mid_s", unit: "s"},
	{name: "engine.scanpp.mid_s", unit: "s"},
	{name: "engine.vs_pscan_speedup", unit: "x", higher: true},
	{name: "engine.vec_speedup", unit: "x", higher: true},

	{name: "gsindex.build_ms", unit: "ms"},
	{name: "gsindex.index_mb", unit: "MB"},
	{name: "gsindex.query_ms", unit: "ms"},
	{name: "gsindex.apply_ms", unit: "ms"},
	{name: "result.clone_ms", unit: "ms"},
	{name: "quality.coverage_ms", unit: "ms"},

	{name: "server.handler_hit_ms", unit: "ms"},
	{name: "server.handler_miss_ms", unit: "ms"},
	{name: "server.sweep_handler_ms", unit: "ms"},
	{name: "server.edges_handler_ms", unit: "ms"},
	{name: "server.self_ms", unit: "ms"},
	{name: "server.wire_ms", unit: "ms"},
	{name: "server.compute_ms", unit: "ms"},
	{name: "server.cache_hit_share", unit: "share", higher: true},
	{name: "server.cache_invalidations", unit: "count"},
	{name: "server.rejected", unit: "count"},
	{name: "server.compsim_calls", unit: "count"},
	{name: "server.sweep_p50_ms", unit: "ms"},
	{name: "server.commit_p50_ms", unit: "ms"},

	{name: "shard.round_ms.sim", unit: "ms"},
	{name: "shard.round_ms.roles", unit: "ms"},
	{name: "shard.round_ms.cluster", unit: "ms"},
	{name: "shard.round_ms.members", unit: "ms"},
	{name: "shard.rpcs_per_query", unit: "count"},
	{name: "shard.comm_bytes_per_query", unit: "bytes"},
	{name: "shard.retries", unit: "count"},
	{name: "shard.coord_self_ms", unit: "ms"},
	{name: "shard.compsim_per_query", unit: "count"},
	{name: "shard.publish_ms", unit: "ms"},
	{name: "shard.syncs", unit: "count"},

	{name: "trace.client_ms", unit: "ms"},
	{name: "trace.layer_sum_share", unit: "share"},
	{name: "trace.overhead_share", unit: "share"},
}
