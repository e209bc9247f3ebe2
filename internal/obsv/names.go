package obsv

// Canonical metric names, shared by the recorders (internal/core,
// internal/sched via core, internal/server) and the readers (/metrics,
// ppscan -stats-json, experiments -metrics) so the same key always means
// the same quantity.
//
// Mapping to the paper's evaluation:
//
//   - MetricPhaseNsPrefix + <stage>   — Figure 6's per-stage wall time
//   - MetricCompSimCalls[.<stage>]    — Figure 4's similarity-computation
//     counts (and their stage decomposition)
//   - the kernel.* counters           — Figure 5's vectorized-vs-scalar
//     kernel work and Definition 3.9's early-termination effectiveness
//   - the sched.* metrics             — §4.4's scheduling overhead claim
const (
	// MetricCoreRuns counts completed ppSCAN runs.
	MetricCoreRuns = "core.runs"
	// MetricCoreCancels counts ppSCAN runs aborted by context cancellation
	// or deadline expiry (each such run returns a result.PartialError).
	MetricCoreCancels = "core.cancels"
	// MetricPhaseNsPrefix + stage name accumulates per-stage wall time in
	// nanoseconds (stages are result.PhaseNames).
	MetricPhaseNsPrefix = "core.phase_ns."
	// MetricCompSimCalls accumulates similarity computations; with the
	// MetricCompSimPrefix it decomposes per stage.
	MetricCompSimCalls  = "core.compsim_calls"
	MetricCompSimPrefix = "core.compsim_calls."

	// Kernel counters (summed over per-worker intersect.Stats).
	MetricKernelCalls        = "kernel.calls"
	MetricKernelSim          = "kernel.sim"
	MetricKernelNSim         = "kernel.nsim"
	MetricKernelPrunedSim    = "kernel.pruned_sim"
	MetricKernelPrunedNSim   = "kernel.pruned_nsim"
	MetricKernelEarlyDu      = "kernel.early_du"
	MetricKernelEarlyDv      = "kernel.early_dv"
	MetricKernelVectorBlocks = "kernel.vector_blocks"
	MetricKernelScalarSteps  = "kernel.scalar_steps"
	MetricKernelScanned      = "kernel.elements_scanned"

	// Scheduler telemetry.
	MetricSchedTasks         = "sched.tasks_submitted"
	MetricSchedTaskDegreeSum = "sched.task_degree_sum"
	MetricSchedTaskVertices  = "sched.task_vertices"
	MetricSchedQueueWaitNs   = "sched.queue_wait_ns"
	MetricSchedWorkerBusyNs  = "sched.worker_busy_ns"

	// HTTP server metrics (per-endpoint names append "." + endpoint).
	MetricHTTPRequestsPrefix = "http.requests."
	MetricHTTPErrorsPrefix   = "http.errors."
	MetricHTTPLatencyPrefix  = "http.latency_ns."
	MetricHTTPInFlight       = "http.in_flight"

	// Response-cache metrics.
	MetricCacheHits      = "cache.hits"
	MetricCacheMisses    = "cache.misses"
	MetricCacheEvictions = "cache.evictions"
	MetricCacheSize      = "cache.size"

	// Admission-control metrics (server-local, like http.* and cache.*).
	//
	// MetricAdmissionRejected counts requests rejected with 429 because the
	// in-flight job semaphore was saturated and no degradation path
	// (cache entry or index) was available.
	MetricAdmissionRejected = "admission.rejected"
	// MetricAdmissionTimeouts counts computations aborted by the
	// per-request deadline (-request-timeout) and answered with 503.
	MetricAdmissionTimeouts = "admission.timeouts"
	// MetricAdmissionCanceled counts computations aborted because the
	// client disconnected before completion.
	MetricAdmissionCanceled = "admission.canceled"
	// MetricAdmissionDegradedCache counts saturated requests answered from
	// the LRU response cache instead of being admitted for computation.
	MetricAdmissionDegradedCache = "admission.degraded_cache"
	// MetricAdmissionDegradedIndex counts saturated requests answered from
	// the attached GS*-Index without holding an admission slot.
	MetricAdmissionDegradedIndex = "admission.degraded_index"
	// MetricAdmissionInFlight gauges clustering computations currently
	// holding an admission slot (compute jobs, not HTTP requests —
	// compare http.in_flight).
	MetricAdmissionInFlight = "admission.jobs_in_flight"

	// Workspace-pool metrics (server-local, reported from engine.Pool.Stats
	// in /metrics rather than recorded through registry instruments).
	//
	// MetricWorkspaceHits / MetricWorkspaceMisses count Acquire calls served
	// from a pooled workspace vs. ones that had to allocate a fresh one.
	MetricWorkspaceHits   = "workspace.pool.hits"
	MetricWorkspaceMisses = "workspace.pool.misses"
	// MetricWorkspaceDiscards counts workspaces dropped at Release because
	// the pool was at capacity (their buffers return to the GC).
	MetricWorkspaceDiscards = "workspace.pool.discards"
	// MetricWorkspaceRetained gauges idle workspaces currently pooled;
	// MetricWorkspaceRetainedBytes is the scratch memory they pin.
	MetricWorkspaceRetained      = "workspace.pool.retained"
	MetricWorkspaceRetainedBytes = "workspace.pool.retained_bytes"
	// MetricWorkspaceCapacity reports the pool's retention bound.
	MetricWorkspaceCapacity = "workspace.pool.capacity"

	// Process/runtime gauges reported by the server's /metrics handler
	// (computed at read time from runtime.MemStats etc., not recorded
	// through registry instruments).
	MetricRuntimeGoroutines = "runtime.goroutines"
	MetricRuntimeHeapAlloc  = "runtime.heap_alloc_bytes"
	MetricRuntimeNumGC      = "runtime.num_gc"

	// Graph shape gauges for the served graph.
	MetricGraphVertices = "graph.vertices"
	MetricGraphEdges    = "graph.edges"

	// Server lifecycle gauges.
	MetricServerIndexed  = "server.indexed"
	MetricServerUptimeNs = "server.uptime_ns"
	MetricServerDraining = "server.draining"

	// Admission configuration, echoed so dashboards can normalize the
	// admission.* counters against the configured limits.
	MetricAdmissionMaxInflight      = "admission.max_inflight"
	MetricAdmissionRequestTimeoutNs = "admission.request_timeout_ns"

	// Fault-containment metrics.
	//
	// MetricCorePanics counts ppSCAN runs aborted by a contained worker
	// panic (each such run returns a result.PartialError wrapping a
	// *result.WorkerPanicError).
	MetricCorePanics = "core.worker_panics"
	// MetricServerPanics counts panics the server contained — recovered
	// worker panics surfacing as engine errors plus panics caught by the
	// handler-level recovery — each answered with HTTP 500 instead of
	// process death.
	MetricServerPanics = "server.panics"
	// MetricWorkspaceResets counts poisoned workspaces rebuilt by the
	// pool after a contained failure, before reuse.
	MetricWorkspaceResets = "workspace.pool.resets"

	// Fault-injection counters (reported from fault.Snapshot in /metrics;
	// all zero unless -chaos-seed armed a plan).
	MetricFaultPanics  = "fault.injected.panics"
	MetricFaultDelays  = "fault.injected.delays"
	MetricFaultErrors  = "fault.injected.errors"
	MetricFaultRetries = "fault.retries"

	// Tail-latency attribution histograms.
	//
	// MetricPhaseDurPrefix + stage name is a histogram of single-run
	// per-stage wall times in nanoseconds — the distribution behind the
	// MetricPhaseNsPrefix accumulators, so quantiles answer "which stage
	// makes the slow runs slow" (stages are result.PhaseNames).
	MetricPhaseDurPrefix = "core.phase_dur_ns."
	// MetricSchedTaskSpanNs is a histogram of individual scheduler-task
	// wall times (queue wait excluded) across both pool flavors; its tail
	// quantifies Algorithm 5's load-balance quality.
	MetricSchedTaskSpanNs = "sched.task_span_ns"
	// MetricEngineRunPrefix + engine name is a histogram of end-to-end
	// RunWorkspace wall times per engine, recorded at the facade dispatch.
	MetricEngineRunPrefix = "engine.run_ns."

	// Server-side tail-latency attribution (server-local registry).
	//
	// MetricServerComputeNs is a histogram of cache-miss durations past
	// admission: waiting for or doing the epoch's index build, then the
	// extraction and its clone (or the fleet query on a -shards server).
	MetricServerComputeNs = "server.compute_ns"
	// MetricServerExemplars gauges the exemplars currently retained in the
	// slowest-request ring; MetricServerExemplarCaptures counts requests
	// that qualified for retention since startup.
	MetricServerExemplars        = "server.exemplars.retained"
	MetricServerExemplarCaptures = "server.exemplars.captured"

	// Mutation metrics (server-local; see POST /edges and -mutations).
	//
	// MetricGraphEpoch reports the current snapshot epoch — 0 at startup,
	// incremented by every effective POST /edges batch. Static servers
	// stay at 0 forever.
	MetricGraphEpoch = "graph.epoch"
	// MetricGraphSnapshotsLive reports how many snapshot epochs the store
	// still tracks (the current one plus superseded snapshots pinned by
	// readers); absent when mutations are disabled.
	MetricGraphSnapshotsLive = "graph.snapshots_live"
	// MetricCacheInvalidations counts response-cache entries purged
	// because a mutation advanced the epoch past theirs.
	MetricCacheInvalidations = "server.cache.invalidations"
	// MetricServerMutationBatches counts effective POST /edges commits
	// (no-op batches excluded); MetricServerMutationEdges accumulates the
	// edges they added plus removed.
	MetricServerMutationBatches = "server.mutations.batches"
	MetricServerMutationEdges   = "server.mutations.edges"
	// MetricServerMutationCommitNs distributes graph.Store commit
	// durations; MetricServerMutationUpdateNs distributes incremental
	// index-maintenance durations (indexed servers only).
	MetricServerMutationCommitNs = "server.mutations.commit_ns"
	MetricServerMutationUpdateNs = "server.mutations.update_ns"
	// MetricServerMutationRebuilds counts mutations whose incremental
	// index update failed and fell back to a from-scratch rebuild.
	MetricServerMutationRebuilds = "server.mutations.rebuilds"

	// Sweep-endpoint metrics (server-local; see GET /cluster/sweep).
	//
	// MetricServerSweepSteps counts ε steps streamed across all sweep
	// requests; MetricServerSweepStepNs distributes per-step extraction
	// time (similarities are never recomputed per step).
	MetricServerSweepSteps  = "server.sweep.steps"
	MetricServerSweepStepNs = "server.sweep.step_ns"
	// MetricServerIndexBuilds counts the epoch index builds misses and
	// sweeps performed: at most one per epoch that succeeds (the build is
	// kept and serves every later request), none with -index.
	MetricServerIndexBuilds = "server.index.builds"
	// MetricServerSweepDisconnects counts sweeps abandoned mid-stream
	// because the client went away or the request deadline expired.
	MetricServerSweepDisconnects = "server.sweep.disconnects"
	// MetricServerSweepMaxSteps echoes the configured per-request step
	// bound (-sweep-max-steps) so dashboards can normalize step counts.
	MetricServerSweepMaxSteps = "server.sweep.max_steps"

	// Shard-tier metrics (internal/shard): the coordinator records the
	// shard.* family into the registry it is constructed with (scanserver
	// passes the process-global registry so /metrics surfaces the fleet);
	// workers record the shard.worker.* family into their own registry.
	//
	// MetricShardRPCs counts shard RPC attempts issued by the coordinator
	// (retries included); MetricShardRPCNs distributes their wall time,
	// failures included.
	MetricShardRPCs  = "shard.rpcs"
	MetricShardRPCNs = "shard.rpc_ns"
	// MetricShardRetries counts RPC attempts beyond each call's first.
	MetricShardRetries = "shard.retries"
	// Typed-failure counters, one per taxonomy class: per-RPC deadline
	// expiries (ShardTimeoutError), severed connections or dead processes
	// (ShardCrashError), and non-200 worker responses (ShardRejectedError).
	MetricShardTimeouts = "shard.timeouts"
	MetricShardCrashes  = "shard.crashes"
	MetricShardRejected = "shard.rejected"
	// MetricShardSyncs counts epoch catch-up snapshot pushes to stale or
	// restarted workers.
	MetricShardSyncs = "shard.syncs"
	// MetricShardQueries counts coordinator-run sharded queries;
	// MetricShardUnavailable counts queries abandoned because some shard
	// failed every attempt at a round (surfaced as 503 + Retry-After).
	MetricShardQueries     = "shard.queries"
	MetricShardUnavailable = "shard.unavailable"
	// MetricShardCommBytes accumulates real wire bytes moved between the
	// coordinator and the workers (request plus response bodies) — the
	// measurement of the paper's §3.3 communication-overhead claim.
	MetricShardCommBytes = "shard.comm_bytes"
	// MetricShardRoundNsPrefix + round name ("roles", "cluster",
	// "members") distributes per-round wall time across the fleet barrier,
	// retries included.
	MetricShardRoundNsPrefix = "shard.round_ns."

	// Worker-side shard metrics (recorded into the worker's own registry).
	//
	// MetricShardWorkerSteps counts superstep RPCs served;
	// MetricShardWorkerStateHits / Misses count step requests answered from
	// cached per-query state vs. ones that recomputed it (a restarted
	// worker always misses — the self-contained round inputs make that
	// correct, just slower); MetricShardWorkerSyncs counts epoch catch-up
	// snapshots accepted via /shard/sync.
	MetricShardWorkerSteps       = "shard.worker.steps"
	MetricShardWorkerStateHits   = "shard.worker.state_hits"
	MetricShardWorkerStateMisses = "shard.worker.state_misses"
	MetricShardWorkerSyncs       = "shard.worker.syncs"
)
