// Package server implements an HTTP service for online structural
// clustering — the application the ppSCAN paper motivates in §1: with
// sub-minute clustering (or a prebuilt GS*-Index), analysts can explore
// (ε, µ) parameterizations of a big graph interactively.
//
// The service loads one graph at startup and exposes:
//
//	GET /healthz                    — liveness and graph statistics
//	GET /cluster?eps=0.6&mu=5       — one clustering, as a JSON summary
//	GET /cluster?...&members=true   — include full cluster member lists
//	GET /cluster/sweep?eps=0.2:0.8:0.05&mu=5
//	                                — ONE similarity pass, one NDJSON
//	                                  clustering per ε step (sweep.go)
//	GET /vertex?v=17&eps=0.6&mu=5   — role, cluster(s) and attachment of
//	                                  one vertex
//	GET /quality?eps=0.6&mu=5       — modularity/coverage and top clusters
//	GET /metrics                    — expvar-style JSON: request counts and
//	                                  latency quantiles per endpoint, cache
//	                                  hits/misses/evictions, in-flight
//	                                  requests, graph and runtime stats, and
//	                                  the fleet coordinator's shard.* names
//	GET /debug/slowest              — the slowest cache misses of a
//	                                  sliding window (exemplars.go)
//
// Every clustering route resolves through one pipeline with a fixed stage
// order (see resolve): parse and validate → response cache → the epoch's
// GS*-Index (attached with WithIndex, else built by the epoch's first
// miss while later misses wait for it) → extraction from it in O(answer)
// time → one cache insert. A server with a fleet attached (WithShards)
// sends a /cluster, /vertex or /quality miss on an index-less epoch to the
// fleet instead; its sweeps build the index like any other server's.
// Every answer is the SCAN clustering of the request's snapshot, whichever
// stage gave it. Responses for identical parameters are kept in an LRU
// cache bounded by DefaultCacheSize (see WithCacheSize). WithLogging
// enables structured per-request log lines.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ppscan"
	"ppscan/graph"
	"ppscan/internal/fault"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
	"ppscan/internal/shard"
	"ppscan/internal/simdef"
	"ppscan/quality"
)

// DefaultCacheSize bounds the response cache (distinct (eps, mu) results
// kept resident per epoch) unless overridden with WithCacheSize.
const DefaultCacheSize = 64

// epochState is one consistent serving generation: an immutable graph
// snapshot and (when indexed) the index derived from exactly that
// snapshot. The index is the server's only similarity artifact: attached
// with WithIndex, or built by the epoch's first miss and published as a
// new epochState over the same graph (see epochIndex). Requests load the
// pointer once and thread it through their whole lifetime, so a
// concurrent mutation can never hand one request a graph and an index
// from different epochs — the new state is published as a single atomic
// pointer swap. The generation's version is
// g.Epoch(): 0 for a static server, advancing per effective mutation.
type epochState struct {
	g  *graph.Graph
	ix *ppscan.Index
}

func (st *epochState) epoch() uint64 { return st.g.Epoch() }

// Server answers structural clustering queries over one graph. The graph
// is immutable per epoch: without WithMutations there is exactly one
// epoch forever; with it, POST /edges commits batched edge mutations,
// each producing a new snapshot (and incrementally-maintained index)
// published atomically as the next epoch.
type Server struct {
	state   atomic.Pointer[epochState]
	workers int

	// Mutation serving (see WithMutations and mutations.go). store is nil
	// unless mutations are enabled; mutMu serializes the whole
	// commit→index-update→publish sequence so epochs advance in a total
	// order, and a miss's build→publish of its epoch's index with it: a
	// commit posted during a build waits for it.
	// maxBatchBytes caps one POST /edges body (defaultMaxBatchBytes;
	// lowered by tests). Instruments are cached at WithMutations.
	//
	// Lock order: mutMu → {Store.commitMu, lruCache.mu};
	// every other mutex is a leaf that calls nothing while held.
	store         *graph.Store
	mutMu         sync.Mutex
	maxBatchBytes int64
	invalidations *obsv.Counter
	mutBatches    *obsv.Counter
	mutEdges      *obsv.Counter
	mutRebuilds   *obsv.Counter
	mutCommitNs   *obsv.Histogram
	mutUpdateNs   *obsv.Histogram
	reg           *obsv.Registry // server-local: HTTP and cache metrics
	logger        *log.Logger    // nil disables request logging
	start         time.Time

	// pool caches one workspace per in-flight extraction so steady-state
	// serving reuses the O(n+m) scratch buffers instead of reallocating
	// them per request; it retains at most GOMAXPROCS idle ones.
	pool *ppscan.WorkspacePool

	// reqTimeout is zero when requests have no deadline (see
	// WithRequestTimeout). draining flips when the process received
	// SIGTERM and /healthz turns load balancers away while in-flight
	// requests finish.
	reqTimeout time.Duration
	draining   atomic.Bool

	// coord, when non-nil, answers the /cluster, /vertex and /quality
	// misses of an index-less epoch on the multi-process shard fleet (see
	// WithShards).
	coord *shard.Coordinator

	// Sweep serving (see WithSweepMaxSteps and sweep.go): the per-request
	// ε-grid bound and the cached sweep instruments.
	sweepMaxSteps    int
	sweepSteps       *obsv.Counter
	sweepDisconnects *obsv.Counter
	sweepStepNs      *obsv.Histogram

	// indexBuilds counts epochIndex builds; computeNs times each miss's
	// answer (see answer). exemplars retains the slowest misses of a
	// sliding window (see WithExemplars and exemplars.go).
	indexBuilds *obsv.Counter
	computeNs   *obsv.Histogram
	exemplars   *exemplarRing

	// buildTimeoutLogged is 1 + the epoch whose build last hit the request
	// timeout in the log (0: none yet), so that epochIndex logs one line
	// per epoch rather than one per miss. Guarded by mutMu.
	buildTimeoutLogged uint64

	// buildFn builds the GS*-Index of one snapshot. Production servers use
	// ppscan.BuildIndexContext; tests substitute a function that parks,
	// fails or panics inside the build.
	buildFn func(ctx context.Context, g *graph.Graph, workers int) (*ppscan.Index, error)

	cache *lruCache
}

// cacheKey identifies one cached answer. eps is the exact ε, so "0.5",
// "0.50" and "1/2" share an entry. Every stage answers with the same
// clustering, so the key does not name the stage.
type cacheKey struct {
	eps   simdef.Epsilon
	mu    int
	epoch uint64
}

// New creates a server over g. Its first cache miss builds the epoch's
// GS*-Index unless WithIndex attaches one.
func New(g *graph.Graph, workers int) *Server {
	s := &Server{
		workers: workers,
		reg:     obsv.New(),
		start:   time.Now(),
		pool:    ppscan.NewWorkspacePool(0),
		buildFn: ppscan.BuildIndexContext,
	}
	s.WithCacheSize(DefaultCacheSize)
	s.state.Store(&epochState{g: g})
	// Pre-register the failure counters so /metrics shows zeros before
	// the first timeout instead of omitting the keys.
	for _, name := range []string{
		obsv.MetricAdmissionTimeouts, obsv.MetricAdmissionCanceled, obsv.MetricServerPanics,
	} {
		s.reg.Counter(name)
	}
	// Sweep and miss instruments, pre-registered for the same reason.
	s.sweepMaxSteps = DefaultSweepMaxSteps
	s.sweepSteps = s.reg.Counter(obsv.MetricServerSweepSteps)
	s.sweepDisconnects = s.reg.Counter(obsv.MetricServerSweepDisconnects)
	s.sweepStepNs = s.reg.Histogram(obsv.MetricServerSweepStepNs)
	s.indexBuilds = s.reg.Counter(obsv.MetricServerIndexBuilds)
	s.computeNs = s.reg.Histogram(obsv.MetricServerComputeNs)
	return s.WithExemplars(4, DefaultExemplarWindow)
}

// WithIndex attaches a prebuilt GS*-Index, so no miss waits for a build.
// The index must have been built from the graph the server was
// constructed with. Call during wiring, before serving starts.
func (s *Server) WithIndex(ix *ppscan.Index) *Server {
	st := s.state.Load()
	s.state.Store(&epochState{g: st.g, ix: ix})
	return s
}

// WithCacheSize bounds the response cache to n entries (minimum 1).
func (s *Server) WithCacheSize(n int) *Server {
	s.cache = newLRU(n)
	s.cache.reg = s.reg
	return s
}

// WithLogging enables structured request logging through l (nil means
// log.Default()): one key=value line per request with method, path, query,
// status, response bytes and latency.
func (s *Server) WithLogging(l *log.Logger) *Server {
	if l == nil {
		l = log.Default()
	}
	s.logger = l
	return s
}

// WithRequestTimeout cancels each request after requestTimeout (0 = no
// deadline). A build, extraction or fleet query that exceeds its deadline
// aborts at its next task batch and answers 503 + Retry-After, so
// requestTimeout must exceed one index build. No request is ever refused
// for load: a miss that arrives during its epoch's index build waits for
// that build, bounded by this same deadline.
func (s *Server) WithRequestTimeout(requestTimeout time.Duration) *Server {
	if requestTimeout < 0 {
		requestTimeout = 0
	}
	s.reqTimeout = requestTimeout
	return s
}

// WithShards attaches a shard coordinator, over the server's own graph: a
// /cluster, /vertex or /quality miss on an epoch with no index runs its
// supersteps on the worker fleet instead of building the index. With
// WithMutations each committed epoch is published
// to the coordinator, which pushes snapshot syncs so no worker serves a
// stale view. Shard faults arrive typed and writeResolveError maps them: a
// shard that failed every attempt is a 503 + Retry-After naming it, never
// a hang and never a silent partial result.
func (s *Server) WithShards(c *shard.Coordinator) *Server {
	s.coord = c
	return s
}

// shardRetryAfterSecs is the Retry-After hint for shard unavailability:
// long enough for a worker restart, short enough that clients re-probe a
// recovered fleet promptly.
const shardRetryAfterSecs = 5

// WithSweepMaxSteps bounds the ε grid one GET /cluster/sweep request may
// answer (default DefaultSweepMaxSteps); n < 1 restores the default.
func (s *Server) WithSweepMaxSteps(n int) *Server {
	if n < 1 {
		n = DefaultSweepMaxSteps
	}
	s.sweepMaxSteps = n
	return s
}

// SetDraining marks the server as draining (or not): /healthz switches to
// 503 so load balancers stop routing here, while in-flight requests keep
// being served. cmd/scanserver flips this on SIGTERM before calling
// http.Server.Shutdown.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether SetDraining(true) was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// route is one entry of the endpoint table: the path Handler registers,
// the short name instruments are keyed on, and the handler itself.
type route struct {
	path string
	name string
	h    http.HandlerFunc
}

// routes is the single source of truth for the server's endpoints: Handler
// registers exactly this table, and Routes exposes the paths so docs
// tooling (cmd/docscheck) can hold the README API reference to it.
func (s *Server) routes() []route {
	return []route{
		{"/healthz", "healthz", s.handleHealth},
		{"/cluster", "cluster", s.handleCluster},
		{"/cluster/sweep", "sweep", s.handleSweep},
		{"/edges", "edges", s.handleEdges},
		{"/vertex", "vertex", s.handleVertex},
		{"/quality", "quality", s.handleQuality},
		{"/metrics", "metrics", s.handleMetrics},
		{"/debug/slowest", "slowest", s.handleSlowest},
	}
}

// Routes lists every path Handler registers, in registration order. Docs
// tooling diffs the README HTTP API reference against this list.
func Routes() []string {
	s := &Server{} // handlers are method values, never invoked here
	rts := s.routes()
	paths := make([]string, len(rts))
	for i, rt := range rts {
		paths[i] = rt.path
	}
	return paths
}

// Handler returns the HTTP handler exposing all endpoints. Every endpoint
// is wrapped in the instrumentation middleware feeding the server registry
// (request/error counts, latency histograms, in-flight gauge) surfaced at
// GET /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.Handle(rt.path, s.instrument(rt.name, rt.h))
	}
	return mux
}

// statusRecorder captures the response status and size for metrics and
// access logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
	wrote  bool // headers sent; a late panic can no longer switch to 500
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.wrote = true
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true // an implicit 200 if WriteHeader was never called
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// instrument wraps an endpoint with metrics collection and optional
// structured logging. Instruments are fetched once at wiring time; the
// per-request cost is a few atomic operations.
func (s *Server) instrument(name string, h http.HandlerFunc) http.Handler {
	reqs := s.reg.Counter(obsv.MetricHTTPRequestsPrefix + name)
	errs := s.reg.Counter(obsv.MetricHTTPErrorsPrefix + name)
	lat := s.reg.Histogram(obsv.MetricHTTPLatencyPrefix + name)
	inFlight := s.reg.Gauge(obsv.MetricHTTPInFlight)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		inFlight.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		s.serveContained(rec, r, h)
		d := time.Since(t0)
		inFlight.Add(-1)
		reqs.Inc()
		if rec.status >= 400 {
			errs.Inc()
		}
		lat.Observe(d.Nanoseconds())
		if s.logger != nil {
			s.logger.Printf("method=%s path=%s query=%q status=%d bytes=%d durMs=%.3f",
				r.Method, r.URL.Path, r.URL.RawQuery, rec.status, rec.bytes,
				float64(d)/float64(time.Millisecond))
		}
	})
}

// serveContained runs one endpoint handler under the last-resort panic
// barrier: a panic that escapes every inner containment layer (the worker
// recoveries, epochIndex's recover) is recovered here so one bad
// request cannot crash the process. The client gets a structured 500 when
// the response has not started yet; a response already in flight is left
// truncated — the connection, not the process, absorbs the damage.
func (s *Server) serveContained(rec *statusRecorder, r *http.Request, h http.HandlerFunc) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		s.reg.Counter(obsv.MetricServerPanics).Inc()
		if s.logger != nil {
			s.logger.Printf("panic serving path=%s query=%q: %v\n%s",
				r.URL.Path, r.URL.RawQuery, v, debug.Stack())
		}
		if !rec.wrote {
			writeError(rec, http.StatusInternalServerError,
				fmt.Errorf("internal error: %v", v))
		} else if rec.status < http.StatusInternalServerError {
			// Too late to change the wire status; record it for metrics and
			// the access log so the failure is not invisible.
			rec.status = http.StatusInternalServerError
		}
	}()
	h(rec, r)
}

// handleMetrics serves the flat expvar-style metrics JSON: the server
// registry (http.*, cache.*, server.*), the process-global registry
// (the fleet coordinator's shard.*), plus
// runtime, graph and uptime gauges. Histograms appear as
// {count,sum,mean,p50,p90,p99,max} objects.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	out := s.reg.Snapshot()
	for k, v := range obsv.Default().Snapshot() {
		out[k] = v
	}
	out[obsv.MetricCacheSize] = s.cache.len()
	out[obsv.MetricCacheEvictions] = s.cache.evicted()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out[obsv.MetricRuntimeGoroutines] = runtime.NumGoroutine()
	out[obsv.MetricRuntimeHeapAlloc] = ms.HeapAlloc
	out[obsv.MetricRuntimeNumGC] = ms.NumGC
	st := s.state.Load()
	out[obsv.MetricGraphVertices] = st.g.NumVertices()
	out[obsv.MetricGraphEdges] = st.g.NumEdges()
	out[obsv.MetricGraphEpoch] = st.epoch()
	out[obsv.MetricServerIndexed] = st.ix != nil
	out[obsv.MetricServerUptimeNs] = time.Since(s.start).Nanoseconds()
	out[obsv.MetricAdmissionRequestTimeoutNs] = s.reqTimeout.Nanoseconds()
	ps := s.pool.Stats()
	out[obsv.MetricWorkspaceHits] = ps.Hits
	out[obsv.MetricWorkspaceMisses] = ps.Misses
	out[obsv.MetricWorkspaceDiscards] = ps.Discards
	out[obsv.MetricWorkspaceResets] = ps.Resets
	out[obsv.MetricWorkspaceRetained] = ps.Retained
	out[obsv.MetricWorkspaceRetainedBytes] = ps.RetainedBytes
	fs := fault.Snapshot()
	out[obsv.MetricFaultPanics] = fs.Panics
	out[obsv.MetricFaultDelays] = fs.Delays
	out[obsv.MetricFaultErrors] = fs.Errors
	out[obsv.MetricFaultRetries] = fs.Retries
	out[obsv.MetricServerSweepMaxSteps] = s.sweepMaxSteps
	out[obsv.MetricServerExemplars] = s.exemplars.len()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	es := s.state.Load()
	st := graph.ComputeStats("graph", es.g)
	status, body := http.StatusOK, "ok"
	if s.draining.Load() {
		// Shutting down: tell load balancers to stop routing here while
		// in-flight requests finish.
		status, body = http.StatusServiceUnavailable, "draining"
	}
	resp := map[string]any{
		"status":    body,
		"vertices":  st.NumVertices,
		"edges":     st.NumEdges / 2,
		"avgDegree": st.AvgDegree,
		"maxDegree": st.MaxDegree,
		"indexed":   es.ix != nil,
		"epoch":     es.epoch(),
		"mutable":   s.store != nil,
	}
	writeJSON(w, status, resp)
}

// params is the parse stage every clustering route shares: the ε list (one
// value, or the /cluster/sweep grid when sweep is set) and µ. Each ε is
// validated against µ here, so an unanswerable request gets its 400 before
// any cache lookup or build. Other parameters (algo= among them) are
// ignored.
func (s *Server) params(q url.Values, sweep bool) (eps []string, mu int, err error) {
	if sweep {
		eps, err = parseSweepEps(q.Get("eps"), s.sweepMaxSteps)
	} else if e := q.Get("eps"); e != "" {
		eps = []string{e}
	} else {
		err = fmt.Errorf("missing eps parameter")
	}
	if err != nil {
		return nil, 0, err
	}
	// The upper bound keeps µ inside the int32 the index and the fleet
	// take: a larger value must not wrap into a different, valid µ.
	muStr := q.Get("mu")
	mu, err = strconv.Atoi(muStr)
	if err != nil || mu < 1 || mu > 1<<30 {
		return nil, 0, fmt.Errorf("bad or missing mu %q, want an integer in [1, 2^30]", muStr)
	}
	for _, e := range eps {
		if _, err := simdef.NewThreshold(e, int32(mu)); err != nil {
			return nil, 0, err
		}
	}
	return eps, mu, nil
}

// keyFor is the one cache-key rule: the exact ε, µ and st's epoch.
func keyFor(st *epochState, eps string, mu int) cacheKey {
	exact, _ := simdef.ParseEpsilon(eps) // params validated every ε
	return cacheKey{eps: exact, mu: mu, epoch: st.epoch()}
}

// resolve answers validated parameters through the pipeline's fixed stage
// order: response cache, then one miss (answer). ctx bounds the work
// (client disconnect, per-request deadline). st is the generation the
// caller loaded once for the whole request; every answer is derived from
// and cache-keyed to exactly that epoch, so a concurrent mutation can
// never mix snapshots inside one response.
func (s *Server) resolve(ctx context.Context, st *epochState, eps string, mu int) (*ppscan.Result, error) {
	key := keyFor(st, eps, mu)
	if res, ok := s.cache.get(key); ok {
		return res, nil
	}
	return s.answer(ctx, st, key, eps)
}

// answer resolves one cache miss — extracted from the epoch's index (built
// first if the epoch has none), or computed by the fleet on a -shards
// server's index-less epoch — and makes the pipeline's one cache insert.
// Every miss is timed into server.compute_ns and offered to the exemplar
// ring, failed ones included: the tail is where the failures live.
func (s *Server) answer(ctx context.Context, st *epochState, key cacheKey, eps string) (*ppscan.Result, error) {
	t0 := time.Now()
	ix, build, err := s.similarity(ctx, st)
	var res *ppscan.Result
	if err == nil {
		if ix != nil {
			res, err = s.extract(ctx, ix, eps, key.mu)
		} else {
			// Freshly allocated by the coordinator: nothing to detach.
			res, err = s.coord.Run(ctx, eps, int32(key.mu))
		}
	}
	d := time.Since(t0)
	s.computeNs.Observe(d.Nanoseconds())
	s.exemplars.offer(exemplar{Epoch: key.epoch, Eps: eps, Mu: key.mu, Duration: d, Build: build}, err)
	if err != nil {
		return nil, err // classified by writeResolveError
	}
	s.cache.add(key, res)
	return res, nil
}

// similarity obtains the (ε, µ)-independent artifact any number of
// parameter pairs over st can be extracted from: the epoch's index, built
// first if the epoch has none (epochIndex; build is the time this call
// spent waiting for or doing the build, 0 when the index was there). The
// one exception is a -shards server's index-less epoch, whose fleet
// computes the miss instead: ix is then nil.
func (s *Server) similarity(ctx context.Context, st *epochState) (ix *ppscan.Index, build time.Duration, err error) {
	if st.ix != nil {
		return st.ix, 0, nil
	}
	if s.coord != nil {
		return nil, 0, nil
	}
	return s.epochIndex(ctx, st)
}

// epochIndex returns the GS*-Index of st's snapshot, built at most once
// per epoch. It runs under mutMu, which commits already serialise on: a
// miss that waited there finds the index an earlier one published, or
// builds and publishes it itself, so a waiter never inherits another
// request's cancellation or panic, and a commit posted meanwhile waits
// for the build. The index is published as a new epochState over the
// same graph only while st's snapshot is still the live one; a miss
// pinned to a superseded epoch builds for its own snapshot and publishes
// nothing. From then on every route of the epoch extracts from it, and
// POST /edges carries it across commits. A panic in the build itself is
// returned as a *ppscan.WorkerPanicError and publishes nothing. A build the
// request timeout cut short publishes nothing either, so with a logger the
// first one of each epoch is logged: every later miss would fail the same way.
func (s *Server) epochIndex(ctx context.Context, st *epochState) (ix *ppscan.Index, build time.Duration, err error) {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	cur := s.state.Load()
	if cur.g == st.g && cur.ix != nil {
		return cur.ix, 0, nil
	}
	s.indexBuilds.Inc()
	t0 := time.Now()
	defer func() {
		if v := recover(); v != nil {
			ix, build, err = nil, time.Since(t0), &ppscan.WorkerPanicError{
				Phase: "index build", Worker: -1, Value: v, Stack: debug.Stack(),
			}
		}
	}()
	ix, err = s.buildFn(ctx, st.g, s.workers)
	if err == nil && cur.g == st.g {
		s.state.Store(&epochState{g: st.g, ix: ix})
	}
	build = time.Since(t0)
	if errors.Is(err, context.DeadlineExceeded) && s.logger != nil && s.buildTimeoutLogged != st.epoch()+1 {
		s.buildTimeoutLogged = st.epoch() + 1
		s.logger.Printf("index build of epoch %d hit the %v request timeout after %v: misses of this epoch cannot answer until the timeout exceeds a build or -index builds at startup",
			st.epoch(), s.reqTimeout, build.Round(time.Millisecond))
	}
	return ix, build, err
}

// extract answers (eps, mu) from ix in O(answer) on a pooled workspace,
// with no similarity work. The extraction aliases workspace buffers the
// next request will reuse, so a detached clone is what callers and the
// cache get.
func (s *Server) extract(ctx context.Context, ix *ppscan.Index, eps string, mu int) (*ppscan.Result, error) {
	ws := s.pool.Acquire()
	defer s.pool.Release(ws)
	res, err := ppscan.QueryIndexWorkspace(ctx, ix, eps, mu, ws)
	if err != nil {
		return nil, err
	}
	return res.Clone(), nil
}

// computeCtx derives the computation context for one request: the client's
// context (cancelled on disconnect) bounded by the per-request deadline.
func (s *Server) computeCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.reqTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.reqTimeout)
}

// retryAfterSecs suggests a client back-off after a timeout: the
// configured deadline rounded up to whole seconds.
func (s *Server) retryAfterSecs() int {
	secs := int(s.reqTimeout / time.Second)
	if s.reqTimeout%time.Second != 0 || secs < 1 {
		secs++
	}
	return secs
}

// writeResolveError maps a resolve failure to an HTTP response, first match
// wins: a shard that failed every attempt 503 + Retry-After naming the
// shard (graceful degradation — the query is answerable again once the
// worker is back); a bare shard leaf fault (a path that did not exhaust the
// budget) a structured 500 naming shard and round; a contained worker
// panic (in a build, an extraction or a fleet round) a structured 500; a
// deadline expiry 503 + Retry-After (the body names the aborted phase when
// a PartialError carries one); a client disconnect 503; anything else 400.
func (s *Server) writeResolveError(w http.ResponseWriter, err error) {
	var pe *ppscan.PartialError
	phase := ""
	if errors.As(err, &pe) {
		phase = pe.Phase
	}
	shardFault := func(kind, msg string, id int, round string) {
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"error": msg, "kind": kind, "shard": id, "round": round,
		})
	}
	var (
		ua  *shard.ShardUnavailableError
		to  *shard.ShardTimeoutError
		cr  *shard.ShardCrashError
		rej *shard.ShardRejectedError
		wpe *ppscan.WorkerPanicError
	)
	switch {
	case errors.As(err, &ua):
		w.Header().Set("Retry-After", strconv.Itoa(shardRetryAfterSecs))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":             ua.Error(),
			"kind":              "shard_unavailable",
			"shard":             ua.Shard,
			"round":             ua.Round,
			"attempts":          ua.Attempts,
			"retryAfterSeconds": shardRetryAfterSecs,
		})
	case errors.As(err, &to):
		shardFault("shard_timeout", to.Error(), to.Shard, to.Round)
	case errors.As(err, &cr):
		shardFault("shard_crash", cr.Error(), cr.Shard, cr.Round)
	case errors.As(err, &rej):
		shardFault("shard_rejected", rej.Error(), rej.Shard, rej.Round)
	case errors.As(err, &wpe):
		// A contained worker panic: internal fault, not a client problem.
		// The body carries the phase and worker for triage; the stack goes
		// to the log, never the wire.
		s.reg.Counter(obsv.MetricServerPanics).Inc()
		if s.logger != nil {
			s.logger.Printf("contained worker panic: phase=%s worker=%d value=%v\n%s",
				wpe.Phase, wpe.Worker, wpe.Value, wpe.Stack)
		}
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"error":  wpe.Error(),
			"kind":   "worker_panic",
			"phase":  wpe.Phase,
			"worker": wpe.Worker,
		})
	case errors.Is(err, context.DeadlineExceeded):
		s.reg.Counter(obsv.MetricAdmissionTimeouts).Inc()
		writeRetryError(w, http.StatusServiceUnavailable, s.retryAfterSecs(), err, phase)
	case errors.Is(err, context.Canceled):
		// The client has (almost certainly) gone away; the status is for
		// the access log and the metrics middleware.
		s.reg.Counter(obsv.MetricAdmissionCanceled).Inc()
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// clusterSummary is the /cluster response body.
type clusterSummary struct {
	Eps          string            `json:"eps"`
	Mu           int               `json:"mu"`
	Algorithm    string            `json:"algorithm"`
	Clusters     int               `json:"clusters"`
	Cores        int               `json:"cores"`
	Memberships  int               `json:"memberships"`
	Coverage     float64           `json:"coverage"`
	RuntimeMs    float64           `json:"runtimeMs"`
	CompSimCalls int64             `json:"compSimCalls"`
	Members      map[int32][]int32 `json:"members,omitempty"`
}

// summarize builds the body /cluster answers with and /cluster/sweep
// writes per step. eps echoes the request's own string, not the
// normalized rational the engine reports.
func summarize(eps string, mu int, res *ppscan.Result, members bool) clusterSummary {
	out := clusterSummary{
		Eps:          eps,
		Mu:           mu,
		Algorithm:    res.Stats.Algorithm,
		Clusters:     res.NumClusters(),
		Cores:        res.NumCores(),
		Memberships:  len(res.NonCore),
		Coverage:     quality.Coverage(res),
		RuntimeMs:    float64(res.Stats.Total) / float64(time.Millisecond),
		CompSimCalls: res.Stats.CompSimCalls,
	}
	if members {
		out.Members = res.Clusters()
	}
	return out
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	eps, mu, err := s.params(q, false)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.computeCtx(r)
	defer cancel()
	res, err := s.resolve(ctx, s.state.Load(), eps[0], mu)
	if err != nil {
		s.writeResolveError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, summarize(eps[0], mu, res, q.Get("members") == "true"))
}

// vertexInfo is the /vertex response body.
type vertexInfo struct {
	Vertex     int32   `json:"vertex"`
	Degree     int32   `json:"degree"`
	Role       string  `json:"role"`
	Clusters   []int32 `json:"clusters"`
	Attachment string  `json:"attachment"`
}

func (s *Server) handleVertex(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	eps, mu, err := s.params(q, false)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// One state load serves the whole request: bounds check, clustering
	// and attachment classification all see the same snapshot.
	st := s.state.Load()
	vStr := q.Get("v")
	v64, err := strconv.ParseInt(vStr, 10, 32)
	if err != nil || v64 < 0 || v64 >= int64(st.g.NumVertices()) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad vertex %q", vStr))
		return
	}
	v := int32(v64)
	ctx, cancel := s.computeCtx(r)
	defer cancel()
	res, err := s.resolve(ctx, st, eps[0], mu)
	if err != nil {
		s.writeResolveError(w, err)
		return
	}
	var clusters []int32
	if id := res.CoreClusterID[v]; id >= 0 {
		clusters = append(clusters, id)
	}
	for _, m := range res.MembershipsOf(v) {
		clusters = append(clusters, m.ClusterID)
	}
	writeJSON(w, http.StatusOK, vertexInfo{
		Vertex:     v,
		Degree:     st.g.Degree(v),
		Role:       res.Roles[v].String(),
		Clusters:   clusters,
		Attachment: result.ClassifyVertex(st.g, res, v).String(),
	})
}

// qualityInfo is the /quality response body.
type qualityInfo struct {
	Modularity  float64                 `json:"modularity"`
	Coverage    float64                 `json:"coverage"`
	TopClusters []quality.ClusterReport `json:"topClusters"`
}

func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	eps, mu, err := s.params(r.URL.Query(), false)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st := s.state.Load()
	ctx, cancel := s.computeCtx(r)
	defer cancel()
	res, err := s.resolve(ctx, st, eps[0], mu)
	if err != nil {
		s.writeResolveError(w, err)
		return
	}
	reports := quality.Report(st.g, res)
	if len(reports) > 10 {
		reports = reports[:10]
	}
	writeJSON(w, http.StatusOK, qualityInfo{
		Modularity:  quality.Modularity(st.g, res),
		Coverage:    quality.Coverage(res),
		TopClusters: reports,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeRetryError writes an error response with a Retry-After header. phase
// (when non-empty) names the algorithm phase that was executing at abort.
func writeRetryError(w http.ResponseWriter, status, retryAfterSecs int, err error, phase string) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
	body := map[string]any{
		"error":             err.Error(),
		"retryAfterSeconds": retryAfterSecs,
	}
	if phase != "" {
		body["abortedDuring"] = phase
	}
	writeJSON(w, status, body)
}
