// Tail-latency exemplars: the server retains the slowest direct-compute
// requests of a sliding window — parameters, per-stage phase breakdown,
// and (when armed) the full Chrome trace of the run — and serves them at
// GET /debug/slowest. When a latency alert fires, the trace of the actual
// offending request is already captured; no reproduction needed.
//
// Cost model: the warm path pays one lock-free qualifies() check per
// computation (a few atomic loads, no allocation). Only requests slow
// enough to enter the ring take the mutex and copy state, and only then
// is a captured trace exported. Tracers come from a small pool and are
// Reset between runs, so traced serving stays inside the zero-allocation
// budget (see TestServingAllocBudgetTraced in internal/engine).
package server

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ppscan/internal/obsv"
	"ppscan/internal/result"
)

// DefaultExemplarWindow is the sliding window within which the slowest
// requests are retained; entries older than the window are evicted
// lazily.
const DefaultExemplarWindow = 15 * time.Minute

// exemplar is one retained slow request.
type exemplar struct {
	At       time.Time
	Epoch    uint64 // graph snapshot the request was answered against
	Eps      string
	Mu       int
	Algo     string
	Err      string // empty on success
	Duration time.Duration
	Phases   [result.NumPhases]time.Duration
	Trace    []obsv.TraceEvent // nil unless trace capture is armed
}

// exemplarRing keeps the slowest K requests of the last window. The
// entries slice is allocated once at capacity; insertion replaces the
// fastest (or an expired) entry in place. minDur/oldest/full mirror the
// ring state in atomics so the warm-path gate never takes the mutex.
type exemplarRing struct {
	capacity int
	window   time.Duration
	captures *obsv.Counter

	mu      sync.Mutex
	entries []exemplar

	full   atomic.Bool
	minDur atomic.Int64 // fastest retained entry, ns; valid when full
	oldest atomic.Int64 // oldest retained entry, unix ns; valid when full
}

func newExemplarRing(capacity int, window time.Duration, captures *obsv.Counter) *exemplarRing {
	if capacity < 1 {
		return nil
	}
	if window <= 0 {
		window = DefaultExemplarWindow
	}
	return &exemplarRing{
		capacity: capacity,
		window:   window,
		captures: captures,
		entries:  make([]exemplar, 0, capacity),
	}
}

// qualifies is the warm-path admission gate: would a request of duration
// d enter the ring right now? Lock-free and allocation-free; a racing
// answer only means one borderline exemplar more or less.
func (r *exemplarRing) qualifies(d time.Duration, now time.Time) bool {
	if r == nil {
		return false
	}
	if !r.full.Load() {
		return true
	}
	if now.UnixNano()-r.oldest.Load() > int64(r.window) {
		return true // an entry has expired; a slot is about to open
	}
	return d.Nanoseconds() > r.minDur.Load()
}

// offer retains e (Duration set by the caller) when it is slow enough to
// enter the ring, stamping it now and attaching the error text and — when
// the run was traced — the trace. The gate comes first, so a request that
// does not qualify pays for none of the copying.
func (r *exemplarRing) offer(e exemplar, err error, tr *obsv.Tracer) {
	e.At = time.Now()
	if !r.qualifies(e.Duration, e.At) {
		return
	}
	if err != nil {
		e.Err = err.Error()
	}
	if tr != nil {
		// Cold path: only requests entering the slowest-K ring copy their events.
		e.Trace = tr.Events()
	}
	r.add(e)
}

// add inserts e, evicting expired entries and, when the ring is full,
// replacing the fastest retained entry if e is slower. Cold path.
func (r *exemplarRing) add(e exemplar) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Lazy expiry: overwrite expired slots by compacting in place.
	cutoff := e.At.Add(-r.window)
	kept := r.entries[:0]
	for i := range r.entries {
		if r.entries[i].At.After(cutoff) {
			kept = append(kept, r.entries[i])
		}
	}
	r.entries = kept
	if len(r.entries) < r.capacity {
		r.entries = append(r.entries, e)
		r.captures.Inc()
	} else {
		// Replace the fastest entry if the newcomer is slower.
		minI := 0
		for i := 1; i < len(r.entries); i++ {
			if r.entries[i].Duration < r.entries[minI].Duration {
				minI = i
			}
		}
		if e.Duration <= r.entries[minI].Duration {
			r.refreshGates()
			return // lost the race against a faster qualifies() answer
		}
		r.entries[minI] = e
		r.captures.Inc()
	}
	r.refreshGates()
}

// refreshGates recomputes the atomic mirrors; callers hold r.mu.
func (r *exemplarRing) refreshGates() {
	if len(r.entries) < r.capacity {
		r.full.Store(false)
		return
	}
	minD := r.entries[0].Duration
	oldest := r.entries[0].At
	for i := 1; i < len(r.entries); i++ {
		if r.entries[i].Duration < minD {
			minD = r.entries[i].Duration
		}
		if r.entries[i].At.Before(oldest) {
			oldest = r.entries[i].At
		}
	}
	r.minDur.Store(minD.Nanoseconds())
	r.oldest.Store(oldest.UnixNano())
	r.full.Store(true)
}

// snapshot returns the live (non-expired) exemplars sorted slowest-first.
func (r *exemplarRing) snapshot(now time.Time) []exemplar {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	cutoff := now.Add(-r.window)
	out := make([]exemplar, 0, len(r.entries))
	for i := range r.entries {
		if r.entries[i].At.After(cutoff) {
			out = append(out, r.entries[i])
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Duration > out[j].Duration })
	return out
}

// len reports the retained entry count (expired entries included until
// the next add compacts them; the gauge is advisory).
func (r *exemplarRing) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// WithExemplars configures the tail-latency exemplar ring: the n slowest
// direct computations of the last window stay inspectable at
// GET /debug/slowest. captureTrace additionally threads a pooled tracer
// through each computation so every retained exemplar carries the full
// Chrome trace (phases + scheduler tasks) of its run; the per-request
// overhead is the span recording itself, still allocation-free in steady
// state. n < 1 disables retention; window <= 0 means
// DefaultExemplarWindow. Call after WithAdmission so the tracer pool can
// size itself to the in-flight bound.
func (s *Server) WithExemplars(n int, window time.Duration, captureTrace bool) *Server {
	if n < 1 {
		s.exemplars = nil
		s.captureTrace = false
		s.trPool = nil
		return s
	}
	s.exemplars = newExemplarRing(n, window, s.reg.Counter(obsv.MetricServerExemplarCaptures))
	s.captureTrace = captureTrace
	if captureTrace {
		size := 4
		if c := cap(s.sem); c > size {
			size = c
		}
		s.trPool = make(chan *obsv.Tracer, size)
	} else {
		s.trPool = nil
	}
	return s
}

// getTracer takes a pooled tracer (reset, ready to record) or builds one
// when the pool is empty — that happens only while concurrency ramps past
// the pool's high-water mark; steady state recycles.
func (s *Server) getTracer() *obsv.Tracer {
	select {
	case tr := <-s.trPool:
		tr.Reset()
		return tr
	default:
		// Pool miss: only while in-flight concurrency exceeds every tracer ever pooled.
		return obsv.NewTracer()
	}
}

// putTracer returns a tracer to the pool, dropping it when full.
func (s *Server) putTracer(tr *obsv.Tracer) {
	if tr == nil {
		return
	}
	select {
	case s.trPool <- tr:
	default:
	}
}

// slowestEntry is the JSON shape of one exemplar in /debug/slowest.
type slowestEntry struct {
	At         time.Time        `json:"at"`
	AgeMs      float64          `json:"ageMs"`
	Epoch      uint64           `json:"epoch"`
	Eps        string           `json:"eps"`
	Mu         int              `json:"mu"`
	Algorithm  string           `json:"algorithm"`
	DurationMs float64          `json:"durationMs"`
	Error      string           `json:"error,omitempty"`
	PhaseNs    map[string]int64 `json:"phaseNs"`
	Trace      *obsv.TraceFile  `json:"trace,omitempty"`
}

// slowestResponse is the /debug/slowest response body.
type slowestResponse struct {
	WindowMs     float64        `json:"windowMs"`
	Capacity     int            `json:"capacity"`
	TraceCapture bool           `json:"traceCapture"`
	Exemplars    []slowestEntry `json:"exemplars"`
}

// handleSlowest serves the retained tail-latency exemplars, slowest
// first. ?trace=false strips the embedded Chrome traces (they dominate
// the payload); each trace object is directly loadable in
// chrome://tracing or https://ui.perfetto.dev.
func (s *Server) handleSlowest(w http.ResponseWriter, r *http.Request) {
	includeTrace := r.URL.Query().Get("trace") != "false"
	now := time.Now()
	out := slowestResponse{
		Capacity:     0,
		TraceCapture: s.captureTrace,
		Exemplars:    []slowestEntry{},
	}
	if s.exemplars != nil {
		out.WindowMs = float64(s.exemplars.window) / float64(time.Millisecond)
		out.Capacity = s.exemplars.capacity
		for _, e := range s.exemplars.snapshot(now) {
			entry := slowestEntry{
				At:         e.At,
				AgeMs:      float64(now.Sub(e.At)) / float64(time.Millisecond),
				Epoch:      e.Epoch,
				Eps:        e.Eps,
				Mu:         e.Mu,
				Algorithm:  e.Algo,
				DurationMs: float64(e.Duration) / float64(time.Millisecond),
				Error:      e.Err,
				PhaseNs:    make(map[string]int64, result.NumPhases),
			}
			for ph := result.PhaseID(0); ph < result.NumPhases; ph++ {
				entry.PhaseNs[result.PhaseNames[ph]] = e.Phases[ph].Nanoseconds()
			}
			if includeTrace && e.Trace != nil {
				entry.Trace = obsv.NewTraceFile(e.Trace)
			}
			out.Exemplars = append(out.Exemplars, entry)
		}
	}
	writeJSON(w, http.StatusOK, out)
}
