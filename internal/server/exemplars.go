// Tail-latency exemplars: the server retains the slowest cache misses of
// a sliding window — epoch, parameters, duration, error and the share of
// it spent building the epoch's index — and serves them at GET
// /debug/slowest. When a latency alert fires, the offending requests'
// parameters are already captured.
//
// Cost model: the warm path pays one lock-free qualifies() check per miss
// (a few atomic loads, no allocation). Only misses slow enough to enter
// the ring take the mutex and copy state.
package server

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ppscan/internal/obsv"
)

// DefaultExemplarWindow is the sliding window within which the slowest
// requests are retained; entries older than the window are evicted
// lazily.
const DefaultExemplarWindow = 15 * time.Minute

// exemplar is one retained slow miss.
type exemplar struct {
	At       time.Time
	Epoch    uint64 // graph snapshot the request was answered against
	Eps      string // a sweep's grid spec
	Mu       int
	Err      string // empty on success
	Duration time.Duration
	Build    time.Duration // spent building the epoch's index; 0 when one was found
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
// enter the ring, stamping it now and attaching the error text. The gate
// comes first, so a miss that does not qualify pays for none of the
// copying.
func (r *exemplarRing) offer(e exemplar, err error) {
	e.At = time.Now()
	if !r.qualifies(e.Duration, e.At) {
		return
	}
	if err != nil {
		e.Err = err.Error()
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
// cache misses of the last window stay inspectable at GET /debug/slowest.
// n < 1 turns retention off; window <= 0 means DefaultExemplarWindow.
func (s *Server) WithExemplars(n int, window time.Duration) *Server {
	s.exemplars = newExemplarRing(n, window, s.reg.Counter(obsv.MetricServerExemplarCaptures))
	return s
}

// slowestEntry is the JSON shape of one exemplar in /debug/slowest.
type slowestEntry struct {
	At         time.Time `json:"at"`
	AgeMs      float64   `json:"ageMs"`
	Epoch      uint64    `json:"epoch"`
	Eps        string    `json:"eps"`
	Mu         int       `json:"mu"`
	DurationMs float64   `json:"durationMs"`
	BuildMs    float64   `json:"buildMs"`
	Error      string    `json:"error,omitempty"`
}

// slowestResponse is the /debug/slowest response body.
type slowestResponse struct {
	WindowMs  float64        `json:"windowMs"`
	Capacity  int            `json:"capacity"`
	Exemplars []slowestEntry `json:"exemplars"`
}

// handleSlowest serves the retained tail-latency exemplars, slowest
// first.
func (s *Server) handleSlowest(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	out := slowestResponse{Exemplars: []slowestEntry{}}
	if s.exemplars != nil {
		out.WindowMs = ms(s.exemplars.window)
		out.Capacity = s.exemplars.capacity
		for _, e := range s.exemplars.snapshot(now) {
			out.Exemplars = append(out.Exemplars, slowestEntry{
				At:         e.At,
				AgeMs:      ms(now.Sub(e.At)),
				Epoch:      e.Epoch,
				Eps:        e.Eps,
				Mu:         e.Mu,
				DurationMs: ms(e.Duration),
				BuildMs:    ms(e.Build),
				Error:      e.Err,
			})
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// ms renders d in fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
