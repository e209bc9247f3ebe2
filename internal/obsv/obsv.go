// Package obsv is the runtime observability layer: a lock-free metrics
// registry (atomic counters, gauges and streaming log-bucketed
// histograms) plus a lightweight span tracer that exports Chrome
// trace_event JSON (see trace.go).
//
// Design rules, in order of importance:
//
//  1. Hot paths pay only atomics — registration (the only locked
//     operation) happens once per metric; callers cache the returned
//     instrument pointer and never touch the registry map again.
//  2. Everything is nil-safe. A nil *Counter, *Gauge, *Histogram,
//     *Registry or *Tracer is a valid no-op instrument, so instrumented
//     code needs no "is observability on?" branches beyond the ones the
//     compiler already emits for the nil check.
//  3. Snapshots are JSON-ready: Registry.Snapshot returns plain maps and
//     integers suitable for an expvar-style /metrics endpoint.
//
// A clustering run's own numbers (CompSim calls, phase times, kernel
// work) are in its result.Stats, not here. The process-global Default
// registry holds the shard coordinator's fleet totals; a server or test
// that wants isolated numbers creates its own with New.
package obsv

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (e.g. in-flight requests, cache
// size). A nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Add adjusts the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count of the streaming histogram: bucket i
// holds values v with bits.Len64(v) == i, i.e. power-of-two ranges
// [2^(i-1), 2^i). 64 buckets cover the whole non-negative int64 range,
// which fits nanosecond latencies and degree sums alike.
const histBuckets = 65

// Histogram is a streaming log-bucketed histogram with atomic buckets.
// Observe is wait-free; quantile estimates are exact to within one
// power-of-two bucket, which is plenty for latency percentiles on a
// /metrics page. A nil *Histogram is a no-op.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// bucketOf maps a value to its bucket index; negative values clamp to 0.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observed samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observed sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 ≤ q ≤ 1):
// the upper edge of the first bucket whose cumulative count reaches
// q·total. Exact to within one power-of-two bucket.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target sample, 1-based.
	rank := int64(q*float64(total-1)) + 1
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if i == 0 {
				return 0
			}
			upper := int64(1)<<uint(i) - 1
			if m := h.max.Load(); upper > m {
				upper = m // never report beyond the observed max
			}
			return upper
		}
	}
	return h.max.Load()
}

// HistogramSnapshot is the JSON-ready summary of a histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// Registry is a named collection of instruments. Lookup-or-create takes a
// mutex; the returned instruments are lock-free, so callers fetch once and
// use forever. A nil *Registry hands out nil no-op instruments.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty live registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

var defaultRegistry = New()

// Default returns the process-global registry: a shard coordinator
// records here unless given a private registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot returns a JSON-ready view of every instrument: counters and
// gauges as integers, histograms as summary objects.
// Keys are the metric names (encoding/json emits them sorted).
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name] = h.Snapshot()
	}
	return out
}
