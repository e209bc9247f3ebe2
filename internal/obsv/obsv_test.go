package obsv

import (
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const goroutines, perG = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Add(10)
	g.Add(-5)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines = 4
	const perG = 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := int64(1); v <= perG; v++ {
				h.Observe(v)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
	wantSum := int64(goroutines) * perG * (perG + 1) / 2
	if got := h.Sum(); got != wantSum {
		t.Fatalf("sum = %d, want %d", got, wantSum)
	}
	if got := h.Max(); got != perG {
		t.Fatalf("max = %d, want %d", got, perG)
	}
	// Quantiles are upper bounds exact to one power-of-two bucket: the true
	// median of uniform 1..1000 is 500 (bucket [512,1023]); the estimate
	// must be within that bucket and never exceed the observed max.
	p50 := h.Quantile(0.5)
	if p50 < 500 || p50 > 1000 {
		t.Errorf("p50 = %d, want within [500, 1000]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 || p99 > 1000 {
		t.Errorf("p99 = %d, want within [p50, 1000]", p99)
	}
	if h.Quantile(0) > h.Quantile(1) {
		t.Errorf("q0 %d > q1 %d", h.Quantile(0), h.Quantile(1))
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Observe(0)
	h.Observe(-5) // clamped into the zero bucket
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("all-zero p50 = %d", got)
	}
	h.Observe(1 << 40)
	if got := h.Quantile(1); got != 1<<40 {
		t.Fatalf("q1 = %d, want %d (capped at max)", got, int64(1)<<40)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := New()
	c1 := r.Counter("a")
	c2 := r.Counter("a")
	if c1 != c2 {
		t.Fatal("same name should return the same counter")
	}
	c1.Add(3)
	r.Gauge("g").Add(9)
	r.Histogram("h").Observe(100)

	snap := r.Snapshot()
	if snap["a"].(int64) != 3 {
		t.Errorf("snapshot a = %v", snap["a"])
	}
	if snap["g"].(int64) != 9 {
		t.Errorf("snapshot g = %v", snap["g"])
	}
	hs := snap["h"].(HistogramSnapshot)
	if hs.Count != 1 || hs.Sum != 100 {
		t.Errorf("snapshot h = %+v", hs)
	}
	if len(snap) != 3 {
		t.Errorf("snapshot has %d names, want 3: %v", len(snap), snap)
	}
}

func TestRegistryConcurrentRegistration(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("shared").Inc()
				r.Histogram("lat").Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 800 {
		t.Fatalf("shared = %d, want 800", got)
	}
	if got := r.Histogram("lat").Count(); got != 800 {
		t.Fatalf("lat count = %d, want 800", got)
	}
}

func TestNilSafety(t *testing.T) {
	// Every instrument must be a no-op when nil — this is what makes
	// instrumented code branch-free beyond the nil checks.
	var c *Counter
	c.Add(1)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram")
	}
	if (h.Snapshot() != HistogramSnapshot{}) {
		t.Fatal("nil histogram snapshot")
	}
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Add(1)
	r.Histogram("x").Observe(1)
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry should be inert")
	}
}

func TestDefaultRegistryIsLive(t *testing.T) {
	d := Default()
	before := d.Counter("obsv_test.probe").Value()
	d.Counter("obsv_test.probe").Inc()
	if d.Counter("obsv_test.probe").Value() != before+1 {
		t.Fatal("default registry did not record")
	}
}
