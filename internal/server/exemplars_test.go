package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"ppscan"
	"ppscan/graph"
	"ppscan/internal/gen"
	"ppscan/internal/obsv"
)

// TestExemplarRingRetainsSlowest: the ring keeps the K slowest entries,
// evicting the fastest when a slower one arrives, and ignores faster
// newcomers once full.
func TestExemplarRingRetainsSlowest(t *testing.T) {
	reg := obsv.New()
	r := newExemplarRing(3, time.Hour, reg.Counter("captures"))
	now := time.Now()
	durs := []time.Duration{50, 10, 30, 20, 40, 5} // ms
	for i, d := range durs {
		dur := d * time.Millisecond
		if r.qualifies(dur, now) {
			r.add(exemplar{At: now.Add(time.Duration(i) * time.Second), Duration: dur})
		}
	}
	got := r.snapshot(now.Add(10 * time.Second))
	if len(got) != 3 {
		t.Fatalf("retained %d exemplars, want 3", len(got))
	}
	want := []time.Duration{50, 40, 30}
	for i, e := range got {
		if e.Duration != want[i]*time.Millisecond {
			t.Errorf("slot %d: duration %v, want %vms", i, e.Duration, want[i])
		}
	}
	// 5ms must not have qualified once the ring held {50,40,30}.
	if r.qualifies(5*time.Millisecond, now) {
		t.Errorf("5ms qualifies against a full ring of {50,40,30}ms")
	}
	if r.qualifies(35*time.Millisecond, now) != true {
		t.Errorf("35ms should qualify against min 30ms")
	}
}

// TestExemplarRingWindowExpiry: entries older than the window fall out of
// snapshots and free their slots for new entries.
func TestExemplarRingWindowExpiry(t *testing.T) {
	reg := obsv.New()
	r := newExemplarRing(2, time.Minute, reg.Counter("captures"))
	old := time.Now().Add(-2 * time.Minute)
	r.add(exemplar{At: old, Duration: time.Second})
	r.add(exemplar{At: old, Duration: 2 * time.Second})
	now := time.Now()
	if got := r.snapshot(now); len(got) != 0 {
		t.Fatalf("snapshot returned %d expired exemplars, want 0", len(got))
	}
	// A fast request must qualify because the retained entries expired.
	if !r.qualifies(time.Millisecond, now) {
		t.Fatalf("fast request does not qualify although the ring is expired")
	}
	r.add(exemplar{At: now, Duration: time.Millisecond})
	got := r.snapshot(now)
	if len(got) != 1 || got[0].Duration != time.Millisecond {
		t.Fatalf("after expiry + add: snapshot %+v, want the 1ms entry alone", got)
	}
}

// TestExemplarQualifiesNoAlloc: the warm-path gate allocates nothing.
func TestExemplarQualifiesNoAlloc(t *testing.T) {
	reg := obsv.New()
	r := newExemplarRing(4, time.Hour, reg.Counter("captures"))
	now := time.Now()
	for i := 0; i < 4; i++ {
		r.add(exemplar{At: now, Duration: time.Duration(i+1) * time.Millisecond})
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.qualifies(time.Microsecond, now)
	})
	if allocs != 0 {
		t.Fatalf("qualifies allocates %.1f objects per call, want 0", allocs)
	}
}

// TestSlowestEndpoint drives a burst of misses and asserts /debug/slowest
// returns the slowest of them, slowest first, with their parameters and
// the one miss that built the epoch's index marked by its build time.
func TestSlowestEndpoint(t *testing.T) {
	g := gen.Roll(2000, 8, 3)
	s := New(g, 2).WithExemplars(4, time.Hour)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx := context.Background()
	for _, eps := range []string{"0.3", "0.4", "0.5", "0.6", "0.7", "0.8"} {
		if _, err := s.resolve(ctx, s.state.Load(), eps, 4); err != nil {
			t.Fatalf("resolve eps=%s: %v", eps, err)
		}
	}

	res, err := ts.Client().Get(ts.URL + "/debug/slowest")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("GET /debug/slowest: status %d", res.StatusCode)
	}
	var out slowestResponse
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatalf("decoding /debug/slowest: %v", err)
	}
	if out.Capacity != 4 {
		t.Errorf("capacity=%d, want 4", out.Capacity)
	}
	if len(out.Exemplars) != 4 {
		t.Fatalf("retained %d exemplars, want 4 (6 misses, ring of 4)", len(out.Exemplars))
	}
	var built []string
	for i, e := range out.Exemplars {
		if i > 0 && e.DurationMs > out.Exemplars[i-1].DurationMs {
			t.Errorf("exemplars not sorted slowest-first: [%d]=%.3fms > [%d]=%.3fms",
				i, e.DurationMs, i-1, out.Exemplars[i-1].DurationMs)
		}
		if e.Eps == "" || e.Mu != 4 || e.Epoch != 0 || e.Error != "" {
			t.Errorf("exemplar %d parameters incomplete: %+v", i, e)
		}
		if e.BuildMs > e.DurationMs {
			t.Errorf("exemplar %d: buildMs %.3f > durationMs %.3f", i, e.BuildMs, e.DurationMs)
		}
		if e.BuildMs > 0 {
			built = append(built, e.Eps)
		}
	}
	// The first miss built the index, which makes it by far the slowest,
	// so it is retained; every later miss extracted from that index.
	if len(built) != 1 || built[0] != "0.3" {
		t.Errorf("exemplars with a build: %v, want [0.3] (the first miss)", built)
	}

	// The exemplar metrics are exported.
	snap := s.reg.Snapshot()
	if got, ok := snap[obsv.MetricServerExemplarCaptures]; !ok {
		t.Errorf("%s missing from registry", obsv.MetricServerExemplarCaptures)
	} else if n, _ := got.(int64); n < 4 {
		t.Errorf("%s = %v, want >= 4", obsv.MetricServerExemplarCaptures, got)
	}
}

// TestExemplarCapturesFailedRuns: a miss whose build fails still lands in
// the ring with its error and the time the build took.
func TestExemplarCapturesFailedRuns(t *testing.T) {
	g := gen.Roll(500, 6, 3)
	s := New(g, 1).WithExemplars(2, time.Hour)
	wantErr := errors.New("synthetic build failure")
	s.buildFn = func(ctx context.Context, g *graph.Graph, workers int) (*ppscan.Index, error) {
		time.Sleep(2 * time.Millisecond)
		return nil, wantErr
	}
	if _, err := s.resolve(context.Background(), s.state.Load(), "0.5", 4); !errors.Is(err, wantErr) {
		t.Fatalf("resolve error = %v, want the injected build failure", err)
	}
	got := s.exemplars.snapshot(time.Now())
	if len(got) != 1 {
		t.Fatalf("retained %d exemplars, want 1", len(got))
	}
	if got[0].Err != wantErr.Error() {
		t.Errorf("failed-miss exemplar Err = %q, want %q", got[0].Err, wantErr)
	}
	if got[0].Build < 2*time.Millisecond || got[0].Build > got[0].Duration {
		t.Errorf("failed-miss exemplar build %v, duration %v; want 2ms <= build <= duration", got[0].Build, got[0].Duration)
	}
}

// TestWithExemplarsDisable: n < 1 turns retention off entirely.
func TestWithExemplarsDisable(t *testing.T) {
	g := gen.Roll(500, 6, 3)
	s := New(g, 1).WithExemplars(0, 0)
	if _, err := s.resolve(context.Background(), s.state.Load(), "0.5", 4); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/debug/slowest", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var out slowestResponse
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Capacity != 0 || len(out.Exemplars) != 0 {
		t.Fatalf("disabled exemplars still report capacity=%d len=%d", out.Capacity, len(out.Exemplars))
	}
}
