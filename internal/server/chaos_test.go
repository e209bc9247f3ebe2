package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ppscan"
	"ppscan/internal/fault"
	"ppscan/internal/gen"
	"ppscan/internal/obsv"
)

// TestAcceptancePanicTo500AndRecovery: an injected worker panic in the
// epoch's index build answers HTTP 500 with a structured body,
// server.panics increments, the failed build publishes nothing, and the
// immediately following identical request builds again and answers
// exactly.
func TestAcceptancePanicTo500AndRecovery(t *testing.T) {
	t.Cleanup(fault.Disable)
	fault.Disable()
	g := gen.Roll(300, 8, 3)

	// Reference answer, computed clean and out-of-band.
	ref, err := ppscan.Run(g, ppscan.Options{Epsilon: "0.5", Mu: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	srv := New(g, 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Exactly one fault: the first scheduler task of the first request —
	// its build's first pass — panics.
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Point: fault.WorkerTask, Action: fault.ActPanic, Start: 1, Count: 1},
	}})
	body := get(t, ts, "/cluster?eps=0.5&mu=3", http.StatusInternalServerError)
	if body["kind"] != "worker_panic" {
		t.Errorf("500 body kind = %v, want worker_panic (body: %v)", body["kind"], body)
	}
	if body["phase"] == "" || body["phase"] == nil {
		t.Errorf("500 body names no phase: %v", body)
	}
	if body["error"] == "" || body["error"] == nil {
		t.Errorf("500 body carries no error message: %v", body)
	}
	fault.Disable()

	metrics := get(t, ts, "/metrics", http.StatusOK)
	if p, _ := metrics[obsv.MetricServerPanics].(float64); p != 1 {
		t.Errorf("server.panics = %v, want 1", metrics[obsv.MetricServerPanics])
	}
	if metrics[obsv.MetricServerIndexed] != false {
		t.Errorf("server.indexed = %v after the failed build, want false", metrics[obsv.MetricServerIndexed])
	}

	// The very next request builds again, and the answer must be exact.
	body = get(t, ts, "/cluster?eps=0.5&mu=3", http.StatusOK)
	if got := int(body["clusters"].(float64)); got != ref.NumClusters() {
		t.Errorf("post-panic clusters = %d, want %d", got, ref.NumClusters())
	}
	if got := int(body["cores"].(float64)); got != ref.NumCores() {
		t.Errorf("post-panic cores = %d, want %d", got, ref.NumCores())
	}
	if got := int(body["memberships"].(float64)); got != len(ref.NonCore) {
		t.Errorf("post-panic memberships = %d, want %d", got, len(ref.NonCore))
	}
	if v := srv.indexBuilds.Value(); v != 2 {
		t.Errorf("%s = %d, want 2 (the failed build, then one that published)", obsv.MetricServerIndexBuilds, v)
	}
}

// TestServerChaosSurvives100FaultedRequests hammers the server with a
// recurring panic schedule: every request either answers 200 with a sane
// body or a structured 500 — the process survives all of them, panics are
// counted, and a clean request afterwards is correct.
func TestServerChaosSurvives100FaultedRequests(t *testing.T) {
	t.Cleanup(fault.Disable)
	fault.Disable()
	g := gen.Roll(300, 8, 3)
	ref, err := ppscan.Run(g, ppscan.Options{Epsilon: "0.5", Mu: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, 2).WithCacheSize(1) // tiny cache so requests actually extract
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A panic every 23rd task hit, forever (Count 0 = unlimited), plus a
	// sprinkle of stragglers: a build runs four tasks on this small graph
	// and an extraction a few, so panics land in failed builds (the next
	// miss builds again) and in a fraction of the extractions, and the
	// rest must still answer correctly mid-storm. Cache-busting mu values
	// force extractions.
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Point: fault.WorkerTask, Action: fault.ActPanic, Start: 7, Every: 23},
		{Point: fault.WorkerTask, Action: fault.ActDelay, Start: 3, Every: 17, Delay: 200 * time.Microsecond},
	}})
	const reqs = 120
	var ok200, err500 int
	for i := 0; i < reqs; i++ {
		path := fmt.Sprintf("/cluster?eps=0.5&mu=%d", 1+i%4)
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("request %d: transport error %v (did the server die?)", i, err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			ok200++
		case http.StatusInternalServerError:
			err500++
		default:
			t.Errorf("request %d: unexpected status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if err500 == 0 {
		t.Error("no request hit an injected fault; the schedule never fired")
	}
	t.Logf("chaos: %d ok / %d contained-500 over %d requests", ok200, err500, reqs)
	fault.Disable()

	metrics := get(t, ts, "/metrics", http.StatusOK)
	if p, _ := metrics[obsv.MetricServerPanics].(float64); int(p) != err500 {
		t.Errorf("server.panics = %v, want %d (one per 500)", p, err500)
	}

	// Clean request after the storm: exact answer.
	body := get(t, ts, "/cluster?eps=0.5&mu=3", http.StatusOK)
	if got := int(body["clusters"].(float64)); got != ref.NumClusters() {
		t.Errorf("post-chaos clusters = %d, want %d", got, ref.NumClusters())
	}
	if got := int(body["memberships"].(float64)); got != len(ref.NonCore) {
		t.Errorf("post-chaos memberships = %d, want %d", got, len(ref.NonCore))
	}
}

// TestHandlerPanicContained drives the last-resort middleware recover: a
// panic out of a handler itself (not a worker, not a build) still answers
// a structured 500 and counts, and the server keeps serving.
func TestHandlerPanicContained(t *testing.T) {
	srv := New(gen.Roll(100, 6, 3), 2)
	ts := httptest.NewServer(srv.instrument("cluster", func(http.ResponseWriter, *http.Request) {
		panic("synthetic handler panic")
	}))
	defer ts.Close()

	body := get(t, ts, "/cluster?eps=0.5&mu=3", http.StatusInternalServerError)
	if body["error"] != "internal error: synthetic handler panic" {
		t.Errorf("500 body = %v, want the recovered value", body)
	}
	if p := srv.reg.Counter(obsv.MetricServerPanics).Value(); p != 1 {
		t.Errorf("server.panics = %d, want 1", p)
	}
	// The real handler still answers: the process survived.
	real := httptest.NewServer(srv.Handler())
	defer real.Close()
	get(t, real, "/healthz", http.StatusOK)
	get(t, real, "/cluster?eps=0.5&mu=3", http.StatusOK)
}
