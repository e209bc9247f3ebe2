package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ppscan"
	"ppscan/graph"
	"ppscan/internal/fault"
	"ppscan/internal/gen"
	"ppscan/internal/obsv"
)

// postEdges posts one NDJSON batch and decodes the response body.
func postEdges(t *testing.T, ts *httptest.Server, body string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(ts.URL+"/edges", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /edges: status %d, want %d", resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST /edges: bad JSON: %v", err)
	}
	return out
}

func TestEdgesDisabledAndMethod(t *testing.T) {
	ts := httptest.NewServer(New(testGraph(t), 2).Handler())
	defer ts.Close()
	// Mutations not enabled: POST answers 403.
	postEdges(t, ts, `{"u":0,"v":5}`, http.StatusForbidden)
	// GET is never allowed.
	resp, err := http.Get(ts.URL + "/edges")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /edges: status %d, want 405", resp.StatusCode)
	}
}

func TestEdgesCommitAdvancesEpoch(t *testing.T) {
	s := New(testGraph(t), 2).WithMutations()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if got := get(t, ts, "/healthz", http.StatusOK); got["epoch"].(float64) != 0 || got["mutable"] != true {
		t.Fatalf("healthz pre-mutation: %v", got)
	}
	// Cache a clustering on epoch 0, then mutate: the bridged K4s split.
	before := get(t, ts, "/cluster?eps=0.6&mu=3", http.StatusOK)
	out := postEdges(t, ts, "{\"u\":3,\"v\":4,\"op\":\"del\"}\n{\"u\":0,\"v\":4}\n", http.StatusOK)
	if out["epoch"].(float64) != 1 {
		t.Fatalf("epoch = %v, want 1", out["epoch"])
	}
	if out["added"].(float64) != 1 || out["removed"].(float64) != 1 {
		t.Fatalf("added/removed = %v/%v, want 1/1", out["added"], out["removed"])
	}
	// The new epoch serves the mutated graph; the old cached entry must not
	// answer it.
	after := get(t, ts, "/cluster?eps=0.6&mu=3", http.StatusOK)
	if before["clusters"] == nil || after["clusters"] == nil {
		t.Fatalf("missing clusters: %v / %v", before, after)
	}
	if got := get(t, ts, "/healthz", http.StatusOK); got["epoch"].(float64) != 1 {
		t.Fatalf("healthz epoch = %v, want 1", got["epoch"])
	}
	// Verify against a from-scratch run on the expected mutated graph.
	want, err := graph.FromEdges(8, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3},
		{U: 4, V: 5}, {U: 4, V: 6}, {U: 4, V: 7}, {U: 5, V: 6}, {U: 5, V: 7}, {U: 6, V: 7},
		{U: 0, V: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ppscan.Run(want, ppscan.Options{Epsilon: "0.6", Mu: 3})
	if err != nil {
		t.Fatal(err)
	}
	if int(after["clusters"].(float64)) != ref.NumClusters() {
		t.Errorf("post-mutation clusters = %v, want %d", after["clusters"], ref.NumClusters())
	}
}

func TestEdgesCacheInvalidation(t *testing.T) {
	s := New(testGraph(t), 2).WithMutations()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get(t, ts, "/cluster?eps=0.6&mu=3", http.StatusOK)
	get(t, ts, "/cluster?eps=0.8&mu=2", http.StatusOK)
	postEdges(t, ts, `{"u":0,"v":5}`, http.StatusOK)
	m := get(t, ts, "/metrics", http.StatusOK)
	if got := m[obsv.MetricCacheInvalidations].(float64); got != 2 {
		t.Errorf("%s = %v, want 2 (both epoch-0 entries purged)", obsv.MetricCacheInvalidations, got)
	}
	if got := m[obsv.MetricGraphEpoch].(float64); got != 1 {
		t.Errorf("%s = %v, want 1", obsv.MetricGraphEpoch, got)
	}
	if got := m[obsv.MetricServerMutationBatches].(float64); got != 1 {
		t.Errorf("%s = %v, want 1", obsv.MetricServerMutationBatches, got)
	}
}

func TestEdgesNoOpBatchKeepsEpoch(t *testing.T) {
	s := New(testGraph(t), 2).WithMutations()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Deleting an absent edge and adding an existing one are both no-ops.
	out := postEdges(t, ts, "{\"u\":0,\"v\":7,\"op\":\"del\"}\n{\"u\":0,\"v\":1}\n", http.StatusOK)
	if out["epoch"].(float64) != 0 {
		t.Errorf("no-op batch advanced the epoch to %v", out["epoch"])
	}
	if out["ignored"].(float64) != 2 {
		t.Errorf("ignored = %v, want 2", out["ignored"])
	}
}

func TestEdgesBadBatch(t *testing.T) {
	s := New(testGraph(t), 2).WithMutations()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postEdges(t, ts, "", http.StatusBadRequest)                            // empty
	postEdges(t, ts, `{"u":0,"v":1,"op":"upsert"}`, http.StatusBadRequest) // unknown op
	postEdges(t, ts, `{"u":0,"v":99}`, http.StatusBadRequest)              // out of range
	// The failed batches must not have advanced the epoch.
	if got := get(t, ts, "/healthz", http.StatusOK); got["epoch"].(float64) != 0 {
		t.Fatalf("epoch = %v after rejected batches, want 0", got["epoch"])
	}
}

// FuzzDecodeEdgeOps feeds arbitrary POST /edges bodies and batch bounds
// to the NDJSON decoder. An accepted batch holds at most max ops, marks Del
// exactly on the lines whose op is "del", and decodes back to itself once
// re-encoded. The committed corpus (testdata/fuzz/FuzzDecodeEdgeOps) runs
// under plain go test.
func FuzzDecodeEdgeOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, body string, max uint8) {
		ops, err := decodeEdgeOps(strings.NewReader(body), int(max))
		if err != nil {
			return
		}
		if len(ops) > int(max) {
			t.Fatalf("%q: %d ops accepted, bound %d", body, len(ops), max)
		}
		dec := json.NewDecoder(strings.NewReader(body))
		for i, op := range ops {
			var line edgeOpLine
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%q: line %d of an accepted batch does not decode: %v", body, i+1, err)
			}
			if op.Del != (line.Op == "del") {
				t.Fatalf("%q: line %d has op %q but Del=%v", body, i+1, line.Op, op.Del)
			}
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, op := range ops {
			line := edgeOpLine{U: op.U, V: op.V, Op: "add"}
			if op.Del {
				line.Op = "del"
			}
			if err := enc.Encode(line); err != nil {
				t.Fatal(err)
			}
		}
		again, err := decodeEdgeOps(&buf, int(max))
		if err != nil || !slices.Equal(again, ops) {
			t.Fatalf("%q: re-encoded batch decodes to %v, %v; want %v", body, again, err, ops)
		}
	})
}

// TestEdgesBodyCapped: the batch bound counts operations, so one endless
// line has to be stopped by the byte cap — 413, nothing committed, the
// server still serving — while a batch within the cap commits as before.
func TestEdgesBodyCapped(t *testing.T) {
	s := New(testGraph(t), 2).WithMutations()
	s.maxBatchBytes = 64
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	out := postEdges(t, ts, `{"op":"`+strings.Repeat("a", 4096)+`"}`, http.StatusRequestEntityTooLarge)
	if out["error"] == nil {
		t.Errorf("413 without an error body: %v", out)
	}
	if got := get(t, ts, "/healthz", http.StatusOK); got["epoch"].(float64) != 0 {
		t.Fatalf("epoch = %v after an over-long line, want 0", got["epoch"])
	}
	get(t, ts, "/cluster?eps=0.6&mu=3", http.StatusOK)

	batch := "{\"u\":3,\"v\":4,\"op\":\"del\"}\n{\"u\":0,\"v\":4}\n"
	if int64(len(batch)) > s.maxBatchBytes {
		t.Fatalf("test batch is %d bytes, over the %d-byte cap", len(batch), s.maxBatchBytes)
	}
	out = postEdges(t, ts, batch, http.StatusOK)
	if out["epoch"].(float64) != 1 || out["added"].(float64) != 1 || out["removed"].(float64) != 1 {
		t.Fatalf("in-bound batch = %v, want epoch 1, added 1, removed 1", out)
	}
}

// TestEdgesIndexedMutation: with an attached index, a commit maintains it
// incrementally and the post-mutation index answers match a from-scratch
// index on the mutated graph.
func TestEdgesIndexedMutation(t *testing.T) {
	g := gen.Roll(300, 6, 4)
	mirror, err := graph.FromEdges(g.NumVertices(), g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ppscan.BuildIndexContext(context.Background(), g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The index must be attached to the exact graph instance the server
	// (and its store) holds — ApplyBatch validates snapshot identity.
	s := New(g, 2).WithIndex(ix).WithMutations()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(7))
	var b strings.Builder
	store := graph.NewStore(mirror)
	var ops []graph.EdgeOp
	for i := 0; i < 20; i++ {
		u, v := int32(rng.Intn(300)), int32(rng.Intn(300))
		if u == v {
			continue
		}
		op := graph.EdgeOp{U: u, V: v, Del: rng.Intn(2) == 0}
		ops = append(ops, op)
		kind := "add"
		if op.Del {
			kind = "del"
		}
		fmt.Fprintf(&b, "{\"u\":%d,\"v\":%d,\"op\":%q}\n", u, v, kind)
	}
	out := postEdges(t, ts, b.String(), http.StatusOK)
	if out["indexed"] != true {
		t.Fatalf("indexed = %v, want true", out["indexed"])
	}
	if out["rebuilt"] != false {
		t.Errorf("rebuilt = %v, want false (incremental path)", out["rebuilt"])
	}

	// Ground truth: the same batch applied to a parallel store, clustered
	// from scratch.
	d, err := store.Commit(ops)
	if err != nil {
		t.Fatal(err)
	}
	if d.Empty() {
		t.Fatal("test batch was a no-op; pick different ops")
	}
	ref, err := ppscan.Run(d.New, ppscan.Options{Epsilon: "0.5", Mu: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := get(t, ts, "/cluster?eps=0.5&mu=3", http.StatusOK)
	if int(got["clusters"].(float64)) != ref.NumClusters() {
		t.Errorf("indexed post-mutation clusters = %v, want %d", got["clusters"], ref.NumClusters())
	}
	if int(got["cores"].(float64)) != ref.NumCores() {
		t.Errorf("indexed post-mutation cores = %v, want %d", got["cores"], ref.NumCores())
	}
}

// TestServerChaosMutationStorm drives concurrent mutation batches and
// queries while fault injection periodically panics and errors inside the
// commit's prepare hook (fault.EdgeBatchApply). The invariants: the
// server never crashes, a failed commit never advances the epoch, and
// every served clustering matches a from-scratch run on the final graph
// once the storm settles.
func TestServerChaosMutationStorm(t *testing.T) {
	g := gen.Roll(200, 5, 3)
	served, err := graph.FromEdges(g.NumVertices(), g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	s := New(served, 2).WithMutations()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Injection: every 3rd pass through the commit hook fails — alternating
	// transient errors and panics — starting at the 2nd.
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Point: fault.EdgeBatchApply, Action: fault.ActError, Start: 2, Count: 3, Every: 6},
		{Point: fault.EdgeBatchApply, Action: fault.ActPanic, Start: 5, Count: 3, Every: 6},
	}})
	t.Cleanup(fault.Disable)

	// Mirror store tracks which batches the server accepted so the final
	// state has a ground truth.
	mirror := graph.NewStore(g)
	var mirrorMu sync.Mutex

	const writers, batches = 3, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < batches; i++ {
				var b strings.Builder
				var ops []graph.EdgeOp
				for k := 0; k < 8; k++ {
					u, v := int32(rng.Intn(200)), int32(rng.Intn(200))
					if u == v {
						continue
					}
					del := rng.Intn(3) == 0
					kind := "add"
					if del {
						kind = "del"
					}
					ops = append(ops, graph.EdgeOp{U: u, V: v, Del: del})
					fmt.Fprintf(&b, "{\"u\":%d,\"v\":%d,\"op\":%q}\n", u, v, kind)
				}
				resp, err := http.Post(ts.URL+"/edges", "application/x-ndjson", strings.NewReader(b.String()))
				if err != nil {
					t.Error(err)
					return
				}
				ok := resp.StatusCode == http.StatusOK
				resp.Body.Close()
				if ok {
					// Accepted server-side: replay into the mirror. The
					// server serializes batches under mutMu, and replay order
					// does not matter for the final edge set because ops are
					// per-batch normalized against the evolving graph...
					// except it does: interleaved add/del of the SAME edge is
					// order-dependent. Keep batches on disjoint seeds large
					// enough that collisions are vanishingly unlikely at this
					// scale, and assert against the server's own final graph
					// below rather than the mirror alone.
					mirrorMu.Lock()
					_, merr := mirror.Commit(ops)
					mirrorMu.Unlock()
					if merr != nil {
						t.Errorf("mirror commit: %v", merr)
					}
				}
			}
		}(w)
	}
	// Readers hammer /cluster and /healthz throughout the storm.
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/cluster?eps=0.5&mu=3")
				if err == nil {
					if resp.StatusCode != http.StatusOK {
						t.Errorf("reader: status %d during storm", resp.StatusCode)
					}
					resp.Body.Close()
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	fault.Disable()

	// Settle: the server's final epoch equals the number of accepted
	// effective batches (mirror epoch), and its clustering matches a
	// from-scratch run on the server's own final snapshot.
	st := s.state.Load()
	if st.epoch() != mirror.Epoch() {
		t.Errorf("server epoch %d != mirror epoch %d", st.epoch(), mirror.Epoch())
	}
	if err := st.g.Validate(); err != nil {
		t.Fatalf("final snapshot invalid: %v", err)
	}
	ref, err := ppscan.Run(st.g, ppscan.Options{Epsilon: "0.5", Mu: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := get(t, ts, "/cluster?eps=0.5&mu=3", http.StatusOK)
	if int(got["clusters"].(float64)) != ref.NumClusters() {
		t.Errorf("post-storm clusters = %v, want %d", got["clusters"], ref.NumClusters())
	}
	fs := fault.Snapshot()
	if fs.Panics == 0 && fs.Errors == 0 {
		t.Errorf("storm injected no faults (panics=%d errors=%d); the drill proved nothing", fs.Panics, fs.Errors)
	}
}
