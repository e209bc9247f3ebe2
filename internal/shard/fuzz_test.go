package shard

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"ppscan/internal/gen"
)

// FuzzStepRequest sends arbitrary gob bodies to PathStep on a small-graph
// worker — shard 1 of 2, so its range does not start at vertex 0. Each
// must get a 200 whose reply checkReply accepts, or a typed 400 / 409
// refusal (a request addressed to another partition is 400 wrong_shard).
// A 500 fails too: on these inputs it could only be a contained panic. The
// committed corpus (testdata/fuzz/FuzzStepRequest) holds one valid request
// per round, roles short of one vertex, and negative, out-of-range and
// not-their-own-root cluster ids, each addressed to shard 1 of 2 so it
// reaches the round code.
func FuzzStepRequest(f *testing.F) {
	// Three planted communities of 8: at the corpus's (0.5, 4), 16 cores, 8
	// non-cores and a cluster across the boundary of the two shards.
	g := gen.PlantedPartition(3, 8, 0.7, 0.06, 1)
	const shards, shard = 2, 1
	w, err := NewWorker(g, WorkerOptions{Shard: shard, Shards: shards, Workers: 2})
	if err != nil {
		f.Fatal(err)
	}
	sn := &coordSnap{g: g, epoch: g.Epoch(), bounds: Partition(g, shards)}
	lo, hi := sn.bounds[shard], sn.bounds[shard+1]
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		w.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathStep, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			var rej rejection
			if err := json.Unmarshal(rec.Body.Bytes(), &rej); err != nil ||
				!(rec.Code == http.StatusBadRequest && (rej.Kind == rejectBadRequest || rej.Kind == rejectWrongShard) ||
					rec.Code == http.StatusConflict && rej.Kind == rejectEpoch) {
				t.Fatalf("answered %d %q", rec.Code, rec.Body.String())
			}
			return
		}
		var req StepRequest
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		var resp StepResponse
		if err := gob.NewDecoder(rec.Body).Decode(&resp); err != nil {
			t.Fatalf("undecodable 200 reply: %v", err)
		}
		if resp.Shard != shard || resp.Round != req.Round {
			t.Fatalf("reply names shard %d round %q, want %d %q", resp.Shard, resp.Round, shard, req.Round)
		}
		// The whole-graph cluster ids checkReply tests memberships against:
		// the request's own over the range; an id outside it is the other
		// shard's to vouch for.
		ids := make([]int32, g.NumVertices())
		for x := range ids {
			ids[x] = int32(x)
		}
		if int32(len(req.CoreClusterID)) == hi-lo {
			copy(ids[lo:hi], req.CoreClusterID)
		}
		if err := checkReply(sn, shard, &req, ids, &resp); err != nil {
			t.Fatalf("%s reply fails checkReply: %v", req.Round, err)
		}
	})
}
