// POST /edges — batched edge mutations with epoch-consistent publication.
//
// A mutation batch moves the server from one serving epoch to the next:
// the graph.Store commits the batch copy-on-write into a fresh immutable
// snapshot, the GS*-Index (when one is attached) is maintained
// incrementally over exactly the commit's touched vertices, and the new
// (graph, index) pair is published as ONE atomic pointer swap. Requests
// in flight keep the snapshot they loaded; requests after the swap see
// only the new epoch. Because index maintenance runs inside the store's
// two-phase commit (CommitWith prepare hook), a failure — or an injected
// fault.EdgeBatchApply panic — aborts the whole commit: the epoch never
// advances, and the server keeps serving the old snapshot as if the
// batch had never arrived. A torn state (new graph, old index) cannot be
// published.
//
// The request body is NDJSON, one operation per line:
//
//	{"u": 3, "v": 17, "op": "add"}
//	{"u": 3, "v": 17, "op": "del"}
//
// The whole batch commits atomically into one epoch. Response-cache
// entries for older epochs are purged on publication (counted in
// server.cache.invalidations); sweeps are pinned to the epoch they
// loaded, so none of them can serve a stale clustering. An index the first
// miss built for an index-less epoch is carried across commits the same
// way as one attached with WithIndex.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"ppscan"
	"ppscan/graph"
	"ppscan/internal/fault"
	"ppscan/internal/obsv"
)

// DefaultMaxBatchOps bounds one POST /edges batch. A batch is held in
// memory and applied under the commit lock, so an unbounded body would
// let one client stall every mutation behind a giant commit.
const DefaultMaxBatchOps = 1 << 20

// defaultMaxBatchBytes bounds the same body in bytes: the operation bound
// alone lets one endless line be buffered whole by json.Decoder. A
// well-formed line is at most 45 bytes, so no in-bound batch comes near.
const defaultMaxBatchBytes = DefaultMaxBatchOps * 64

// WithMutations enables POST /edges: the server's graph becomes the
// epoch-0 snapshot of a graph.Store and subsequent batches advance the
// epoch. Call during wiring, after WithIndex when an index is attached —
// the index is then maintained incrementally across mutations. The
// mutation instruments are cached here and pre-registered so /metrics
// reports zeros (not absent keys) before the first batch.
func (s *Server) WithMutations() *Server {
	st := s.state.Load()
	s.store = graph.NewStore(st.g)
	s.maxBatchBytes = defaultMaxBatchBytes
	s.invalidations = s.reg.Counter(obsv.MetricCacheInvalidations)
	s.mutBatches = s.reg.Counter(obsv.MetricServerMutationBatches)
	s.mutEdges = s.reg.Counter(obsv.MetricServerMutationEdges)
	s.mutRebuilds = s.reg.Counter(obsv.MetricServerMutationRebuilds)
	s.mutCommitNs = s.reg.Histogram(obsv.MetricServerMutationCommitNs)
	s.mutUpdateNs = s.reg.Histogram(obsv.MetricServerMutationUpdateNs)
	return s
}

// edgeOpLine is the JSON shape of one NDJSON mutation line.
type edgeOpLine struct {
	U  int32  `json:"u"`
	V  int32  `json:"v"`
	Op string `json:"op"` // "add" (default) or "del"
}

// mutationResponse is the POST /edges response body.
type mutationResponse struct {
	Epoch    uint64  `json:"epoch"`    // epoch now serving (unchanged for a no-op batch)
	Added    int     `json:"added"`    // effective edge insertions
	Removed  int     `json:"removed"`  // effective edge deletions
	Ignored  int     `json:"ignored"`  // no-op lines (duplicates, absent deletes, self loops)
	Touched  int     `json:"touched"`  // vertices whose adjacency changed
	Indexed  bool    `json:"indexed"`  // index maintained across the commit
	Rebuilt  bool    `json:"rebuilt"`  // incremental update fell back to a full build
	CommitMs float64 `json:"commitMs"` // whole commit incl. index maintenance
	UpdateMs float64 `json:"updateMs"` // index maintenance alone
}

// handleEdges applies one NDJSON mutation batch. Batches are serialized
// by mutMu: epochs advance in a total order, and the store's own commit
// lock never sees interleaved prepare hooks.
func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	if s.store == nil {
		writeError(w, http.StatusForbidden,
			fmt.Errorf("mutations disabled: start the server with -mutations"))
		return
	}
	ops, err := decodeEdgeOps(http.MaxBytesReader(w, r.Body, s.maxBatchBytes), DefaultMaxBatchOps)
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return
	}
	if len(ops) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}

	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	cur := s.state.Load()

	var (
		newIx    *ppscan.Index
		rebuilt  bool
		updateNs int64
	)
	t0 := time.Now()
	d, err := s.store.CommitWith(ops, func(d *graph.Delta) error {
		// The injection point for the mutation-storm chaos drill: a panic
		// here unwinds through CommitWith's abort path — the epoch must not
		// advance and the server must keep serving.
		if err := fault.Inject(fault.EdgeBatchApply); err != nil {
			return err
		}
		if cur.ix == nil {
			return nil
		}
		tu := time.Now()
		ix, rb, uerr := s.updateIndex(r, cur.ix, d)
		updateNs = time.Since(tu).Nanoseconds()
		if uerr != nil {
			return uerr
		}
		newIx, rebuilt = ix, rb
		return nil
	})
	commitNs := time.Since(t0).Nanoseconds()
	if err != nil {
		// Aborted: no epoch advance, nothing published, old snapshot serves.
		if errors.Is(err, fault.ErrInjected) {
			writeError(w, http.StatusInternalServerError, err)
		} else {
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	s.mutBatches.Inc()
	s.mutCommitNs.Observe(commitNs)
	resp := mutationResponse{
		Epoch:    cur.epoch(),
		Ignored:  d.Ignored,
		Indexed:  cur.ix != nil,
		CommitMs: float64(commitNs) / float64(time.Millisecond),
	}
	if d.Empty() {
		// Every line normalized away: no new epoch, nothing to publish.
		writeJSON(w, http.StatusOK, resp)
		return
	}
	s.mutEdges.Add(int64(len(d.Added) + len(d.Removed)))
	if cur.ix != nil {
		s.mutUpdateNs.Observe(updateNs)
		if rebuilt {
			s.mutRebuilds.Inc()
		}
	}
	// Publish: one pointer swap moves every subsequent request to the new
	// epoch, then purge response-cache entries keyed to older epochs —
	// they can never be requested again (resolve keys on the live epoch),
	// so holding them would only displace live entries. The purge also
	// shuts the cache to requests still in flight on the old epoch.
	next := &epochState{g: d.New, ix: newIx}
	s.state.Store(next)
	if s.coord != nil {
		// Sharded serving: the coordinator now rejects rounds workers
		// answer at the old epoch and pushes snapshot syncs, so no worker
		// ever serves the superseded view.
		s.coord.Publish(d.New)
	}
	s.invalidations.Add(int64(s.cache.purgeBefore(next.epoch())))

	resp.Epoch = next.epoch()
	resp.Added = len(d.Added)
	resp.Removed = len(d.Removed)
	resp.Touched = len(d.Touched)
	resp.Rebuilt = rebuilt
	resp.UpdateMs = float64(updateNs) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, resp)
}

// updateIndex maintains the GS*-Index across one commit: incremental
// ApplyBatch on a pooled workspace, falling back to a full build when the
// incremental path fails for any reason other than cancellation — the
// fallback preserves the invariant that an indexed server stays indexed
// across every successful commit.
func (s *Server) updateIndex(r *http.Request, ix *ppscan.Index, d *graph.Delta) (*ppscan.Index, bool, error) {
	ctx := r.Context()
	ws := s.pool.Acquire(int(d.New.NumVertices()), int(d.New.NumEdges()))
	defer s.pool.Release(ws)
	nix, err := ppscan.ApplyIndexBatch(ctx, ix, d, s.workers, ws)
	if err == nil {
		return nix, false, nil
	}
	if ctx.Err() != nil {
		return nil, false, err // client gone: abort the commit, don't rebuild
	}
	nix, err = ppscan.BuildIndexContext(ctx, d.New, s.workers)
	return nix, true, err
}

// decodeEdgeOps parses the NDJSON request body into a mutation batch,
// rejecting unknown ops and oversized batches up front — before the
// commit lock is taken.
func decodeEdgeOps(body io.Reader, max int) ([]graph.EdgeOp, error) {
	dec := json.NewDecoder(body)
	ops := make([]graph.EdgeOp, 0, 64)
	for line := 1; ; line++ {
		var op edgeOpLine
		if err := dec.Decode(&op); err != nil {
			if errors.Is(err, io.EOF) {
				return ops, nil
			}
			return nil, fmt.Errorf("bad edge op on line %d: %w", line, err)
		}
		var del bool
		switch op.Op {
		case "", "add":
		case "del":
			del = true
		default:
			return nil, fmt.Errorf("bad edge op on line %d: unknown op %q (want add or del)", line, op.Op)
		}
		if len(ops) >= max {
			return nil, fmt.Errorf("batch exceeds %d operations", max)
		}
		ops = append(ops, graph.EdgeOp{U: op.U, V: op.V, Del: del})
	}
}
