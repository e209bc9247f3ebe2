package gsindex

import (
	"context"
	"math/rand"
	"testing"

	"ppscan/graph"
	"ppscan/internal/engine"
)

// TestApplyBatchLeavesNoSnapshotPinned: the workers' comparator state
// borrows runs of the old index's arrays and the new graph's adjacency
// while an apply runs. It must not outlive the apply: a server pools
// workspaces, and an idle one that kept those slices would hold a whole
// superseded epoch in memory until it happened to serve the next commit.
func TestApplyBatchLeavesNoSnapshotPinned(t *testing.T) {
	g := randomGraph(t, 60, 0.12, 11)
	st := graph.NewStore(g)
	opt := BuildOptions{Workers: 2}
	ws := engine.NewWorkspace()
	defer ws.Close()
	d, err := st.Commit(churnBatch(rand.New(rand.NewSource(99)), 60, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(g, opt).ApplyBatch(context.Background(), d, opt, ws); err != nil {
		t.Fatal(err)
	}
	sc := ws.Scratch(applyScratchKey, func() any { return new(applyScratch) }).(*applyScratch)
	if len(sc.w) == 0 {
		t.Fatal("the apply parked no worker scratch in the workspace")
	}
	for i, w := range sc.w {
		if w.cnr != nil || w.nbrs != nil {
			t.Errorf("worker %d still borrows snapshot arrays after ApplyBatch returned", i)
		}
	}
}
