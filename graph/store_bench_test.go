package graph_test

import (
	"math/rand"
	"slices"
	"testing"

	"ppscan/graph"
	"ppscan/internal/gen"
)

// BenchmarkStoreCommit times one commit as serve-churn's POST /edges runs
// it: chained 64-op batches on the benchmark's community graph (1000
// planted communities of 50, seed 1), each 32 seeded inserts plus the
// deletes of the inserts two batches earlier. Appends and the compactions
// between them are both in the time per commit; drawing the batch is not.
// Run it with -benchmem: B/op is what a commit allocates.
func BenchmarkStoreCommit(b *testing.B) {
	g := gen.PlantedPartition(1000, 50, 0.5, 3/50000., 1)
	st := graph.NewStore(g)
	rng := rand.New(rand.NewSource(1))
	var inserted [2][]graph.EdgeOp // the inserts of the last two batches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var ins []graph.EdgeOp
		for len(ins) < 32 {
			u, v := rng.Int31n(g.NumVertices()), rng.Int31n(g.NumVertices())
			if u != v && !st.Graph().HasEdge(u, v) {
				ins = append(ins, graph.EdgeOp{U: u, V: v})
			}
		}
		batch := slices.Clone(ins)
		for _, e := range inserted[0] {
			batch = append(batch, graph.EdgeOp{U: e.U, V: e.V, Del: true})
		}
		inserted[0], inserted[1] = inserted[1], ins
		b.StartTimer()
		if _, err := st.Commit(batch); err != nil {
			b.Fatal(err)
		}
	}
}
