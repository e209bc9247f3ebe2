package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"

	"ppscan/graph"
)

// opKind is what one scheduled operation does.
type opKind uint8

const (
	opGet   opKind = iota // GET /cluster for keys[idx]
	opSweep               // GET /cluster/sweep over sweepEps at sweepMus[idx]
	opPost                // POST /edges with batches[idx]
)

type op struct {
	kind opKind
	idx  int32
}

// inputs is everything a run hands the program, derived from the seed
// alone before any window opens.
type inputs struct {
	g         *graph.Graph
	graphFile string
	keys      []key            // batch: one per ε; serving: K24 in seeded order
	scheds    [][]op           // per client; serving only
	batches   [][]graph.EdgeOp // serve-churn and the fleet's publish probe
	bodies    [][]byte         // batches as NDJSON request bodies
}

// Schedules are sized for the fastest client a window can hold; a client
// that runs out wraps around (reads only — batches are never replayed).
const (
	opsPerClientSecond = 4000
	batchesPerSecond   = 60
	batchInserts       = 32
)

// stream derives an independent generator per purpose, so adding a draw to
// one schedule never shifts another.
func stream(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose))
}

func makeInputs(w *workload, seed int64, quick bool, seconds float64, clients int, dir string) (*inputs, error) {
	in := &inputs{g: w.graph.make(seed, quick)}
	in.graphFile = filepath.Join(dir, "graph.bin")
	if err := graph.SaveFile(in.graphFile, in.g); err != nil {
		return nil, fmt.Errorf("saving graph: %w", err)
	}
	if w.batch {
		for _, eps := range w.eps {
			in.keys = append(in.keys, key{eps, w.mu})
		}
		return in, nil
	}
	in.keys = k24()
	if w.zipf {
		// A key's popularity rank is part of the workload, not of the seed:
		// what a cache hit costs depends on the key (a summary of 50 000
		// cores or of 7 000), so letting the seed pick the hot keys would
		// make two seeds two different workloads. The k-th key of K24 gets
		// rank 7k mod 24, which spreads every ε over the ranks.
		for i, k := range k24() {
			in.keys[7*i%len(in.keys)] = k
		}
	} else {
		stream(seed, 1).Shuffle(len(in.keys), func(i, j int) { in.keys[i], in.keys[j] = in.keys[j], in.keys[i] })
	}
	nBatches := 0
	if w.writeEvery > 0 {
		nBatches = int(batchesPerSecond * seconds)
	} else if w.fleet {
		nBatches = 3
	}
	in.batches, in.bodies = makeBatches(in.g, stream(seed, 2), nBatches)
	nOps := int(opsPerClientSecond * seconds)
	for c := 0; c < clients; c++ {
		in.scheds = append(in.scheds, makeSchedule(w, stream(seed, 10+int64(c)), c, clients, nOps, len(in.keys), nBatches))
	}
	return in, nil
}

// makeSchedule lays out one client's operations: reads by Zipf(1.2) rank or
// round-robin (the clients start evenly spread over the key set), every
// sweepEvery-th a sweep, and on client 0 every writeEvery-th a mutation
// batch while batches last.
func makeSchedule(w *workload, rng *rand.Rand, client, clients, n, nKeys, nBatches int) []op {
	var block []int32 // Zipf draws not yet handed out
	rr := client * nKeys / clients
	sched := make([]op, 0, n)
	batch := 0
	for i := 1; len(sched) < n; i++ {
		switch {
		case w.writeEvery > 0 && client == 0 && i%w.writeEvery == 0 && batch < nBatches:
			sched = append(sched, op{opPost, int32(batch)})
			batch++
		case w.sweepEvery > 0 && i%w.sweepEvery == 0:
			sched = append(sched, op{opSweep, int32(i / w.sweepEvery % len(sweepMus))})
		case w.zipf:
			if len(block) == 0 {
				block = zipfBlock(rng, nKeys)
			}
			sched = append(sched, op{opGet, block[0]})
			block = block[1:]
		default:
			sched = append(sched, op{opGet, int32(rr % nKeys)})
			rr++
		}
	}
	return sched
}

// zipfBlock returns 240 key ranks in seeded order in which rank r occurs
// in proportion to (r+1)^-1.2, rounded by largest remainder. The seed
// decides the order — and so what the LRU cache holds when — but not how
// often a key is asked for: independent draws would let that share, and
// with it the hit rate of a window, wander by several percent from
// seed to seed.
func zipfBlock(rng *rand.Rand, nKeys int) []int32 {
	const size = 240
	weights := make([]float64, nKeys)
	total := 0.0
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -1.2)
		total += weights[r]
	}
	counts := make([]int, nKeys)
	order := make([]int, nKeys) // ranks by descending remainder
	given := 0
	for r := range weights {
		counts[r] = int(size * weights[r] / total)
		given += counts[r]
		order[r] = r
	}
	frac := func(r int) float64 { return size*weights[r]/total - float64(counts[r]) }
	sort.SliceStable(order, func(a, b int) bool { return frac(order[a]) > frac(order[b]) })
	for _, r := range order[:size-given] {
		counts[r]++
	}
	block := make([]int32, 0, size)
	for r, c := range counts {
		for ; c > 0; c-- {
			block = append(block, int32(r))
		}
	}
	rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	return block
}

// makeBatches builds mutation batches whose every line takes effect: batch
// b inserts 32 fresh non-edges and deletes the 32 that batch b−2 inserted,
// so the edge count stays put once two batches are in.
func makeBatches(g *graph.Graph, rng *rand.Rand, count int) ([][]graph.EdgeOp, [][]byte) {
	n := g.NumVertices()
	alive := map[[2]int32]bool{}
	var inserted [][]graph.EdgeOp
	batches := make([][]graph.EdgeOp, 0, count)
	bodies := make([][]byte, 0, count)
	for b := 0; b < count; b++ {
		var ins []graph.EdgeOp
		for len(ins) < batchInserts {
			u, v := rng.Int31n(n), rng.Int31n(n)
			if u > v {
				u, v = v, u
			}
			if u == v || g.HasEdge(u, v) || alive[[2]int32{u, v}] {
				continue
			}
			alive[[2]int32{u, v}] = true
			ins = append(ins, graph.EdgeOp{U: u, V: v})
		}
		inserted = append(inserted, ins)
		batch := append([]graph.EdgeOp(nil), ins...)
		if b >= 2 {
			for _, e := range inserted[b-2] {
				delete(alive, [2]int32{e.U, e.V})
				batch = append(batch, graph.EdgeOp{U: e.U, V: e.V, Del: true})
			}
		}
		var body bytes.Buffer
		for _, e := range batch {
			verb := "add"
			if e.Del {
				verb = "del"
			}
			fmt.Fprintf(&body, "{\"u\":%d,\"v\":%d,\"op\":%q}\n", e.U, e.V, verb)
		}
		batches = append(batches, batch)
		bodies = append(bodies, body.Bytes())
	}
	return batches, bodies
}
