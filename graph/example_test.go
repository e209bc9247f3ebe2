package graph_test

import (
	"fmt"
	"log"

	"ppscan/graph"
)

func ExampleFromEdges() {
	g, err := graph.FromEdges(4, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3},
		{U: 1, V: 0}, // duplicate orientation, merged
		{U: 3, V: 3}, // self loop, dropped
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("|V| =", g.NumVertices(), "|E| =", g.NumEdges())
	fmt.Println("neighbors of 2:", g.Neighbors(2))
	// Output:
	// |V| = 4 |E| = 4
	// neighbors of 2: [0 1 3]
}

func ExampleGraph_EdgeOffset() {
	g, _ := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	e := g.EdgeOffset(1, 2)
	fmt.Println("dst[e(1,2)] =", g.Dst[e])
	fmt.Println("missing edge:", g.EdgeOffset(0, 2))
	// Output:
	// dst[e(1,2)] = 2
	// missing edge: -1
}
