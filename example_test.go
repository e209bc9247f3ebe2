package ppscan_test

import (
	"fmt"
	"log"

	"ppscan"
	"ppscan/graph"
)

// Two triangles joined by a single edge: at ε=0.7, µ=2 each triangle is a
// cluster of cores.
func twoTriangles() *graph.Graph {
	g, err := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
		{U: 2, V: 3},
	})
	if err != nil {
		log.Fatal(err)
	}
	return g
}

func ExampleRun() {
	g := twoTriangles()
	res, err := ppscan.Run(g, ppscan.Options{Epsilon: "0.7", Mu: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("clusters:", res.NumClusters())
	fmt.Println("cores:", res.NumCores())
	// Output:
	// clusters: 2
	// cores: 6
}

func ExampleRun_algorithms() {
	g := twoTriangles()
	// Every algorithm produces the identical exact clustering.
	ref, err := ppscan.Run(g, ppscan.Options{Algorithm: ppscan.AlgoSCAN, Epsilon: "0.7", Mu: 2})
	if err != nil {
		log.Fatal(err)
	}
	for _, algo := range ppscan.Algorithms() {
		res, err := ppscan.Run(g, ppscan.Options{Algorithm: algo, Epsilon: "0.7", Mu: 2})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(algo, ppscan.Equal(ref, res) == nil)
	}
	// Output:
	// ppscan true
	// ppscan-no true
	// pscan true
	// scan true
	// scan-xp true
	// anyscan true
	// dist-scan true
}

func ExampleResult_Clusters() {
	g := twoTriangles()
	res, err := ppscan.Run(g, ppscan.Options{Epsilon: "0.7", Mu: 2})
	if err != nil {
		log.Fatal(err)
	}
	clusters := res.Clusters()
	fmt.Println("cluster 0:", clusters[0])
	fmt.Println("cluster 3:", clusters[3])
	// Output:
	// cluster 0: [0 1 2]
	// cluster 3: [3 4 5]
}

func ExampleClassifyHubsOutliers() {
	// A bridge vertex (6) connecting the two triangles, plus a pendant (7).
	g, err := graph.FromEdges(8, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
		{U: 6, V: 0}, {U: 6, V: 3}, {U: 6, V: 7},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := ppscan.Run(g, ppscan.Options{Epsilon: "0.6", Mu: 2})
	if err != nil {
		log.Fatal(err)
	}
	att := ppscan.ClassifyHubsOutliers(g, res)
	fmt.Println("vertex 6:", att[6])
	fmt.Println("vertex 7:", att[7])
	// Output:
	// vertex 6: Hub
	// vertex 7: Outlier
}

func ExampleBuildIndex() {
	g := twoTriangles()
	ix := ppscan.BuildIndex(g, 0)
	// One build answers any (eps, mu) without further set intersections.
	for _, eps := range []string{"0.5", "0.7"} {
		res, err := ix.Query(eps, 2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("eps=%s: %d clusters\n", eps, res.NumClusters())
	}
	// Output:
	// eps=0.5: 1 clusters
	// eps=0.7: 2 clusters
}
