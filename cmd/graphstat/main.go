// Command graphstat prints Table 1/2-style statistics (|V|, |E|, average
// and maximum degree) for one graph file or built-in surrogate dataset. The
// paper's Tables 1 and 2 themselves are `experiments -run table1|table2`.
//
// Usage:
//
//	graphstat -graph web.txt
//	graphstat -dataset twitter-sim -scale 0.5 -hist
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"ppscan/graph"
	"ppscan/internal/dataset"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "graph file to summarize")
		ds        = flag.String("dataset", "", "named surrogate dataset to summarize")
		scale     = flag.Float64("scale", 1.0, "dataset scale factor")
		hist      = flag.Bool("hist", false, "print the degree histogram (log-binned)")
	)
	flag.Parse()

	switch {
	case *graphPath != "":
		g, err := graph.LoadFile(*graphPath)
		if err != nil {
			fatal(err)
		}
		describe(*graphPath, g, *hist)
	case *ds != "":
		g, err := dataset.Load(*ds, *scale)
		if err != nil {
			fatal(err)
		}
		describe(*ds, g, *hist)
	default:
		fatal(fmt.Errorf("one of -graph, -dataset is required"))
	}
}

func describe(name string, g *graph.Graph, hist bool) {
	fmt.Println(graph.ComputeStats(name, g))
	_, comps := g.ConnectedComponents()
	fmt.Printf("connected components: %d, sum d^2: %d\n", comps, g.SumDegreeSquares())
	if hist {
		printHistogram(g)
	}
}

func printHistogram(g *graph.Graph) {
	h := g.DegreeHistogram()
	// Log-bin the histogram: [1,2), [2,4), [4,8), ...
	bins := map[int]int64{}
	for d, c := range h {
		b := 0
		for dd := int64(d); dd > 1; dd >>= 1 {
			b++
		}
		bins[b] += c
	}
	keys := make([]int, 0, len(bins))
	for b := range bins {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	fmt.Println("degree histogram (log-binned):")
	for _, b := range keys {
		lo := int64(1) << b
		if b == 0 {
			lo = 0
		}
		fmt.Printf("  d in [%6d, %6d): %d vertices\n", lo, int64(2)<<b, bins[b])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphstat:", err)
	os.Exit(1)
}
