// Command graphgen writes a ROLL graph — the paper's synthetic family of
// Table 2: n vertices, a given average degree, heavy-tailed degrees — as
// an edge-list (.txt) or binary CSR (.bin) file, and prints its |V|, |E|,
// average and maximum degree.
//
// Usage:
//
//	graphgen -n 100000 -deg 40 -o roll.bin
package main

import (
	"flag"
	"fmt"
	"os"

	"ppscan/graph"
	"ppscan/internal/gen"
)

func main() {
	var (
		n   = flag.Int("n", 10000, "number of vertices")
		deg = flag.Int("deg", 16, "average degree")
		out = flag.String("o", "", "output path (.txt or .bin); required")
	)
	flag.Parse()
	if *out == "" {
		fatal(fmt.Errorf("-o output path is required"))
	}
	g := gen.Roll(int32(*n), int32(*deg), 1)
	if err := graph.SaveFile(*out, g); err != nil {
		fatal(err)
	}
	fmt.Println(graph.ComputeStats(*out, g))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphgen:", err)
	os.Exit(1)
}
