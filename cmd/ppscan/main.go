// Command ppscan runs structural graph clustering on an edge-list or binary
// graph file (or a named synthetic dataset) and reports roles, clusters and
// hubs/outliers.
//
// Usage:
//
//	ppscan -graph web.txt -eps 0.6 -mu 5
//	ppscan -dataset orkut-sim -algo pscan -eps 0.2 -mu 5 -stats
//	ppscan -dataset ROLL-d40 -eps 0.5 -mu 5 -workers 8 -kernel pivot-block16 -clusters
//	ppscan -dataset ROLL-d40 -eps 0.5 -mu 5 -trace run.json -json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"ppscan"
	"ppscan/graph"
	"ppscan/internal/dataset"
	"ppscan/internal/fault"
	"ppscan/internal/intersect"
	"ppscan/internal/result"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "path to an edge-list (.txt) or binary (.bin) graph file")
		dsName    = flag.String("dataset", "", "named synthetic dataset (alternative to -graph); one of "+fmt.Sprint(dataset.Names()))
		scale     = flag.Float64("scale", 1.0, "dataset scale factor (with -dataset)")
		algo      = flag.String("algo", "ppscan", "algorithm: "+names(ppscan.Algorithms())+", or \"all\" to run and cross-check every one")
		eps       = flag.String("eps", "0.6", "similarity threshold epsilon in (0,1], e.g. 0.6 or 3/5")
		mu        = flag.Int("mu", 5, "core threshold mu >= 1")
		workers   = flag.Int("workers", 0, "worker goroutines for parallel algorithms (0 = GOMAXPROCS)")
		kernel    = flag.String("kernel", "", "set-intersection kernel override ("+names(intersect.Kinds())+")")
		showStats = flag.Bool("stats", false, "print run statistics")
		clusters  = flag.Bool("clusters", false, "print every cluster's members")
		hubs      = flag.Bool("hubs", false, "print hub and outlier vertices")
		outPath   = flag.String("o", "", "write the full result (roles, clusters, memberships) to this file")
		jsonOut   = flag.Bool("json", false, "print a machine-readable JSON run report instead of the summary line")
		quiet     = flag.Bool("q", false, "suppress the summary line")
		tracePath = flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file (algo ppscan/ppscan-no only); open in chrome://tracing or ui.perfetto.dev")
		chaosSeed = flag.Int64("chaos-seed", 0, "arm deterministic fault injection with this seed (0 = off); the run then exercises the containment paths — worker panics become structured errors, transient superstep faults retry")
	)
	flag.Parse()
	if *chaosSeed != 0 {
		fault.Enable(fault.NewPlan(*chaosSeed))
		fmt.Fprintf(os.Stderr, "ppscan: fault injection armed (seed %d)\n", *chaosSeed)
	}

	g, name, err := loadGraph(*graphPath, *dsName, *scale)
	if err != nil {
		fatal(err)
	}
	if *algo == "all" {
		runAll(g, name, *eps, *mu, *workers)
		return
	}
	var res *ppscan.Result
	if *tracePath != "" {
		res, err = runTraced(g, *algo, *eps, *mu, *workers, *kernel, *tracePath)
	} else {
		res, err = ppscan.Run(g, ppscan.Options{
			Algorithm: ppscan.Algorithm(*algo),
			Epsilon:   *eps,
			Mu:        *mu,
			Workers:   *workers,
			Kernel:    *kernel,
		})
	}
	if err != nil {
		fatal(err)
	}

	switch {
	case *jsonOut:
		if err := result.NewRunReport(g, res).WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	case !*quiet:
		fmt.Printf("%s: |V|=%d |E|=%d algo=%s eps=%s mu=%d -> %d cores, %d clusters, %d non-core memberships in %v\n",
			name, g.NumVertices(), g.NumEdges(), res.Stats.Algorithm, *eps, *mu,
			res.NumCores(), res.NumClusters(), len(res.NonCore), res.Stats.Total)
	}
	if *showStats {
		fmt.Printf("workers=%d compsim-calls=%d\n", res.Stats.Workers, res.Stats.CompSimCalls)
		for i, d := range res.Stats.PhaseTimes {
			if d > 0 {
				fmt.Printf("phase %-20s %v\n", result.PhaseNames[i], d)
			}
		}
	}
	if *clusters {
		printClusters(res)
	}
	if *hubs {
		printHubs(g, res)
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		if err := ppscan.WriteResult(f, res); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

// runTraced runs the selected algorithm with a span tracer threaded
// through the facade (ppscan.Options.Tracer) and writes the Chrome
// trace_event JSON to path. Only the two ppSCAN variants emit spans —
// the same dispatch path and defaults as an untraced run, trace attached.
func runTraced(g *graph.Graph, algo, eps string, mu, workers int, kernel, path string) (*ppscan.Result, error) {
	if algo != "ppscan" && algo != "ppscan-no" {
		return nil, fmt.Errorf("-trace requires -algo ppscan or ppscan-no (got %q)", algo)
	}
	tr := ppscan.NewTracer()
	res, err := ppscan.Run(g, ppscan.Options{
		Algorithm: ppscan.Algorithm(algo),
		Epsilon:   eps,
		Mu:        mu,
		Workers:   workers,
		Kernel:    kernel,
		Tracer:    tr,
	})
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return nil, err
	}
	return res, f.Close()
}

// runAll executes every algorithm on the same input, prints a comparison
// table, and fails loudly if any two results differ — a built-in
// cross-validation mode. All runs share one workspace, so the scratch
// buffers are allocated once and each result is cloned out of them before
// the next algorithm overwrites the memory.
func runAll(g *graph.Graph, name, eps string, mu, workers int) {
	fmt.Printf("%s: |V|=%d |E|=%d eps=%s mu=%d\n", name, g.NumVertices(), g.NumEdges(), eps, mu)
	fmt.Printf("%-10s %12s %16s %10s\n", "algorithm", "runtime", "CompSim calls", "clusters")
	ws := ppscan.NewWorkspace()
	defer ws.Close()
	var ref *ppscan.Result
	for _, algo := range ppscan.Algorithms() {
		res, err := ppscan.RunWorkspace(context.Background(), g, ppscan.Options{
			Algorithm: algo, Epsilon: eps, Mu: mu, Workers: workers,
		}, ws)
		if err != nil {
			fatal(err)
		}
		res = res.Clone()
		fmt.Printf("%-10s %12v %16d %10d\n",
			algo, res.Stats.Total.Round(time.Microsecond), res.Stats.CompSimCalls, res.NumClusters())
		if ref == nil {
			ref = res
		} else if err := ppscan.Equal(ref, res); err != nil {
			fatal(fmt.Errorf("%s disagrees with %s: %w", algo, ref.Stats.Algorithm, err))
		}
	}
	fmt.Println("all algorithms produced identical clusterings")
}

func loadGraph(path, ds string, scale float64) (*graph.Graph, string, error) {
	switch {
	case path != "" && ds != "":
		return nil, "", fmt.Errorf("use only one of -graph and -dataset")
	case path != "":
		g, err := graph.LoadFile(path)
		return g, path, err
	case ds != "":
		g, err := dataset.Load(ds, scale)
		return g, ds, err
	default:
		return nil, "", fmt.Errorf("one of -graph or -dataset is required")
	}
}

// names renders a list of algorithms or kernels for a flag's help text.
func names[T any](xs []T) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ", ")
}

func printClusters(res *ppscan.Result) {
	cl := res.Clusters()
	ids := make([]int32, 0, len(cl))
	for id := range cl {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Printf("cluster %d (%d members):", id, len(cl[id]))
		for _, v := range cl[id] {
			fmt.Printf(" %d", v)
		}
		fmt.Println()
	}
}

func printHubs(g *graph.Graph, res *ppscan.Result) {
	att := ppscan.ClassifyHubsOutliers(g, res)
	var hubs, outliers []int32
	for v, a := range att {
		switch a {
		case ppscan.AttachHub:
			hubs = append(hubs, int32(v))
		case ppscan.AttachOutlier:
			outliers = append(outliers, int32(v))
		}
	}
	fmt.Printf("hubs (%d):", len(hubs))
	for _, v := range hubs {
		fmt.Printf(" %d", v)
	}
	fmt.Printf("\noutliers (%d):", len(outliers))
	for _, v := range outliers {
		fmt.Printf(" %d", v)
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ppscan:", err)
	os.Exit(1)
}
