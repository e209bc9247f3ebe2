// Command experiments regenerates the paper's evaluation tables and
// figures (§6) as text series on the surrogate datasets. It is the only
// producer of those numbers; the first line of a run states the host and
// the effective sizing flags, so a pasted series says where it was measured.
//
// Usage:
//
//	experiments -list
//	experiments -run fig4
//	experiments -run all -scale 0.5 -repeats 3
//	experiments -run fig6 -workers 8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ppscan/internal/expharness"
	"ppscan/internal/obsv"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available experiments")
		run     = flag.String("run", "", "experiment id to run, or \"all\"")
		scale   = flag.Float64("scale", 1.0, "dataset scale factor")
		workers = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		repeats = flag.Int("repeats", 1, "repetitions per measurement (best time reported, as in the paper)")
		quick   = flag.Bool("quick", false, "reduced parameter grids (smoke test)")
		csvDir  = flag.String("csv", "", "also write machine-readable <id>.csv files into this directory")
		metrics = flag.Bool("metrics", false, "after the runs, print the accumulated metrics-registry snapshot as JSON")
	)
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, e := range expharness.Experiments() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Description)
		}
		if *run == "" && !*list {
			fmt.Println("\nuse -run <id> or -run all")
		}
		return
	}

	// The defaults expharness applies to an unset field, applied here so
	// that the provenance line prints the values the runs use.
	cfg := expharness.Config{Scale: *scale, Workers: *workers, Repeats: *repeats, Quick: *quick}
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Repeats < 1 {
		cfg.Repeats = 1
	}

	exps := expharness.Experiments()
	if *run != "all" {
		e, err := expharness.Lookup(*run)
		if err != nil {
			fatal(err)
		}
		exps = []expharness.Experiment{e}
	}
	fmt.Printf("# %s %s/%s NumCPU=%d GOMAXPROCS=%d workers=%d scale=%g repeats=%d quick=%t\n\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		cfg.Workers, cfg.Scale, cfg.Repeats, cfg.Quick)
	for _, e := range exps {
		runOne(e, cfg, *csvDir)
	}
	if *metrics {
		dumpMetrics()
	}
}

// dumpMetrics prints the process-global registry (phase, kernel and
// scheduler totals accumulated across every run performed) as JSON.
func dumpMetrics() {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(obsv.Default().Snapshot()); err != nil {
		fatal(err)
	}
}

// runOne runs e once, prints its series and, with -csv, writes the same
// rows to <csvDir>/<id>.csv.
func runOne(e expharness.Experiment, cfg expharness.Config, csvDir string) {
	t0 := time.Now()
	tab := e.Run(cfg)
	if err := tab.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
	if csvDir != "" {
		if err := writeCSV(tab, filepath.Join(csvDir, e.ID+".csv")); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("-- %s completed in %v --\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
}

func writeCSV(tab expharness.Table, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tab.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
