// Command benchmark is the repository's benchmark: six fixed workloads on
// seeded graphs that cluster, end-to-end metrics taken from the client's
// side of the real scanserver and scanshard binaries (and of the ppscan
// facade for batch), and a traced run that reports per-layer metrics.
// BENCHMARK.json at the repository root names every workload and metric;
// README.md beside this file explains them.
//
//	bash benchmark/run.sh --workload serve-index --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --repeat 10            # steadiness of every workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"sync"
	"syscall"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all six in turn)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 15, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		quick   = flag.Bool("quick", false, "graphs 20 times smaller and one set-up: a smoke run, not a measurement")
		repeat  = flag.Int("repeat", 1, "run this many times with seeds seed, seed+1, … and report each end-to-end metric's spread against its bound")
	)
	flag.Parse()
	os.Exit(realMain(*name, *seed, *seconds, *trace == 1, *quick, *repeat, false))
}

// realMain is main without the process exit. corrupt, which only tests
// set, spoils the reference answers.
func realMain(name string, seed int64, seconds float64, trace, quick bool, repeat int, corrupt bool) int {
	ws := workloads
	if name != "" {
		w := findWorkload(name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
			return 2
		}
		ws = []workload{*w}
	}
	if seconds <= 0 || repeat < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -repeat must be positive, and there are no positional arguments")
		return 2
	}
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// Children and scratch go away on every way out: return, panic (the
	// deferred calls run) and SIGINT/SIGTERM. A signal keeps exiting locked
	// until the process is gone: main, which sees its servers die under it,
	// must not return first and leave a draining child behind.
	var exiting sync.Mutex
	cleanup := func() {
		exiting.Lock()
		defer exiting.Unlock()
		stopAll()
		os.RemoveAll(e.tmp)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		exiting.Lock()
		stopAll()
		os.RemoveAll(e.tmp)
		os.Exit(130)
	}()

	code := 0
	for i := range ws {
		r := &run{
			w: &ws[i], seconds: seconds, quick: quick, trace: trace, env: e, corrupt: corrupt,
			clients: min(runtime.NumCPU(), 4),
			setups:  3,
		}
		if quick || trace {
			r.setups = 1
		}
		if r.w.clients > 0 {
			r.clients = r.w.clients
		}
		var runs []map[string]float64
		for k := 0; k < repeat; k++ {
			r.seed = seed + int64(k)
			rep, err := r.measure()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", r.w.name, err)
				return 1
			}
			if !printReport(r, rep) {
				code = 1
			}
			runs = append(runs, rep.metrics)
		}
		if repeat > 1 && !trace && !printSpread(r.w, runs) {
			code = 1
		}
	}
	return code
}

// measure runs the workload once.
func (r *run) measure() (*report, error) {
	if r.w.batch {
		return r.runBatch()
	}
	return r.runServe()
}

// printReport prints every metric by name with its unit, then the one JSON
// line the driver reads. It reports whether every answer was correct.
func printReport(r *run, rep *report) bool {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	fmt.Printf("workload %s seed %d trace %v\n", r.w.name, r.seed, r.trace)
	for _, n := range rep.notes {
		fmt.Println("note", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, map[string]value{}}
	for _, d := range defs {
		fmt.Printf("metric %-40s %16.6f %s\n", d.name, rep.metrics[d.name], d.unit)
		out.Metrics[d.name] = value{rep.metrics[d.name], d.unit}
	}
	fmt.Printf("attempted %d failed %d\n", rep.attempted, rep.failed)
	if rep.failed > 0 {
		fmt.Println("first failure:", rep.firstFailure)
	}
	line, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	fmt.Println(string(line))
	return out.Correct
}

// printSpread reports, per end-to-end metric, min/median/max over the runs
// and the two spreads — (max−min)/median and the interquartile one the
// contract uses — and whether the latter stays within the metric's bound.
func printSpread(w *workload, runs []map[string]float64) bool {
	ok := true
	fmt.Printf("spread %s over %d runs\n", w.name, len(runs))
	for _, d := range endToEnd {
		var xs []float64
		for _, m := range runs {
			xs = append(xs, m[d.name])
		}
		sort.Float64s(xs)
		med := median(xs)
		iqr := quartileSpread(xs)
		verdict := "ok"
		if iqr > d.bound && d.name != "setup_s" {
			verdict, ok = "EXCEEDS BOUND", false
		}
		fmt.Printf("spread %-14s min %12.4f median %12.4f max %12.4f  range/median %6.2f%%  iqr/median %6.2f%%  bound %4.0f%%  %s\n",
			d.name, xs[0], med, xs[len(xs)-1], 100*(xs[len(xs)-1]-xs[0])/med, 100*iqr, 100*d.bound, verdict)
	}
	return ok
}
