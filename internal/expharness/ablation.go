package expharness

import (
	"context"
	"fmt"
	"time"

	"ppscan/internal/core"
	"ppscan/internal/dataset"
	"ppscan/internal/engine"
	"ppscan/internal/intersect"
	"ppscan/internal/pscan"
	"ppscan/internal/result"
	_ "ppscan/internal/shard" // registers the dist-scan engine
)

// AblationPoint is one measured variant of one design choice.
type AblationPoint struct {
	// Group names the design choice ("scheduler", "task-threshold",
	// "pscan-order", "ppscan-kernel").
	Group string
	// Variant names the alternative within the group.
	Variant string
	Dataset string
	Runtime time.Duration
	// CompSimCalls is the similarity workload of the variant (0 when not
	// meaningful for the group).
	CompSimCalls int64
	// CommBytes is the partition communication volume (dist-partitions
	// group only).
	CommBytes int64
}

// Ablations measures the design-choice alternatives DESIGN.md calls out:
//
//   - scheduler: degree-based dynamic tasks (Algorithm 5) vs static blocks;
//   - task-threshold: the paper's 32768 degree-sum granularity vs finer
//     and coarser settings (§4.4 tuning);
//   - pscan-order: pSCAN's effective-degree priority vs static orders
//     (the §4.1 justification for dropping the priority queue);
//   - ppscan-kernel: each set-intersection kernel inside full ppSCAN runs.
//
// All runs use ε=0.2, µ=5 (the paper's heavy-workload setting) on the
// webbase and twitter surrogates (the strong-pruning and heavy-tail
// extremes).
func Ablations(cfg Config) []AblationPoint {
	cfg = cfg.norm()
	th := mustTh("0.2", DefaultMu)
	datasets := []string{"webbase-sim", "twitter-sim"}
	if cfg.Quick {
		datasets = datasets[:1]
	}
	var out []AblationPoint
	add := func(group, variant, ds string, r *result.Result) {
		out = append(out, AblationPoint{
			Group: group, Variant: variant, Dataset: ds,
			Runtime: r.Stats.Total, CompSimCalls: r.Stats.CompSimCalls,
			CommBytes: r.Stats.CommBytes,
		})
	}
	for _, ds := range datasets {
		g := dataset.MustLoad(ds, cfg.Scale)

		// Scheduler.
		add("scheduler", "dynamic", ds, cfg.bestOf(func() *result.Result {
			return core.Run(g, th, core.Options{Kernel: intersect.PivotBlock16, Workers: cfg.Workers})
		}))
		add("scheduler", "static", ds, cfg.bestOf(func() *result.Result {
			return core.Run(g, th, core.Options{Kernel: intersect.PivotBlock16, Workers: cfg.Workers, StaticScheduling: true})
		}))

		// Task-granularity threshold.
		for _, thr := range []int64{1 << 10, 1 << 15, 1 << 20} {
			thr := thr
			add("task-threshold", fmt.Sprintf("%d", thr), ds, cfg.bestOf(func() *result.Result {
				return core.Run(g, th, core.Options{Kernel: intersect.PivotBlock16, Workers: cfg.Workers, DegreeThreshold: thr})
			}))
		}

		// pSCAN processing order.
		for _, ord := range []pscan.Order{pscan.OrderEffectiveDegree, pscan.OrderStaticDegree, pscan.OrderNatural} {
			ord := ord
			add("pscan-order", ord.String(), ds, cfg.bestOf(func() *result.Result {
				return pscan.Run(g, th, pscan.Options{Kernel: intersect.MergeEarly, Order: ord})
			}))
		}

		// Kernels inside ppSCAN.
		for _, k := range intersect.Kinds() {
			k := k
			add("ppscan-kernel", k.String(), ds, cfg.bestOf(func() *result.Result {
				return core.Run(g, th, core.Options{Kernel: k, Workers: cfg.Workers})
			}))
		}

		// Distributed partitioning: the §3.3 communication overhead, made
		// measurable (gob bytes between coordinator and partitions grow
		// with the cut).
		dist, _ := engine.Get("dist-scan")
		for _, parts := range []int{1, 2, 4, 8} {
			parts := parts
			add("dist-partitions", fmt.Sprintf("p=%d", parts), ds, cfg.bestOf(func() *result.Result {
				r, err := dist.RunContext(context.Background(), g, th, engine.Options{Workers: parts}, nil)
				if err != nil {
					panic(err) // no faults armed, no deadline: a failure is a bug
				}
				return r
			}))
		}
	}
	return out
}

// PrintAblations prints the ablation series grouped by design choice.
func PrintAblations(cfg Config, rows []AblationPoint) {
	cfg = cfg.norm()
	fmt.Fprintln(cfg.Out, "== Ablations: design-choice alternatives (eps=0.2, mu=5) ==")
	fmt.Fprintf(cfg.Out, "%-16s %-18s %-16s %12s %14s %12s\n",
		"group", "variant", "dataset", "runtime", "CompSim calls", "comm bytes")
	for _, r := range rows {
		fmt.Fprintf(cfg.Out, "%-16s %-18s %-16s %12s %14d %12d\n",
			r.Group, r.Variant, r.Dataset, rd(r.Runtime), r.CompSimCalls, r.CommBytes)
	}
}
