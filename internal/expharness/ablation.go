package expharness

import (
	"fmt"

	"ppscan/internal/dataset"
	"ppscan/internal/engine"
	"ppscan/internal/intersect"
	"ppscan/internal/pscan"
	"ppscan/internal/result"
	_ "ppscan/internal/shard" // registers the dist-scan engine
)

// Ablations measures the design-choice alternatives DESIGN.md calls out:
//
//   - scheduler: degree-based dynamic tasks (Algorithm 5) vs static blocks;
//   - task-threshold: the paper's 32768 degree-sum granularity vs finer
//     and coarser settings (§4.4 tuning);
//   - pscan-order: pSCAN's effective-degree priority vs static orders
//     (the §4.1 justification for dropping the priority queue);
//   - ppscan-kernel: each set-intersection kernel inside full ppSCAN runs;
//   - dist-partitions: the §3.3 communication overhead, made measurable
//     (gob bytes between coordinator and partitions grow with the cut).
//
// compsim_calls is the variant's similarity workload and comm_bytes its
// partition communication volume (dist-partitions only). All runs use
// ε=0.2, µ=5 (the paper's heavy-workload setting) on the webbase and
// twitter surrogates (the strong-pruning and heavy-tail extremes).
func Ablations(cfg Config) Table {
	cfg = cfg.norm()
	t := Table{Title: "Ablations: design-choice alternatives (eps=0.2, mu=5)", Columns: []Column{
		{"group", String}, {"variant", String}, {"dataset", String},
		{"runtime", Duration}, {"compsim_calls", Int}, {"comm_bytes", Int},
	}}
	th := mustTh("0.2", DefaultMu)
	datasets := []string{"webbase-sim", "twitter-sim"}
	if cfg.Quick {
		datasets = datasets[:1]
	}
	for _, ds := range datasets {
		g := dataset.MustLoad(ds, cfg.Scale)
		add := func(group, variant string, r *result.Result) {
			t.add(group, variant, ds, r.Stats.Total, r.Stats.CompSimCalls, r.Stats.CommBytes)
		}
		ppscan := func(group, variant, kernel string, opt engine.Options) {
			opt.Workers = cfg.Workers
			add(group, variant, cfg.best("ppscan", kernel, g, th, opt))
		}

		ppscan("scheduler", "dynamic", "", engine.Options{})
		ppscan("scheduler", "static", "", engine.Options{StaticScheduling: true})

		for _, thr := range []int64{1 << 10, 1 << 15, 1 << 20} {
			ppscan("task-threshold", fmt.Sprint(thr), "", engine.Options{DegreeThreshold: thr})
		}

		// The processing order is pscan's own knob, so these runs call its
		// entry point directly.
		for _, ord := range []pscan.Order{pscan.OrderEffectiveDegree, pscan.OrderStaticDegree, pscan.OrderNatural} {
			add("pscan-order", ord.String(), cfg.bestOf(func() *result.Result {
				return pscan.Run(g, th, engine.Options{Kernel: intersect.MergeEarly}, pscan.Options{Order: ord}, nil)
			}))
		}

		for _, k := range intersect.Kinds() {
			ppscan("ppscan-kernel", k.String(), k.String(), engine.Options{})
		}

		// The dist-scan engine reads Workers as the partition count.
		for _, parts := range []int{1, 2, 4, 8} {
			add("dist-partitions", fmt.Sprintf("p=%d", parts), cfg.best("dist-scan", "", g, th, engine.Options{Workers: parts}))
		}
	}
	return t
}
