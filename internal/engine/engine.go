// Package engine is the one way into a clustering algorithm: a registry of
// engines, each a record of data plus one run function, the Run dispatcher
// every caller goes through, and a pooled Workspace holding every O(n+m)
// scratch buffer a run needs, so steady-state serving reuses memory instead
// of re-allocating it per request.
//
// Implementation packages register from init; they import this package,
// never the reverse, so the dependency graph stays acyclic:
//
//	ppscan (facade) ──► engine.Run ◄── internal/core, internal/pscan, ...
//	                      ▲                (each: one Register, one Run)
//	expharness, algotest ─┘
//
// Callers that want every backend available blank-import the
// implementation packages (the facade does this), then run one by name
// with Run or enumerate them with All.
package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"ppscan/graph"
	"ppscan/internal/intersect"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
)

// Options is the one run configuration every engine's entry point takes.
// Engines ignore fields that do not apply to them (sequential engines
// ignore Workers; exhaustive engines have no DegreeThreshold).
type Options struct {
	// Workers bounds parallel engines' worker goroutines; < 1 means
	// GOMAXPROCS. The dist-scan engine interprets it as the partition
	// count, matching the facade's historical contract.
	Workers int
	// Kernel is the set-intersection kernel, already resolved: Run fills
	// it from its kernel-name argument or the engine's default, so callers
	// of Run leave it alone and entry points never parse a name. (Not a
	// request field because the Kind zero value is a valid kernel, Merge,
	// and could not encode "unset".)
	Kernel intersect.Kind
	// DegreeThreshold overrides the degree-based scheduler's task
	// granularity (engines with a scheduler only).
	DegreeThreshold int64
	// StaticScheduling disables degree-based dynamic scheduling (ablation
	// knob; ppSCAN engines only).
	StaticScheduling bool
	// Tracer, when non-nil, records per-phase and per-task spans.
	Tracer *obsv.Tracer
}

// Engine is one registered clustering backend: data, and the package's
// single entry point. Run computes the exact SCAN clustering of g under th.
//
// The workspace ws may be nil (the engine then allocates transient
// scratch). When ws is non-nil the returned Result MAY alias workspace
// memory: it is valid until the next run on the same workspace, and
// callers that retain it across runs must Clone it first. See the
// Workspace aliasing rule for details.
type Engine struct {
	// Name is the registry key ("ppscan", "pscan", ...).
	Name string
	// Label, when non-empty, replaces Stats.Algorithm on a successful run
	// (two registrations sharing one entry point: "ppscan-no").
	Label string
	// Kernel is the default used when no kernel is named.
	Kernel intersect.Kind
	// Checkpoints says Run polls ctx itself and aborts promptly with a
	// *result.PartialError. Without it the engine is a single pass: the
	// dispatcher reports a cancellation that fired meanwhile after the fact.
	Checkpoints bool
	Run         func(ctx context.Context, g *graph.Graph, th simdef.Threshold, opt Options, ws *Workspace) (*result.Result, error)
}

var (
	regMu   sync.RWMutex
	engines = map[string]Engine{}
)

// Register adds e under e.Name. It panics on a duplicate name — engines
// register from init, so a collision is a programming error, not a
// runtime condition.
func Register(e Engine) {
	regMu.Lock()
	defer regMu.Unlock()
	if e.Name == "" {
		panic("engine: Register with empty name")
	}
	if _, dup := engines[e.Name]; dup {
		panic(fmt.Sprintf("engine: duplicate Register(%q)", e.Name))
	}
	engines[e.Name] = e
}

// All returns every registered engine, sorted by name — the iteration
// order conformance suites rely on.
func All() []Engine {
	regMu.RLock()
	defer regMu.RUnlock()
	all := make([]Engine, 0, len(engines))
	for _, e := range engines {
		all = append(all, e)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// Run is the dispatcher: it runs the engine registered under name on g
// with the kernel named by kernel (empty selects the engine's default).
// The kernel name is parsed here and nowhere else, and before the engine
// lookup, so a bad kernel is reported even alongside a bad engine name (the
// facade's historical error order). A ctx that is already done answers "not
// started" without touching the graph; a checkpoint-free engine that ran
// past a cancellation yields a *result.PartialError carrying the completed
// run's stats.
func Run(ctx context.Context, name, kernel string, g *graph.Graph, th simdef.Threshold, opt Options, ws *Workspace) (*result.Result, error) {
	if kernel != "" {
		k, err := intersect.ParseKind(kernel)
		if err != nil {
			return nil, err
		}
		opt.Kernel = k
	}
	regMu.RLock()
	e, ok := engines[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("ppscan: unknown algorithm %q", name)
	}
	if kernel == "" {
		opt.Kernel = e.Kernel
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("ppscan: not started: %w", err)
	}
	res, err := e.Run(ctx, g, th, opt, ws)
	if err == nil {
		if cerr := ctx.Err(); cerr != nil && !e.Checkpoints {
			res, err = nil, &result.PartialError{Stats: res.Stats, Phase: "completed (no checkpoints)", Err: cerr}
		} else if e.Label != "" {
			res.Stats.Algorithm = e.Label
		}
	}
	return res, err
}
