package anyscan

import (
	"context"

	"ppscan/graph"
	"ppscan/internal/engine"
	"ppscan/internal/intersect"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
)

// anyscanEngine adapts the anySCAN-surrogate baseline to the engine
// interface. It deliberately ignores the workspace: anySCAN's per-block
// dynamic allocations are part of the modeled behavior this surrogate
// reproduces (see the package comment), so pooling them away would erase
// the very overhead the baseline exists to measure.
type anyscanEngine struct{}

func (anyscanEngine) Name() string { return "anyscan" }

func (anyscanEngine) RunContext(ctx context.Context, g *graph.Graph, th simdef.Threshold, opt engine.Options, _ *engine.Workspace) (*result.Result, error) {
	kern := intersect.MergeEarly
	if opt.Kernel != "" {
		k, err := intersect.ParseKind(opt.Kernel)
		if err != nil {
			return nil, err
		}
		kern = k
	}
	res, err := Run(g, th, Options{Kernel: kern, Workers: opt.Workers})
	if err != nil {
		return nil, err
	}
	return engine.FinishUninterruptible(ctx, res)
}

func init() { engine.Register(anyscanEngine{}) }
