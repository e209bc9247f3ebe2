// Package lint aggregates the project's custom analyzers. Each analyzer
// pins one invariant the serving stack's correctness rests on and that no
// test or -race run reliably sees; DESIGN.md "Enforced invariants"
// documents the rules and their escape hatches, and cmd/scanlint is the
// multichecker CI and humans share.
package lint

import (
	"ppscan/internal/lint/atomicmix"
	"ppscan/internal/lint/chanwait"
	"ppscan/internal/lint/framework"
	"ppscan/internal/lint/metricname"
	"ppscan/internal/lint/panicsafe"
	"ppscan/internal/lint/snapfreeze"
	"ppscan/internal/lint/wsalias"
)

// All returns every analyzer in stable order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		wsalias.Analyzer,
		metricname.Analyzer,
		atomicmix.Analyzer,
		panicsafe.Analyzer,
		snapfreeze.Analyzer,
		chanwait.Analyzer,
	}
}
