package intersect

// Stats accumulates kernel-level telemetry for one owner (typically one
// worker goroutine). The fields are plain int64s updated without atomics:
// the intended pattern is one Stats per worker (cache-line padded by the
// embedding struct), merged into shared counters once per run. This keeps
// the hot path at ordinary register arithmetic — the design constraint is
// that instrumentation must cost less than the work it measures.
//
// Kernels record only what cannot be inferred; two counts are derived:
//
//	Sim decided by cn ≥ c mid-scan   = Sim - PrunedSim
//	NSim decided by running out      = NSim - PrunedNSim - EarlyDu - EarlyDv
type Stats struct {
	// Calls counts CompSim evaluations (the paper's Figure 4 quantity).
	Calls int64 `json:"calls"`
	// Sim and NSim split Calls by outcome.
	Sim  int64 `json:"sim"`
	NSim int64 `json:"nsim"`
	// PrunedSim / PrunedNSim count calls decided by the shared initial
	// bound checks (c ≤ 2, or a degree bound below c) before any element
	// comparison — the similarity-predicate pruning of §3.2.2.
	PrunedSim  int64 `json:"prunedSim"`
	PrunedNSim int64 `json:"prunedNSim"`
	// EarlyDu / EarlyDv count NSim results decided by the running du / dv
	// bound dropping below c mid-scan (Definition 3.9 early termination).
	EarlyDu int64 `json:"earlyDu"`
	EarlyDv int64 `json:"earlyDv"`
	// VectorBlocks counts 8/16-lane block compare+popcount operations
	// executed by the vectorized kernels.
	VectorBlocks int64 `json:"vectorBlocks"`
	// ScalarSteps counts single-element cursor advances (scalar kernels
	// and the block kernels' tail fallback).
	ScalarSteps int64 `json:"scalarSteps"`
	// Scanned counts total cursor advance (elements passed over) across
	// both inputs, the memory-traffic proxy.
	Scanned int64 `json:"elementsScanned"`
}

// Merge folds o into s.
func (s *Stats) Merge(o *Stats) {
	s.Calls += o.Calls
	s.Sim += o.Sim
	s.NSim += o.NSim
	s.PrunedSim += o.PrunedSim
	s.PrunedNSim += o.PrunedNSim
	s.EarlyDu += o.EarlyDu
	s.EarlyDv += o.EarlyDv
	s.VectorBlocks += o.VectorBlocks
	s.ScalarSteps += o.ScalarSteps
	s.Scanned += o.Scanned
}

// The note* helpers below are nil-safe so kernels can call them
// unconditionally at their return sites; each compiles to a nil check
// plus one or two adds.

func (s *Stats) noteEarlyDu() {
	if s != nil {
		s.EarlyDu++
	}
}

func (s *Stats) noteEarlyDv() {
	if s != nil {
		s.EarlyDv++
	}
}

// noteScalar records n single-element cursor advances.
func (s *Stats) noteScalar(n int) {
	if s != nil {
		s.ScalarSteps += int64(n)
		s.Scanned += int64(n)
	}
}

// noteVector records block operations and the elements they advanced over.
func (s *Stats) noteVector(blocks int64, advanced int) {
	if s != nil {
		s.VectorBlocks += blocks
		s.Scanned += int64(advanced)
	}
}
