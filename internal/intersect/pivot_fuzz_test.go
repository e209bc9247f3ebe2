package intersect

import (
	"testing"

	"ppscan/internal/simdef"
)

// FuzzPivotKernelsEquivalent pins the vectorized pivot kernels
// (PivotBlock8/PivotBlock16) to the scalar reference
// (PivotScalar) on two axes:
//
//   - the similarity verdict (mirroring FuzzKernelsAgree's merge ground
//     truth), and
//   - the early-termination outcome of Definition 3.9 — whether the kernel
//     cut the intersection short, and which side's remaining-budget bound
//     (du vs dv) tripped first.
//
// The second axis is what Figure 5's pruning-effectiveness counters are
// computed from: if a blocked kernel terminated on different bounds than
// the scalar one, the kernel.early_du/early_dv telemetry (and the work
// skipped) would silently diverge between -kernel settings even though
// verdicts agree.
func FuzzPivotKernelsEquivalent(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []byte{2, 4, 6, 8, 10, 12}, uint8(5))
	f.Add([]byte{1, 2, 3}, []byte{200, 201, 202}, uint8(4))
	f.Add([]byte{}, []byte{1, 2, 3, 4}, uint8(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, []byte{1, 3}, uint8(4))
	f.Fuzz(func(t *testing.T, aRaw, bRaw []byte, cRaw uint8) {
		a := normalize(aRaw)
		b := normalize(bRaw)
		c := int32(cRaw%80) + 1

		var refStats Stats
		refVerdict := CompSimStats(PivotScalar, a, b, c, &refStats)
		refEarly := earlyClass(&refStats)

		want := simdef.NSim
		if Count(a, b)+2 >= c {
			want = simdef.Sim
		}
		if refVerdict != want {
			t.Fatalf("PivotScalar: got %v want %v (c=%d, a=%v, b=%v)", refVerdict, want, c, a, b)
		}

		for _, k := range []Kind{PivotBlock8, PivotBlock16} {
			var st Stats
			verdict := CompSimStats(k, a, b, c, &st)
			if verdict != refVerdict {
				t.Fatalf("kernel %v: verdict %v, PivotScalar %v (c=%d, a=%v, b=%v)",
					k, verdict, refVerdict, c, a, b)
			}
			if got := earlyClass(&st); got != refEarly {
				t.Fatalf("kernel %v: early-termination %q, PivotScalar %q (c=%d, a=%v, b=%v)",
					k, got, refEarly, c, a, b)
			}
		}
	})
}

// earlyClass reduces one call's Stats to its early-termination outcome.
// The initial-bound prunes (PrunedSim/PrunedNSim) short-circuit before any
// kernel runs, so they are shared by construction; EarlyDu/EarlyDv are the
// per-kernel decisions under test.
func earlyClass(st *Stats) string {
	switch {
	case st.PrunedSim > 0:
		return "pruned-sim"
	case st.PrunedNSim > 0:
		return "pruned-nsim"
	case st.EarlyDu > 0 && st.EarlyDv > 0:
		return "early-du+dv"
	case st.EarlyDu > 0:
		return "early-du"
	case st.EarlyDv > 0:
		return "early-dv"
	default:
		return "none"
	}
}
