package intersect

import (
	"math/rand"
	"testing"

	"ppscan/internal/simdef"
)

// TestStatsInvariants checks, for every kernel over random inputs, that
// the recorded telemetry is internally consistent and agrees with the
// uninstrumented path, once per BlockMerge body.
func TestStatsInvariants(t *testing.T) {
	eachBody(t, statsInvariants)
}

func statsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, kind := range Kinds() {
		var st Stats
		var calls int64
		for trial := 0; trial < 200; trial++ {
			a := sortedRandom(rng, 5+rng.Intn(60), 200)
			b := sortedRandom(rng, 5+rng.Intn(60), 200)
			c := int32(1 + rng.Intn(20))
			got := CompSimStats(kind, a, b, c, &st)
			if want := CompSim(kind, a, b, c); got != want {
				t.Fatalf("%v: instrumented result %v != plain %v", kind, got, want)
			}
			calls++
		}
		if st.Calls != calls {
			t.Errorf("%v: Calls = %d, want %d", kind, st.Calls, calls)
		}
		if st.Sim+st.NSim != st.Calls {
			t.Errorf("%v: Sim %d + NSim %d != Calls %d", kind, st.Sim, st.NSim, st.Calls)
		}
		if st.CnReached() < 0 || st.Exhausted() < 0 {
			t.Errorf("%v: negative derived stats: cn=%d exhausted=%d",
				kind, st.CnReached(), st.Exhausted())
		}
		if st.PrunedSim+st.PrunedNSim > st.Calls {
			t.Errorf("%v: pruned %d+%d exceeds calls %d",
				kind, st.PrunedSim, st.PrunedNSim, st.Calls)
		}
		if st.Scanned == 0 {
			t.Errorf("%v: no elements scanned over 200 random calls", kind)
		}
		vector := kind == PivotBlock8 || kind == PivotBlock16 || kind == BlockMerge && blockBody != bodyMerge
		switch {
		case vector && st.VectorBlocks == 0:
			t.Errorf("%v: no vector blocks recorded", kind)
		case !vector && st.VectorBlocks != 0:
			t.Errorf("%v: scalar kernel recorded %d vector blocks", kind, st.VectorBlocks)
		}
	}
}

func TestStatsMerge(t *testing.T) {
	a := Stats{Calls: 1, Sim: 1, PrunedSim: 1, VectorBlocks: 2, Scanned: 3}
	b := Stats{Calls: 2, NSim: 2, EarlyDu: 1, EarlyDv: 1, ScalarSteps: 4, Scanned: 5, PrunedNSim: 1}
	a.Merge(&b)
	if a.Calls != 3 || a.Sim != 1 || a.NSim != 2 || a.Scanned != 8 ||
		a.EarlyDu != 1 || a.EarlyDv != 1 || a.ScalarSteps != 4 ||
		a.VectorBlocks != 2 || a.PrunedSim != 1 || a.PrunedNSim != 1 {
		t.Fatalf("merge = %+v", a)
	}
}

// TestStatsNilReceiverInKernels pins that a nil *Stats flows through every
// kernel without panicking (the uninstrumented hot path).
func TestStatsNilReceiverInKernels(t *testing.T) {
	a := []int32{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 33, 35}
	b := []int32{2, 3, 6, 7, 10, 11, 14, 15, 18, 19, 22, 23, 26, 27, 30, 31, 34, 35}
	for _, kind := range Kinds() {
		if got := CompSimStats(kind, a, b, 5, nil); got == simdef.Unknown {
			t.Fatalf("%v returned Unknown", kind)
		}
	}
}
