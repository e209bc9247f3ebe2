package intersect

import (
	"slices"
	"testing"

	"ppscan/internal/simdef"
)

// forceBody makes BlockMerge run bd until the returned restore is called.
func forceBody(bd body) (restore func()) {
	old := blockBody
	blockBody = bd
	return func() { blockBody = old }
}

// eachBody runs f as one subtest per BlockMerge body, named after it, with
// that body forced; a body this host cannot run is skipped.
func eachBody(t *testing.T, f func(t *testing.T)) {
	for _, bd := range []body{bodyAVX512, bodyAVX2, bodyMerge} {
		t.Run(bd.String(), func(t *testing.T) {
			if !slices.Contains(hostBodies(), bd) {
				t.Skipf("this host cannot run the %v body", bd)
			}
			defer forceBody(bd)()
			f(t)
		})
	}
}

// span returns lo, lo+step, ... below hi.
func span(lo, hi, step int32) []int32 {
	var out []int32
	for x := lo; x < hi; x += step {
		out = append(out, x)
	}
	return out
}

// TestBlockMergeExits pins which of Definition 3.9's exits each vector
// body takes on handcrafted pairs, with the long list passed first and
// second: the long list's bound is du in the first order and dv in the
// second. The cases hold at both 8 and 16 lanes.
func TestBlockMergeExits(t *testing.T) {
	cases := []struct {
		name        string
		long, short []int32
		c           int32
		want        simdef.EdgeSim
		longFirst   string // earlyClass with the long list as a
	}{
		// 3, 5 and 7 all match inside the first block: cn = 5 = c.
		{"cn", span(0, 40, 1), []int32{3, 5, 7, 9}, 5, simdef.Sim, "none"},
		// 1 and 3 miss while elements of the short list remain: dv = 4 < 5.
		{"short-bound", span(0, 80, 2), []int32{1, 3, 4, 6}, 5, simdef.NSim, "early-dv"},
		// 17 passes the first block (and, at 8 lanes, the second): of the
		// long list 4 elements remain, so du = 4 + cn = 6 < 7.
		{"long-bound", span(0, 20, 1), []int32{17, 18, 25, 26, 27}, 7, simdef.NSim, "early-du"},
		// 0 and 2 match, 5 misses and is the short list's last element.
		{"short-list-ran-out", span(0, 80, 2), []int32{0, 2, 5}, 5, simdef.NSim, "none"},
		// 100 is past every element of the long list: the skip runs off
		// its end before its bound reads below c.
		{"long-list-ran-out", span(0, 40, 1), []int32{1, 2, 100}, 5, simdef.NSim, "none"},
	}
	swap := map[string]string{"none": "none", "early-du": "early-dv", "early-dv": "early-du"}
	eachBody(t, func(t *testing.T) {
		if blockBody == bodyMerge {
			t.Skip("the fallback body takes merge-early's exits")
		}
		for _, tc := range cases {
			for _, longFirst := range []bool{true, false} {
				a, b, want := tc.long, tc.short, tc.longFirst
				if !longFirst {
					a, b, want = b, a, swap[want]
				}
				var st Stats
				if got := CompSimStats(BlockMerge, a, b, tc.c, &st); got != tc.want {
					t.Errorf("%s (long first %v): verdict %v, want %v", tc.name, longFirst, got, tc.want)
				}
				if got := earlyClass(&st); got != want {
					t.Errorf("%s (long first %v): exit %q, want %q", tc.name, longFirst, got, want)
				}
				if st.Scanned == 0 || st.ScalarSteps != 0 {
					t.Errorf("%s (long first %v): telemetry %+v", tc.name, longFirst, st)
				}
			}
		}
	})
}
