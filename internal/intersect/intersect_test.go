package intersect

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ppscan/internal/simdef"
)

func sortedRandom(rng *rand.Rand, n, universe int) []int32 {
	seen := make(map[int32]struct{}, n)
	for len(seen) < n {
		seen[int32(rng.Intn(universe))] = struct{}{}
	}
	out := make([]int32, 0, n)
	for v := range seen {
		out = append(out, v)
	}
	// insertion sort (small n in tests)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func refCount(a, b []int32) int32 {
	set := make(map[int32]struct{}, len(a))
	for _, x := range a {
		set[x] = struct{}{}
	}
	var cn int32
	for _, y := range b {
		if _, ok := set[y]; ok {
			cn++
		}
	}
	return cn
}

func TestCountBasic(t *testing.T) {
	cases := []struct {
		a, b []int32
		want int32
	}{
		{nil, nil, 0},
		{[]int32{1, 2, 3}, nil, 0},
		{[]int32{1, 2, 3}, []int32{2, 3, 4}, 2},
		{[]int32{1, 3, 5}, []int32{2, 4, 6}, 0},
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, 3},
		{[]int32{5}, []int32{5}, 1},
	}
	for _, tc := range cases {
		if got := Count(tc.a, tc.b); got != tc.want {
			t.Errorf("Count(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestGallopCountMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		a := sortedRandom(rng, rng.Intn(60), 120)
		b := sortedRandom(rng, rng.Intn(60), 120)
		if got, want := gallopCount(a, b), Count(a, b); got != want {
			t.Fatalf("gallopCount = %d, merge = %d\na=%v\nb=%v", got, want, a, b)
		}
	}
}

func TestKindString(t *testing.T) {
	for _, k := range Kinds() {
		if k.String() == "" {
			t.Errorf("empty name for kind %d", k)
		}
		back, err := ParseKind(k.String())
		if err != nil || back != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), back, err)
		}
	}
	if Kind(99).String() == "" {
		t.Errorf("unknown kind should still stringify")
	}
	if _, err := ParseKind("nonsense"); err == nil {
		t.Errorf("ParseKind should reject unknown names")
	}
}

// reference evaluates the predicate by full count — the ground truth.
func reference(a, b []int32, c int32) simdef.EdgeSim {
	if Count(a, b)+2 >= c {
		return simdef.Sim
	}
	return simdef.NSim
}

func TestCompSimTrivialThresholds(t *testing.T) {
	a := []int32{1, 2, 3}
	b := []int32{4, 5, 6}
	for _, k := range Kinds() {
		// c <= 2 is always Sim (cn starts at 2).
		if got := CompSim(k, a, b, 2); got != simdef.Sim {
			t.Errorf("%v: c=2 should be Sim, got %v", k, got)
		}
		if got := CompSim(k, a, b, 1); got != simdef.Sim {
			t.Errorf("%v: c=1 should be Sim, got %v", k, got)
		}
		// c above both degree bounds is always NSim.
		if got := CompSim(k, a, b, 6); got != simdef.NSim {
			t.Errorf("%v: c=6 should be NSim, got %v", k, got)
		}
	}
}

func TestCompSimEmptyArrays(t *testing.T) {
	for _, k := range Kinds() {
		if got := CompSim(k, nil, nil, 3); got != simdef.NSim {
			t.Errorf("%v: empty arrays with c=3 should be NSim, got %v", k, got)
		}
		if got := CompSim(k, nil, nil, 2); got != simdef.Sim {
			t.Errorf("%v: empty arrays with c=2 should be Sim, got %v", k, got)
		}
	}
}

// All kernels must agree with the reference on random inputs across the
// whole threshold range. This is the kernel-correctness cornerstone: any
// early-termination bug shows up here.
func TestAllKernelsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a := sortedRandom(rng, rng.Intn(70), 150)
		b := sortedRandom(rng, rng.Intn(70), 150)
		maxC := int32(len(a)) + 2
		if int32(len(b))+2 > maxC {
			maxC = int32(len(b)) + 2
		}
		c := int32(rng.Intn(int(maxC)+3)) + 1
		want := reference(a, b, c)
		for _, k := range Kinds() {
			if got := CompSim(k, a, b, c); got != want {
				t.Fatalf("kernel %v: CompSim = %v, want %v (c=%d)\na=%v\nb=%v", k, got, want, c, a, b)
			}
		}
	}
}

// Long arrays exercise the 8/16-lane block paths and their tail fallback.
func TestBlockKernelsLongArrays(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		la := 16 + rng.Intn(400)
		lb := 16 + rng.Intn(400)
		a := sortedRandom(rng, la, 1200)
		b := sortedRandom(rng, lb, 1200)
		for _, c := range []int32{3, 5, 10, 20, 50, int32(la / 2), int32(lb + 2)} {
			if c < 1 {
				c = 1
			}
			want := reference(a, b, c)
			for _, k := range []Kind{PivotScalar, PivotBlock8, PivotBlock16} {
				if got := CompSim(k, a, b, c); got != want {
					t.Fatalf("kernel %v long arrays: got %v want %v (c=%d, la=%d, lb=%d)", k, got, want, c, la, lb)
				}
			}
		}
	}
}

// Exactly-at-boundary thresholds: the intersection count equals c or c-1.
func TestKernelsAtExactBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		a := sortedRandom(rng, 5+rng.Intn(80), 200)
		b := sortedRandom(rng, 5+rng.Intn(80), 200)
		cn := Count(a, b) + 2
		for _, c := range []int32{cn, cn + 1} {
			want := reference(a, b, c)
			for _, k := range Kinds() {
				if got := CompSim(k, a, b, c); got != want {
					t.Fatalf("kernel %v at boundary: got %v want %v (cn=%d c=%d)", k, got, want, cn, c)
				}
			}
		}
	}
}

// Identical arrays: every element matches; blocks advance by match path.
func TestKernelsIdenticalArrays(t *testing.T) {
	a := make([]int32, 100)
	for i := range a {
		a[i] = int32(i * 3)
	}
	for _, k := range Kinds() {
		if got := CompSim(k, a, a, 100); got != simdef.Sim { // cn reaches 102
			t.Errorf("%v identical arrays: got %v, want Sim", k, got)
		}
		if got := CompSim(k, a, a, 103); got != simdef.NSim { // max is 102
			t.Errorf("%v identical arrays c=103: got %v, want NSim", k, got)
		}
	}
}

// Disjoint interleaved arrays: worst case for merge, exercises step-1/step-2
// ping-pong in the pivot kernels.
func TestKernelsDisjointInterleaved(t *testing.T) {
	a := make([]int32, 64)
	b := make([]int32, 64)
	for i := range a {
		a[i] = int32(2 * i)
		b[i] = int32(2*i + 1)
	}
	for _, k := range Kinds() {
		if got := CompSim(k, a, b, 3); got != simdef.NSim {
			t.Errorf("%v disjoint: got %v, want NSim", k, got)
		}
	}
}

// One array much longer: exercises bitCnt == Lanes repeated skips.
func TestKernelsSkewedLengths(t *testing.T) {
	long := make([]int32, 500)
	for i := range long {
		long[i] = int32(i)
	}
	short := []int32{100, 250, 400, 498}
	for _, k := range Kinds() {
		if got := CompSim(k, long, short, 6); got != simdef.Sim { // cn = 4+2 = 6
			t.Errorf("%v skewed: got %v, want Sim", k, got)
		}
		if got := CompSim(k, long, short, 7); got != simdef.NSim {
			t.Errorf("%v skewed c=7: got %v, want NSim", k, got)
		}
		if got := CompSim(k, short, long, 6); got != simdef.Sim {
			t.Errorf("%v skewed swapped: got %v, want Sim", k, got)
		}
	}
}

// Property-based: arbitrary sorted inputs, all kernels agree with reference.
func TestKernelsQuick(t *testing.T) {
	f := func(seed int64, laRaw, lbRaw uint8, cRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := sortedRandom(rng, int(laRaw)%120, 300)
		b := sortedRandom(rng, int(lbRaw)%120, 300)
		c := int32(cRaw%70) + 1
		want := reference(a, b, c)
		for _, k := range Kinds() {
			if CompSim(k, a, b, c) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Symmetry: CompSim(a, b) == CompSim(b, a) for every kernel.
func TestKernelsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 400; i++ {
		a := sortedRandom(rng, rng.Intn(100), 250)
		b := sortedRandom(rng, rng.Intn(100), 250)
		c := int32(rng.Intn(40)) + 1
		for _, k := range Kinds() {
			if CompSim(k, a, b, c) != CompSim(k, b, a, c) {
				t.Fatalf("kernel %v not symmetric (c=%d)", k, c)
			}
		}
	}
}

func TestRefCountAgreesWithCount(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 200; i++ {
		a := sortedRandom(rng, rng.Intn(50), 100)
		b := sortedRandom(rng, rng.Intn(50), 100)
		if Count(a, b) != refCount(a, b) {
			t.Fatalf("merge count and map count disagree")
		}
	}
}

// --- Micro-benchmarks for the §6.2.2 kernel comparison ------------------

func benchArrays(n int, overlap float64, seed int64) (a, b []int32) {
	rng := rand.New(rand.NewSource(seed))
	a = sortedRandom(rng, n, 4*n)
	b = make([]int32, 0, n)
	seen := make(map[int32]struct{})
	for _, x := range a {
		if rng.Float64() < overlap {
			b = append(b, x)
			seen[x] = struct{}{}
		}
	}
	for len(b) < n {
		v := int32(rng.Intn(4 * n))
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		b = append(b, v)
	}
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && b[j-1] > b[j]; j-- {
			b[j-1], b[j] = b[j], b[j-1]
		}
	}
	return a, b
}

func benchKernel(b *testing.B, k Kind, n int, overlap float64, c int32) {
	x, y := benchArrays(n, overlap, 23)
	b.ResetTimer()
	var acc int
	for i := 0; i < b.N; i++ {
		if CompSim(k, x, y, c) == simdef.Sim {
			acc++
		}
	}
	_ = acc
}

func BenchmarkKernelMerge(b *testing.B)        { benchKernel(b, Merge, 512, 0.3, 60) }
func BenchmarkKernelMergeEarly(b *testing.B)   { benchKernel(b, MergeEarly, 512, 0.3, 60) }
func BenchmarkKernelGallop(b *testing.B)       { benchKernel(b, Gallop, 512, 0.3, 60) }
func BenchmarkKernelPivotScalar(b *testing.B)  { benchKernel(b, PivotScalar, 512, 0.3, 60) }
func BenchmarkKernelPivotBlock8(b *testing.B)  { benchKernel(b, PivotBlock8, 512, 0.3, 60) }
func BenchmarkKernelPivotBlock16(b *testing.B) { benchKernel(b, PivotBlock16, 512, 0.3, 60) }
func BenchmarkKernelBlockMerge(b *testing.B)   { benchKernel(b, BlockMerge, 512, 0.3, 60) }
