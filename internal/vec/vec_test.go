package vec

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Property: for a sorted block and a pivot, the accelerated count and the
// rank both equal the number of elements strictly less than the pivot —
// exactly the invariant Algorithm 6 relies on to advance its cursor.
func TestSortedBlockCursorInvariantQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var blk [Lanes16]int32
		x := int32(rng.Intn(10))
		for i := range blk {
			x += int32(rng.Intn(5)) // non-decreasing
			blk[i] = x
		}
		pivot := int32(rng.Intn(int(x) + 10))
		var want int32
		for _, e := range blk {
			if e < pivot {
				want++
			}
		}
		return CountLessAccel16(&blk, pivot) == want && RankLess16(&blk, pivot) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// CountLess16 must count every lane below the pivot, sorted or not: the
// pivot's insertion point in a sorted copy of the block.
func TestCountLessEquivalence(t *testing.T) {
	f := func(vals [16]int32, pivot int32) bool {
		sorted := slices.Clone(vals[:])
		slices.Sort(sorted)
		rank, _ := slices.BinarySearch(sorted, pivot)
		return CountLess16(&vals, pivot) == int32(rank)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// RankLess must equal CountLess (and hence the mask popcount) on sorted
// blocks — the only inputs the kernels feed it.
func TestRankLessEquivalenceOnSorted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var blk [16]int32
		x := int32(rng.Intn(8)) - 4
		for i := range blk {
			x += int32(rng.Intn(4))
			blk[i] = x
		}
		for p := blk[0] - 2; p <= blk[15]+2; p++ {
			if RankLess16(&blk, p) != CountLess16(&blk, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRankLessBoundaries(t *testing.T) {
	blk := [16]int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	if got := RankLess16(&blk, -5); got != 0 {
		t.Errorf("pivot below all: %d", got)
	}
	if got := RankLess16(&blk, 100); got != 16 {
		t.Errorf("pivot above all: %d", got)
	}
	if got := RankLess16(&blk, 7); got != 7 {
		t.Errorf("pivot inside: %d", got)
	}
	// Duplicates: strict less-than semantics.
	dup := [16]int32{1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4}
	if got := RankLess16(&dup, 3); got != 8 {
		t.Errorf("duplicates: %d, want 8", got)
	}
}

// Feature flags must be internally consistent: AVX512 support implies
// AVX2 support (the detection requires it, and the dispatch relies on it).
func TestFeatureFlagsConsistent(t *testing.T) {
	if HasAVX512 && !HasAVX2 {
		t.Errorf("HasAVX512 without HasAVX2")
	}
}

// The accelerated count must agree with the lane-by-lane reference on
// every sorted block (vec_amd64_test.go also feeds the assembly unsorted
// ones).
func TestAccelMatchesSoftware(t *testing.T) {
	t.Logf("HasAVX2=%v HasAVX512=%v", HasAVX2, HasAVX512)
	f := func(vals [16]int32, pivot int32) bool {
		// CountLessAccel is only specified for sorted blocks; sort.
		blk := vals
		for i := 1; i < len(blk); i++ {
			for j := i; j > 0 && blk[j-1] > blk[j]; j-- {
				blk[j-1], blk[j] = blk[j], blk[j-1]
			}
		}
		return CountLessAccel16(&blk, pivot) == CountLess16(&blk, pivot)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAccelExtremes(t *testing.T) {
	const minI32, maxI32 = int32(-1 << 31), int32(1<<31 - 1)
	blk := [16]int32{minI32, minI32, -5, -1, 0, 0, 1, 2, 3, 100, 1000, 1 << 20, maxI32 - 1, maxI32, maxI32, maxI32}
	for _, p := range []int32{minI32, minI32 + 1, -1, 0, 1, maxI32 - 1, maxI32} {
		if got, want := CountLessAccel16(&blk, p), CountLess16(&blk, p); got != want {
			t.Errorf("pivot %d: accel %d, reference %d", p, got, want)
		}
	}
}

func BenchmarkCountLessAccel16(b *testing.B) {
	blk := [16]int32{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31}
	var acc int32
	for i := 0; i < b.N; i++ {
		acc += CountLessAccel16(&blk, int32(i&31))
	}
	_ = acc
}

func BenchmarkRankLess16(b *testing.B) {
	blk := [16]int32{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31}
	var acc int32
	for i := 0; i < b.N; i++ {
		acc += RankLess16(&blk, int32(i&31))
	}
	_ = acc
}

func BenchmarkCountLess16(b *testing.B) {
	blk := [16]int32{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31}
	var acc int32
	for i := 0; i < b.N; i++ {
		acc += CountLess16(&blk, int32(i&31))
	}
	_ = acc
}
