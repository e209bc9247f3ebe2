// Package vec holds Algorithm 6's block primitive: count the lanes of a
// sorted 16-lane int32 block that are strictly less than a pivot, the
// popcount of the paper's
//
//	_mm_popcnt_u32(_mm512_cmpgt_epi32_mask(_mm512_set1_epi32(pivot), blk))
//
// CountLessAccel16 runs it in Go assembly (countless_amd64.s): one AVX-512
// compare into a mask register, or two AVX2 compares, chosen at init from
// CPUID/XGETBV (HasAVX512, HasAVX2), with RankLess16 as the portable
// fallback. CountLess16 is the lane-by-lane reference the tests compare
// them against. The pivot-block16 kernel (internal/intersect) is its one
// caller, and block-merge's init reads the two feature flags.
package vec

// Lanes16 is the block width: 512 bits of 32-bit lanes.
const Lanes16 = 16

// b2u converts a bool to 0/1 without a branch in the generated code.
func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// CountLess16 returns the number of lanes of blk that are strictly less
// than pivot, one branch-free lane comparison at a time, sorted or not.
func CountLess16(blk *[16]int32, pivot int32) int32 {
	var c int32
	for i := 0; i < Lanes16; i++ {
		c += int32(b2u(pivot > blk[i]))
	}
	return c
}

// RankLess16 returns, for a block whose lanes are sorted ascending, the
// number of lanes strictly less than pivot — the same value as CountLess16
// on sorted input (adjacency blocks always are) — with a branch-free
// binary search of five steps instead of sixteen lane comparisons. It is
// CountLessAccel16's fallback on hosts without AVX2.
func RankLess16(blk *[16]int32, pivot int32) int32 {
	var r int32
	r += 8 & -int32(b2u(pivot > blk[r+7]))
	r += 4 & -int32(b2u(pivot > blk[r+3]))
	r += 2 & -int32(b2u(pivot > blk[r+1]))
	r += 1 & -int32(b2u(pivot > blk[r]))
	r += int32(b2u(pivot > blk[r])) // rank may be the full lane count
	return r
}
