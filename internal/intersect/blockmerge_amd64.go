//go:build amd64

package intersect

// blockMergeVec runs the vector body bd on a (the longer list) and b.
func blockMergeVec(bd body, a, b []int32, c int32) (exit, blocks, scanned int) {
	if bd == bodyAVX512 {
		return blockMerge16(a, b, c)
	}
	return blockMerge8(a, b, c)
}

// blockMerge16 and blockMerge8 are the AVX-512 and AVX2 bodies, in
// blockmerge_amd64.s. They need 1 ≤ len(b) ≤ len(a) and
// 3 ≤ c ≤ len(b) + 2, and return the exit kind, the block compares made
// (one per element of b tested plus one per skip step) and the elements
// of both lists behind the cursors.
//
//go:noescape
func blockMerge16(a, b []int32, c int32) (exit, blocks, scanned int)

//go:noescape
func blockMerge8(a, b []int32, c int32) (exit, blocks, scanned int)
