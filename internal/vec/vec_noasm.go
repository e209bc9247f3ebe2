//go:build !amd64

package vec

// Portable fallback: no hardware SIMD backend on this architecture.

// HasAVX2 is always false off amd64.
var HasAVX2 bool

// HasAVX512 is always false off amd64.
var HasAVX512 bool

// CountLessAccel16 is RankLess16 off amd64.
func CountLessAccel16(blk *[16]int32, pivot int32) int32 {
	return RankLess16(blk, pivot)
}
