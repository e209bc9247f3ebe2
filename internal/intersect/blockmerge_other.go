//go:build !amd64

package intersect

// blockMergeVec is never reached off amd64: hostBodies offers only
// bodyMerge there.
func blockMergeVec(bd body, a, b []int32, c int32) (exit, blocks, scanned int) {
	panic("intersect: no vector block-merge body on this architecture")
}
