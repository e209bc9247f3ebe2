package intersect

import (
	"ppscan/internal/simdef"
	"ppscan/internal/vec"
)

// The block-merge kernel. After a swap that makes a the longer list, one
// assembly routine does the whole call: it holds a block of a (16 lanes
// under AVX-512, 8 under AVX2; the tail block is a masked load), and for
// each element x of b in turn
//
//   - if x passes the block's last value, leaves the block and skips a
//     forward to its first element ≥ x with Algorithm 6's broadcast
//     compare-greater and popcount, one block per step, then loads the
//     block that starts there;
//   - tests x against the block with one broadcast compare-equal and a
//     popcount (0 or 1: adjacency lists hold no duplicates).
//
// Definition 3.9's bounds: cn counts matches, and dv (the shorter list's
// bound) drops by one per element that missed; both are checked after
// every element with one unsigned compare, so a match costs no branch of
// its own. du (the longer list's bound) is checked each time a block is
// left and at every skip step. With j elements of b and i of a behind the
// cursors, dv = len(b) - j + cn and du = len(a) - i + cn, so the routine
// tracks only s = dv - c and r = len(b) - j: it runs while 0 ≤ s < r,
// cn ≥ c is s ≥ r, and du < c is len(a) - i + s < r.

// Exit kinds of a block-merge body, named for its own argument order (a
// the longer list). The values are repeated in blockmerge_amd64.s.
const (
	exitExhausted = iota // a list ran out before a bound fired: NSim
	exitCN               // cn ≥ c: Sim
	exitLong             // the longer list's bound fell below c: NSim
	exitShort            // the shorter list's bound fell below c: NSim
)

// body names one implementation of BlockMerge.
type body int8

const (
	bodyMerge  body = iota // mergeEarly, on hosts without AVX2
	bodyAVX2               // blockMerge8
	bodyAVX512             // blockMerge16
)

func (b body) String() string {
	return [...]string{"merge-early", "avx2", "avx512"}[b]
}

// blockBody is the body BlockMerge runs, chosen once at init; only
// ForceBody changes it.
var blockBody = hostBodies()[0]

// ForceBody makes BlockMerge run the named body — "avx512", "avx2" or
// "merge-early" — until restore is called, so the experiment harness and
// the tests can measure each body the host has. ok is false, and nothing
// changes, when this host cannot run the body. The setting is process-wide:
// no CompSim may run concurrently with a ForceBody or its restore.
func ForceBody(name string) (restore func(), ok bool) {
	for _, bd := range hostBodies() {
		if bd.String() == name {
			old := blockBody
			blockBody = bd
			return func() { blockBody = old }, true
		}
	}
	return func() {}, false
}

// hostBodies lists the bodies this host can run, fastest first.
func hostBodies() []body {
	var bs []body
	if vec.HasAVX512 {
		bs = append(bs, bodyAVX512)
	}
	if vec.HasAVX2 {
		bs = append(bs, bodyAVX2)
	}
	return append(bs, bodyMerge)
}

// blockMerge is the BlockMerge kernel. CompSimStats's initial bound checks
// have run, so 3 ≤ c ≤ min(len(a), len(b)) + 2: both lists are non-empty.
func blockMerge(a, b []int32, c int32, st *Stats) simdef.EdgeSim {
	if blockBody == bodyMerge {
		return mergeEarly(a, b, c, st)
	}
	swapped := len(a) < len(b)
	if swapped {
		a, b = b, a
	}
	exit, blocks, scanned := blockMergeVec(blockBody, a, b, c)
	st.noteVector(int64(blocks), scanned)
	switch exit {
	case exitCN:
		return simdef.Sim
	case exitLong, exitShort:
		// du and dv are the caller's a and b bounds.
		if (exit == exitLong) != swapped {
			st.noteEarlyDu()
		} else {
			st.noteEarlyDv()
		}
	}
	return simdef.NSim
}
