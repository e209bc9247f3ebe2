// Package intersect provides the set-intersection kernels that implement
// the structural similarity computation CompSim(u, v) (Definition 3.1).
//
// Every kernel answers the same question: given the sorted adjacency arrays
// a = N(u) and b = N(v) of two *adjacent* vertices and the exact threshold
// c = ⌈ε·√((d[u]+1)(d[v]+1))⌉, is |Γ(u) ∩ Γ(v)| ≥ c?
//
// Per Definition 3.9 the intersection count bounds are maintained as
//
//	cn = 2                (u and v are always in Γ(u) ∩ Γ(v))
//	du = d[u] + 2         (upper bound from u's side)
//	dv = d[v] + 2         (upper bound from v's side)
//
// and the early-termination conditions are du < c → NSim, dv < c → NSim,
// cn ≥ c → Sim. (u and v never appear in N(u) ∩ N(v) because graphs have no
// self loops, so the "+2" never double-counts.)
//
// Kernels:
//
//	Merge       — textbook merge count, no early termination (used by the
//	              SCAN baseline; Theorem 3.4's workload model).
//	MergeEarly  — pSCAN's merge with min-max early termination.
//	Gallop      — galloping-search count; demonstrates the paper's remark
//	              that galloping cannot exploit early termination well.
//	PivotScalar — the scalar pivot-based kernel (Algorithm 6's fallback
//	              path); this is the "ppSCAN-NO" kernel of Figure 5.
//	PivotBlock8 — Algorithm 6 with 8-lane software vectors (AVX2 profile).
//	PivotBlock16— Algorithm 6 with 16-lane software vectors (AVX512
//	              profile, the paper's KNL configuration).
//	BlockMerge  — the longer list read in vector blocks, each element of
//	              the shorter one tested against the current block, in one
//	              assembly routine per call (blockmerge.go); ppSCAN's
//	              default.
package intersect

import (
	"fmt"
	"sort"

	"ppscan/internal/simdef"
	"ppscan/internal/vec"
)

// Kind selects a set-intersection kernel.
type Kind int32

const (
	// Merge is a full merge-based count without early termination.
	Merge Kind = iota
	// MergeEarly is pSCAN's merge with early termination.
	MergeEarly
	// Gallop is a galloping-search full count.
	Gallop
	// PivotScalar is the scalar pivot kernel with early termination.
	PivotScalar
	// PivotBlock8 is the 8-lane (AVX2-profile) vectorized pivot kernel.
	PivotBlock8
	// PivotBlock16 is the 16-lane (AVX512-profile) vectorized pivot kernel.
	PivotBlock16
	// BlockMerge is the vector block-merge kernel: one AVX-512 or AVX2
	// assembly routine per call, MergeEarly on hosts with neither.
	BlockMerge
)

var kindNames = map[Kind]string{
	Merge:        "merge",
	MergeEarly:   "merge-early",
	Gallop:       "gallop",
	PivotScalar:  "pivot-scalar",
	PivotBlock8:  "pivot-block8",
	PivotBlock16: "pivot-block16",
	BlockMerge:   "block-merge",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int32(k))
}

// ParseKind maps a kernel name (as printed by String) back to its Kind.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("intersect: unknown kernel %q", s)
}

// Kinds returns all kernel kinds in a stable order.
func Kinds() []Kind {
	return []Kind{Merge, MergeEarly, Gallop, PivotScalar, PivotBlock8, PivotBlock16, BlockMerge}
}

// Count returns |a ∩ b| for sorted slices via a plain merge.
func Count(a, b []int32) int32 {
	var cn int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			cn++
			i++
			j++
		}
	}
	return cn
}

// CompSim evaluates the structural similarity predicate for adjacent
// vertices with sorted neighbor lists a, b and exact threshold minCN.
// It never returns simdef.Unknown.
func CompSim(kind Kind, a, b []int32, minCN int32) simdef.EdgeSim {
	return CompSimStats(kind, a, b, minCN, nil)
}

// Sim is CompSimStats at the exact threshold of the arc whose endpoints
// have neighbor lists a and b (a list's length is the degree): the one
// arc-level call every similarity pass makes.
func Sim(kind Kind, eps simdef.Epsilon, a, b []int32, st *Stats) simdef.EdgeSim {
	return CompSimStats(kind, a, b, eps.MinCN(int32(len(a)), int32(len(b))), st)
}

// CompSimStats is CompSim with kernel telemetry recorded into st (nil
// disables recording at the cost of one predictable branch per return
// site — see the obsv-overhead benchmark). st must be owned by the
// calling goroutine; it is updated without atomics.
func CompSimStats(kind Kind, a, b []int32, minCN int32, st *Stats) simdef.EdgeSim {
	c := minCN
	if st != nil {
		st.Calls++
	}
	// Initial-bound checks (similarity predicate pruning, §3.2.2): these
	// are shared by every kernel because they need no intersection work.
	if c <= 2 {
		if st != nil {
			st.PrunedSim++
			st.Sim++
		}
		return simdef.Sim
	}
	if int32(len(a))+2 < c || int32(len(b))+2 < c {
		if st != nil {
			st.PrunedNSim++
			st.NSim++
		}
		return simdef.NSim
	}
	var r simdef.EdgeSim
	switch kind {
	case Merge:
		r = simFromCount(Count(a, b)+2, c)
		st.noteScalar(len(a) + len(b))
	case Gallop:
		r = simFromCount(gallopCount(a, b)+2, c)
		// Galloping's probe count is data-dependent; attribute the smaller
		// side as the scan proxy (each of its elements is searched once).
		if len(a) < len(b) {
			st.noteScalar(len(a))
		} else {
			st.noteScalar(len(b))
		}
	case MergeEarly:
		r = mergeEarly(a, b, c, st)
	case PivotScalar:
		r = pivotScalar(a, b, c, st)
	case PivotBlock8:
		r = pivotBlock8(a, b, c, st)
	case PivotBlock16:
		r = pivotBlock16(a, b, c, st)
	case BlockMerge:
		r = blockMerge(a, b, c, st)
	default:
		panic(fmt.Sprintf("intersect: unknown kernel %v", kind))
	}
	if st != nil {
		if r == simdef.Sim {
			st.Sim++
		} else {
			st.NSim++
		}
	}
	return r
}

func simFromCount(cn, c int32) simdef.EdgeSim {
	if cn >= c {
		return simdef.Sim
	}
	return simdef.NSim
}

// mergeEarly is pSCAN's merge with the three early-termination conditions.
func mergeEarly(a, b []int32, c int32, st *Stats) simdef.EdgeSim {
	du := int32(len(a)) + 2
	dv := int32(len(b)) + 2
	cn := int32(2)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
			du--
			if du < c {
				st.noteScalar(i + j)
				st.noteEarlyDu()
				return simdef.NSim
			}
		case a[i] > b[j]:
			j++
			dv--
			if dv < c {
				st.noteScalar(i + j)
				st.noteEarlyDv()
				return simdef.NSim
			}
		default:
			cn++
			if cn >= c {
				st.noteScalar(i + j)
				return simdef.Sim
			}
			i++
			j++
		}
	}
	st.noteScalar(i + j)
	return simdef.NSim
}

// gallopCount intersects by galloping: for each element of the smaller
// array, exponentially search then binary search in the larger array.
func gallopCount(a, b []int32) int32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	var cn int32
	lo := 0
	for _, x := range a {
		// Exponential probe from lo.
		step := 1
		hi := lo
		for hi < len(b) && b[hi] < x {
			hi += step
			step <<= 1
		}
		if hi > len(b) {
			hi = len(b)
		}
		// Binary search in (lo, hi]. The closure captures only stack
		// locals sort.Search never leaks, so it stays on the stack.
		idx := lo + sort.Search(hi-lo, func(k int) bool { return b[lo+k] >= x })
		if idx < len(b) && b[idx] == x {
			cn++
			idx++
		}
		lo = idx
		if lo >= len(b) {
			break
		}
	}
	return cn
}

// pivotScalar is the non-vectorized pivot kernel: the same control flow as
// Algorithm 6 with a block width of 1. It is also the tail fallback of the
// block kernels ("Fall back to the non-vectorized logic", Alg. 6 line 23).
func pivotScalar(a, b []int32, c int32, st *Stats) simdef.EdgeSim {
	du := int32(len(a)) + 2
	dv := int32(len(b)) + 2
	return pivotScalarFrom(a, b, 0, 0, du, dv, 2, c, st)
}

// pivotScalarFrom continues a pivot intersection from cursors (i, j) with
// running bounds (du, dv, cn). Telemetry covers only the advance performed
// here (callers account for work done before the handoff).
func pivotScalarFrom(a, b []int32, i, j int, du, dv, cn, c int32, st *Stats) simdef.EdgeSim {
	i0, j0 := i, j
	for i < len(a) && j < len(b) {
		pivot := b[j]
		// Step 1: advance i to the first a[i] >= pivot.
		for i < len(a) && a[i] < pivot {
			i++
			du--
			if du < c {
				st.noteScalar(i - i0 + j - j0)
				st.noteEarlyDu()
				return simdef.NSim
			}
		}
		if i >= len(a) {
			break
		}
		// Step 2: advance j to the first b[j] >= a[i].
		pivot = a[i]
		for j < len(b) && b[j] < pivot {
			j++
			dv--
			if dv < c {
				st.noteScalar(i - i0 + j - j0)
				st.noteEarlyDv()
				return simdef.NSim
			}
		}
		if j >= len(b) {
			break
		}
		// Step 3: match check.
		if a[i] == b[j] {
			cn++
			if cn >= c {
				st.noteScalar(i - i0 + j - j0)
				return simdef.Sim
			}
			i++
			j++
		}
	}
	st.noteScalar(i - i0 + j - j0)
	return simdef.NSim
}

// pivotBlock16 is Algorithm 6 with 16-lane software vectors. Block
// operations are tallied in a local (register) counter unconditionally and
// flushed to st only at the exit points, keeping instrumentation out of
// the inner loops.
func pivotBlock16(a, b []int32, c int32, st *Stats) simdef.EdgeSim {
	du := int32(len(a)) + 2
	dv := int32(len(b)) + 2
	cn := int32(2)
	i, j := 0, 0
	var blocks int64
	for {
		// Step 1: find the next pivot offset i with a[i] >= b[j]. Each
		// iteration is one emulated 512-bit compare+popcount over a sorted
		// block (vec.RankLess16 — bit-identical to the mask popcount).
		for i+vec.Lanes16 <= len(a) {
			blocks++
			bitCnt := vec.CountLessAccel16((*[vec.Lanes16]int32)(a[i:]), b[j])
			i += int(bitCnt)
			du -= bitCnt
			if du < c {
				st.noteVector(blocks, i+j)
				st.noteEarlyDu()
				return simdef.NSim
			}
			if bitCnt < vec.Lanes16 {
				break
			}
		}
		if i+vec.Lanes16 > len(a) {
			break
		}
		// Step 2: find the next pivot offset j with b[j] >= a[i].
		for j+vec.Lanes16 <= len(b) {
			blocks++
			bitCnt := vec.CountLessAccel16((*[vec.Lanes16]int32)(b[j:]), a[i])
			j += int(bitCnt)
			dv -= bitCnt
			if dv < c {
				st.noteVector(blocks, i+j)
				st.noteEarlyDv()
				return simdef.NSim
			}
			if bitCnt < vec.Lanes16 {
				break
			}
		}
		if j+vec.Lanes16 > len(b) {
			break
		}
		// Step 3: match check and cursor advance.
		if a[i] == b[j] {
			cn++
			if cn >= c {
				st.noteVector(blocks, i+j)
				return simdef.Sim
			}
			i++
			j++
		}
	}
	// Tail: fewer than 16 elements remain on one side.
	st.noteVector(blocks, i+j)
	return pivotScalarFrom(a, b, i, j, du, dv, cn, c, st)
}

// pivotBlock8 is Algorithm 6 with 8-lane software vectors (AVX2 profile).
func pivotBlock8(a, b []int32, c int32, st *Stats) simdef.EdgeSim {
	du := int32(len(a)) + 2
	dv := int32(len(b)) + 2
	cn := int32(2)
	i, j := 0, 0
	var blocks int64
	for {
		for i+vec.Lanes8 <= len(a) {
			blocks++
			bitCnt := vec.CountLessAccel8((*[vec.Lanes8]int32)(a[i:]), b[j])
			i += int(bitCnt)
			du -= bitCnt
			if du < c {
				st.noteVector(blocks, i+j)
				st.noteEarlyDu()
				return simdef.NSim
			}
			if bitCnt < vec.Lanes8 {
				break
			}
		}
		if i+vec.Lanes8 > len(a) {
			break
		}
		for j+vec.Lanes8 <= len(b) {
			blocks++
			bitCnt := vec.CountLessAccel8((*[vec.Lanes8]int32)(b[j:]), a[i])
			j += int(bitCnt)
			dv -= bitCnt
			if dv < c {
				st.noteVector(blocks, i+j)
				st.noteEarlyDv()
				return simdef.NSim
			}
			if bitCnt < vec.Lanes8 {
				break
			}
		}
		if j+vec.Lanes8 > len(b) {
			break
		}
		if a[i] == b[j] {
			cn++
			if cn >= c {
				st.noteVector(blocks, i+j)
				return simdef.Sim
			}
			i++
			j++
		}
	}
	st.noteVector(blocks, i+j)
	return pivotScalarFrom(a, b, i, j, du, dv, cn, c, st)
}
