//go:build amd64

package vec

// Feature detection follows the Intel manuals: the OS must have enabled
// XMM/YMM (and ZMM for AVX-512) state via XSAVE before the instructions are
// usable, so XCR0 is consulted in addition to the CPUID feature flags.

// HasAVX2 reports whether AVX2 instructions are usable on this machine.
var HasAVX2 bool

// HasAVX512 reports whether AVX-512F instructions are usable.
var HasAVX512 bool

func init() {
	ecx1 := uint32(cpuid1ecx())
	const (
		bitAVX     = 1 << 28
		bitOSXSAVE = 1 << 27
	)
	if ecx1&bitOSXSAVE == 0 || ecx1&bitAVX == 0 {
		return
	}
	eax, _ := xgetbv0()
	// XCR0: SSE state (bit 1) and AVX state (bit 2).
	if eax&0x6 != 0x6 {
		return
	}
	ebx7 := uint32(cpuid7ebx())
	const (
		bitAVX2    = 1 << 5
		bitAVX512F = 1 << 16
	)
	HasAVX2 = ebx7&bitAVX2 != 0
	// XCR0: opmask (bit 5), upper ZMM (bit 6), high ZMM regs (bit 7).
	HasAVX512 = HasAVX2 && ebx7&bitAVX512F != 0 && eax&0xE0 == 0xE0
}

// Implemented in cpu_amd64.s.
func cpuid1ecx() uint64
func cpuid7ebx() uint64
func xgetbv0() (eax, edx uint32)

// Implemented in countless_amd64.s.
//
//go:noescape
func countLess16AVX2(blk *[16]int32, pivot int32) int32

//go:noescape
func countLess16AVX512(blk *[16]int32, pivot int32) int32

// CountLessAccel16 is the fastest available 16-lane "compare pivot-greater
// and popcount" for sorted blocks: one AVX-512 compare when the CPU has it,
// two AVX2 compares otherwise, and RankLess16 as the fallback. Equal to
// CountLess16 on sorted input.
func CountLessAccel16(blk *[16]int32, pivot int32) int32 {
	if HasAVX512 {
		return countLess16AVX512(blk, pivot)
	}
	if HasAVX2 {
		return countLess16AVX2(blk, pivot)
	}
	return RankLess16(blk, pivot)
}
