//go:build amd64

#include "textflag.h"

// The hardware forms of Algorithm 6's block primitive: count the lanes of
// a 16-lane int32 block that are strictly less than a broadcast pivot, the
// mask popcount the paper computes with _mm512_cmpgt_epi32_mask +
// _mm_popcnt_u32.

// func countLess16AVX2(blk *[16]int32, pivot int32) int32
TEXT ·countLess16AVX2(SB), NOSPLIT, $0-20
	MOVQ         blk+0(FP), DI
	MOVL         pivot+8(FP), AX
	MOVQ         AX, X0
	VPBROADCASTD X0, Y0
	VMOVDQU      (DI), Y1
	VMOVDQU      32(DI), Y2
	VPCMPGTD     Y1, Y0, Y1      // lanes: pivot > blk[0:8]
	VPCMPGTD     Y2, Y0, Y2      // lanes: pivot > blk[8:16]
	VPMOVMSKB    Y1, AX
	VPMOVMSKB    Y2, BX
	POPCNTL      AX, AX          // 4 mask bits per matching lane
	POPCNTL      BX, BX
	ADDL         BX, AX
	SHRL         $2, AX
	MOVL         AX, ret+16(FP)
	VZEROUPPER
	RET

// func countLess16AVX512(blk *[16]int32, pivot int32) int32
TEXT ·countLess16AVX512(SB), NOSPLIT, $0-20
	MOVQ         blk+0(FP), DI
	MOVL         pivot+8(FP), AX
	MOVQ         AX, X0
	VPBROADCASTD X0, Z0
	VMOVDQU32    (DI), Z1
	VPCMPGTD     Z1, Z0, K1      // k1 bit i: pivot > blk[i]
	KMOVW        K1, AX
	POPCNTL      AX, AX
	MOVL         AX, ret+16(FP)
	VZEROUPPER
	RET
