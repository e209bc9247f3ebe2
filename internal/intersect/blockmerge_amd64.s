//go:build amd64

#include "textflag.h"

// The two bodies of the block-merge kernel (blockmerge.go has the
// algorithm and the bound arithmetic). They differ only in lane count and
// in how a lane mask is held: K registers under AVX-512, a vector for
// VPMASKMOVD plus a bit mask in R11 under AVX2.
//
// Registers:
//	DI  &a[0]                 R8   len(a)
//	SI  &b[j]                 R9   r = len(b) - j
//	DX  s = dv - c            R10  i, a's cursor: the block's start
//	R12 the block's last value  R13  the block's end
//	BX  skip steps            AX, CX  scratch

// Exit kinds; the same values as the constants in blockmerge.go.
#define EXIT_EXHAUSTED 0
#define EXIT_CN 1
#define EXIT_LONG 2
#define EXIT_SHORT 3

// Lane indexes 0..7, the AVX2 body's source of tail masks.
DATA laneIndex<>+0(SB)/4, $0
DATA laneIndex<>+4(SB)/4, $1
DATA laneIndex<>+8(SB)/4, $2
DATA laneIndex<>+12(SB)/4, $3
DATA laneIndex<>+16(SB)/4, $4
DATA laneIndex<>+20(SB)/4, $5
DATA laneIndex<>+24(SB)/4, $6
DATA laneIndex<>+28(SB)/4, $7
GLOBL laneIndex<>(SB), RODATA|NOPTR, $32

// func blockMerge16(a, b []int32, c int32) (exit, blocks, scanned int)
TEXT ·blockMerge16(SB), NOSPLIT, $0-80
	MOVQ    a_base+0(FP), DI
	MOVQ    a_len+8(FP), R8
	MOVQ    b_base+24(FP), SI
	MOVQ    b_len+32(FP), R9
	MOVLQSX c+48(FP), AX
	LEAQ    2(R9), DX
	SUBQ    AX, DX
	XORQ    R10, R10
	XORQ    BX, BX

load16:
	// The block: min(len(a)-i, 16) lanes from a[i], lane mask in K2. A
	// skip that ran off a's end loads no lanes, and x, past a's last
	// value, leaves at once for exhausted16.
	MOVQ        R8, CX
	SUBQ        R10, CX
	MOVQ        $16, AX
	CMPQ        CX, AX
	CMOVQHI     AX, CX
	LEAQ        (R10)(CX*1), R13
	MOVL        -4(DI)(R13*4), R12
	MOVL        $1, AX
	SHLL        CX, AX
	DECL        AX
	KMOVW       AX, K2
	VMOVDQU32.Z (DI)(R10*4), K2, Z1

elem16:
	// x = b[j] past the block: leave it. Else cn += [x in block],
	// s += [x in block] - 1, and go on while 0 ≤ s < r.
	MOVL         (SI), AX
	CMPL         AX, R12
	JGT          leave16
	VPBROADCASTD (SI), Z2
	VPCMPEQD     Z1, Z2, K2, K1
	KMOVW        K1, AX
	POPCNTL      AX, AX
	LEAQ         -1(DX)(AX*1), DX
	ADDQ         $4, SI
	DECQ         R9
	CMPQ         DX, R9
	JCS          elem16

	// cn ≥ c (s ≥ r), else b ran out (r = 0), else dv < c.
	MOVQ  $EXIT_CN, AX
	CMPQ  DX, R9
	JGE   done16
	MOVQ  $EXIT_EXHAUSTED, AX
	TESTQ R9, R9
	JEQ   done16
	MOVQ  $EXIT_SHORT, AX
	JMP   done16

leave16:
	MOVQ R13, R10

skip16:
	// a ran out, else du < c (len(a) - i + s < r), else count the lanes
	// of the next block below x and step over them.
	MOVQ         R8, CX
	SUBQ         R10, CX
	JEQ          exhausted16
	LEAQ         (CX)(DX*1), AX
	CMPQ         AX, R9
	JLT          long16
	MOVQ         $16, AX
	CMPQ         CX, AX
	CMOVQHI      AX, CX
	MOVL         $1, AX
	SHLL         CX, AX
	DECL         AX
	KMOVW        AX, K3
	VMOVDQU32.Z  (DI)(R10*4), K3, Z3
	VPBROADCASTD (SI), Z2
	VPCMPGTD     Z3, Z2, K3, K1
	KMOVW        K1, AX
	POPCNTL      AX, AX
	INCQ         BX
	ADDQ         AX, R10
	CMPQ         AX, $16
	JEQ          skip16
	JMP          load16

exhausted16:
	MOVQ $EXIT_EXHAUSTED, AX
	JMP  done16

long16:
	MOVQ $EXIT_LONG, AX

done16:
	MOVQ       AX, exit+56(FP)
	MOVQ       b_len+32(FP), CX
	SUBQ       R9, CX
	LEAQ       (BX)(CX*1), AX
	MOVQ       AX, blocks+64(FP)
	ADDQ       R10, CX
	MOVQ       CX, scanned+72(FP)
	VZEROUPPER
	RET

// func blockMerge8(a, b []int32, c int32) (exit, blocks, scanned int)
TEXT ·blockMerge8(SB), NOSPLIT, $0-80
	MOVQ    a_base+0(FP), DI
	MOVQ    a_len+8(FP), R8
	MOVQ    b_base+24(FP), SI
	MOVQ    b_len+32(FP), R9
	MOVLQSX c+48(FP), AX
	LEAQ    2(R9), DX
	SUBQ    AX, DX
	XORQ    R10, R10
	XORQ    BX, BX
	VMOVDQU laneIndex<>(SB), Y6

load8:
	// The block: min(len(a)-i, 8) lanes from a[i], lane mask in Y4 and
	// as bits in R11. VMOVQ, not MOVQ: a legacy-SSE instruction while the
	// Y registers' upper halves are dirty made this body 6–20x slower.
	MOVQ         R8, CX
	SUBQ         R10, CX
	MOVQ         $8, AX
	CMPQ         CX, AX
	CMOVQHI      AX, CX
	LEAQ         (R10)(CX*1), R13
	MOVL         -4(DI)(R13*4), R12
	VMOVQ        CX, X4
	VPBROADCASTD X4, Y4
	VPCMPGTD     Y6, Y4, Y4
	VPMASKMOVD   (DI)(R10*4), Y4, Y1
	VMOVMSKPS    Y4, R11

elem8:
	MOVL         (SI), AX
	CMPL         AX, R12
	JGT          leave8
	VPBROADCASTD (SI), Y2
	VPCMPEQD     Y1, Y2, Y3
	VMOVMSKPS    Y3, AX
	ANDL         R11, AX
	POPCNTL      AX, AX
	LEAQ         -1(DX)(AX*1), DX
	ADDQ         $4, SI
	DECQ         R9
	CMPQ         DX, R9
	JCS          elem8

	MOVQ  $EXIT_CN, AX
	CMPQ  DX, R9
	JGE   done8
	MOVQ  $EXIT_EXHAUSTED, AX
	TESTQ R9, R9
	JEQ   done8
	MOVQ  $EXIT_SHORT, AX
	JMP   done8

leave8:
	MOVQ R13, R10

skip8:
	MOVQ         R8, CX
	SUBQ         R10, CX
	JEQ          exhausted8
	LEAQ         (CX)(DX*1), AX
	CMPQ         AX, R9
	JLT          long8
	MOVQ         $8, AX
	CMPQ         CX, AX
	CMOVQHI      AX, CX
	VMOVQ        CX, X5
	VPBROADCASTD X5, Y5
	VPCMPGTD     Y6, Y5, Y5
	VPMASKMOVD   (DI)(R10*4), Y5, Y3
	VPBROADCASTD (SI), Y2
	VPCMPGTD     Y3, Y2, Y3
	VPAND        Y5, Y3, Y3
	VMOVMSKPS    Y3, AX
	POPCNTL      AX, AX
	INCQ         BX
	ADDQ         AX, R10
	CMPQ         AX, $8
	JEQ          skip8
	JMP          load8

exhausted8:
	MOVQ $EXIT_EXHAUSTED, AX
	JMP  done8

long8:
	MOVQ $EXIT_LONG, AX

done8:
	MOVQ       AX, exit+56(FP)
	MOVQ       b_len+32(FP), CX
	SUBQ       R9, CX
	LEAQ       (BX)(CX*1), AX
	MOVQ       AX, blocks+64(FP)
	ADDQ       R10, CX
	MOVQ       CX, scanned+72(FP)
	VZEROUPPER
	RET
