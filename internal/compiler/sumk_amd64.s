#include "textflag.h"

// func sumK(dst []float64, x *[maxSumTerms][]float64, c []float64)
//
// dst[i] = ((c[0]·x[0][i] + c[1]·x[1][i]) + c[2]·x[2][i]) … over the k =
// len(c) terms: 16 points at a time in four YMM accumulators, then 4, then
// one. Every lane performs the scalar loop's operations in its order — the
// product rounded, then the sum rounded, term by term — and no instruction
// fuses a multiply into an add. sumRows has checked k ≤ maxSumTerms and
// len(x[j]) ≥ len(dst) for every j < k, and lowering makes k ≥ 2 (any k ≥ 1
// would do); dst may equal an operand, since a block is loaded whole before
// it is stored.
TEXT ·sumK(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), BX
	MOVQ x+24(FP), SI
	MOVQ c_base+32(FP), DX
	MOVQ c_len+40(FP), CX
	IMULQ $24, CX
	ADDQ SI, CX // CX: end of the k operand slice headers
	XORQ AX, AX // AX: the point i

block16:
	LEAQ 16(AX), R11
	CMPQ R11, BX
	JGT  block4
	MOVQ (SI), R9
	LEAQ (R9)(AX*8), R9
	VBROADCASTSD (DX), Y4
	VMULPD (R9), Y4, Y0
	VMULPD 32(R9), Y4, Y1
	VMULPD 64(R9), Y4, Y2
	VMULPD 96(R9), Y4, Y3
	LEAQ 24(SI), R12
	LEAQ 8(DX), R13
	JMP  next16

term16:
	MOVQ (R12), R9
	LEAQ (R9)(AX*8), R9
	VBROADCASTSD (R13), Y4
	VMULPD (R9), Y4, Y5
	VMULPD 32(R9), Y4, Y6
	VMULPD 64(R9), Y4, Y7
	VMULPD 96(R9), Y4, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $24, R12
	ADDQ $8, R13

next16:
	CMPQ R12, CX
	JNE  term16
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	MOVQ R11, AX
	JMP  block16

block4:
	LEAQ 4(AX), R11
	CMPQ R11, BX
	JGT  tail
	MOVQ (SI), R9
	VBROADCASTSD (DX), Y4
	VMULPD (R9)(AX*8), Y4, Y0
	LEAQ 24(SI), R12
	LEAQ 8(DX), R13
	JMP  next4

term4:
	MOVQ (R12), R9
	VBROADCASTSD (R13), Y4
	VMULPD (R9)(AX*8), Y4, Y5
	VADDPD Y5, Y0, Y0
	ADDQ $24, R12
	ADDQ $8, R13

next4:
	CMPQ R12, CX
	JNE  term4
	VMOVUPD Y0, (DI)(AX*8)
	MOVQ R11, AX
	JMP  block4

tail:
	CMPQ AX, BX
	JGE  done
	MOVQ (SI), R9
	VMOVSD (DX), X4
	VMULSD (R9)(AX*8), X4, X0
	LEAQ 24(SI), R12
	LEAQ 8(DX), R13
	JMP  next1

term1:
	MOVQ (R12), R9
	VMOVSD (R13), X4
	VMULSD (R9)(AX*8), X4, X5
	VADDSD X5, X0, X0
	ADDQ $24, R12
	ADDQ $8, R13

next1:
	CMPQ R12, CX
	JNE  term1
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	JMP  tail

done:
	VZEROUPPER
	RET

// func hasAVX2() bool
//
// CPUID leaf 7 reports AVX2 (EBX bit 5), leaf 1 that the OS manages extended
// state (ECX bit 27, OSXSAVE), and XCR0 that it saves the XMM and YMM
// registers across context switches (bits 1 and 2).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	BTL  $27, CX
	JCC  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVB $1, ret+0(FP)

no:
	RET
