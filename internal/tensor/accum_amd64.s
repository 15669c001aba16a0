#include "textflag.h"

// func accumRowsAVX2(out, x, b []float64)
//
// The output row is walked in column blocks — 32 columns in eight YMM
// accumulators while 32 remain, then at most one block of 16 in four, then 4
// columns in one, then single columns — and for each
// block every p is visited in order: a zero x[p] (its bits shifted left by one
// are zero for ±0 only, so a NaN is kept) is skipped, any other is broadcast,
// multiplied into its row's block of b with VMULPD and added with VADDPD.
// The multiply and the add stay separate instructions: a fused multiply-add
// rounds once where the Go reference rounds twice. The accumulators start
// from +0, so each block's sums are formed on their own; only then, just
// before the store, is the destination's block added to them (VADDPD, or
// VADDSD for a single column). A sum from +0 is never −0 under
// round-to-nearest, so a destination of +0 receives the sum unchanged.
TEXT ·accumRowsAVX2(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), DX
	MOVQ b_base+48(FP), R8
	MOVQ CX, R9
	SHLQ $3, R9                  // R9 = bytes per row of b

block32:
	CMPQ CX, $32
	JLT  block16
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ R8, R10                 // R10 = &b[p, column]
	XORQ R11, R11                // R11 = p

loop32:
	CMPQ R11, DX
	JGE  store32
	MOVQ (SI)(R11*8), AX
	SHLQ $1, AX
	JZ   next32
	VBROADCASTSD (SI)(R11*8), Y8
	VMULPD (R10), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(R10), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(R10), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(R10), Y8, Y12
	VADDPD Y12, Y3, Y3
	VMULPD 128(R10), Y8, Y13
	VADDPD Y13, Y4, Y4
	VMULPD 160(R10), Y8, Y14
	VADDPD Y14, Y5, Y5
	VMULPD 192(R10), Y8, Y15
	VADDPD Y15, Y6, Y6
	VMULPD 224(R10), Y8, Y9
	VADDPD Y9, Y7, Y7

next32:
	ADDQ R9, R10
	INCQ R11
	JMP  loop32

store32:
	VADDPD (DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1
	VADDPD 64(DI), Y2, Y2
	VADDPD 96(DI), Y3, Y3
	VADDPD 128(DI), Y4, Y4
	VADDPD 160(DI), Y5, Y5
	VADDPD 192(DI), Y6, Y6
	VADDPD 224(DI), Y7, Y7
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, R8
	SUBQ $32, CX
	JMP  block32

block16:
	CMPQ CX, $16
	JLT  block4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ R8, R10
	XORQ R11, R11

loop16:
	CMPQ R11, DX
	JGE  store16
	MOVQ (SI)(R11*8), AX
	SHLQ $1, AX
	JZ   next16
	VBROADCASTSD (SI)(R11*8), Y8
	VMULPD (R10), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(R10), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(R10), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(R10), Y8, Y12
	VADDPD Y12, Y3, Y3

next16:
	ADDQ R9, R10
	INCQ R11
	JMP  loop16

store16:
	VADDPD (DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1
	VADDPD 64(DI), Y2, Y2
	VADDPD 96(DI), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, R8
	SUBQ $16, CX

block4:
	CMPQ CX, $4
	JLT  block1
	VXORPD Y0, Y0, Y0
	MOVQ R8, R10
	XORQ R11, R11

loop4:
	CMPQ R11, DX
	JGE  store4
	MOVQ (SI)(R11*8), AX
	SHLQ $1, AX
	JZ   next4
	VBROADCASTSD (SI)(R11*8), Y8
	VMULPD (R10), Y8, Y9
	VADDPD Y9, Y0, Y0

next4:
	ADDQ R9, R10
	INCQ R11
	JMP  loop4

store4:
	VADDPD (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, R8
	SUBQ $4, CX
	JMP  block4

block1:
	TESTQ CX, CX
	JZ    done
	VXORPD X0, X0, X0
	MOVQ  R8, R10
	XORQ  R11, R11

loop1:
	CMPQ R11, DX
	JGE  store1
	MOVQ (SI)(R11*8), AX
	SHLQ $1, AX
	JZ   next1
	VMOVSD (SI)(R11*8), X8
	VMULSD (R10), X8, X9
	VADDSD X9, X0, X0

next1:
	ADDQ R9, R10
	INCQ R11
	JMP  loop1

store1:
	VADDSD (DI), X0, X0
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, R8
	DECQ CX
	JMP  block1

done:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
