#include "textflag.h"

// func accumSegmentsAVX2(out, x, b []float64, ends []int)
//
// The output row is walked in column blocks — 32 columns in eight YMM
// accumulators while 32 remain, then at most one block of 16 in four, then 4
// columns in one, then single columns. For each block, x is read in chunks
// of 64 coefficients: VCMPPD (not-equal, unordered true) against zero and
// VMOVMSKPD turn each four into mask bits, set for a live coefficient — a
// NaN is live, ±0 are not — and the last 0–3 coefficients of x are tested
// one by one (their bits shifted left by one are zero for ±0 only). The
// segments are then cut out of the chunk's mask in order, and each segment's
// live coefficients are visited by lowest set bit (BSFQ), with no branch per
// coefficient: each is broadcast, multiplied into its row's block of b with
// VMULPD and added with VADDPD. BSFQ leaves its destination unchanged when
// the source is zero, so it depends on the destination's old value; the
// XORQ before it breaks that chain from one coefficient to the next. The
// multiply and the add stay separate instructions: a fused multiply-add
// rounds once where the Go reference rounds twice. The accumulators start
// from +0, so each segment's sums are formed on their own; at the segment's
// end the destination's block is added to them (VADDPD, or VADDSD for a
// single column), they are stored, and they are zeroed for the next segment.
// A segment that runs past its chunk keeps its accumulators into the next
// one.
//
// Registers: DI out block, SI x, R8 b's column block, R9 bytes per row of b,
// DX len(x), R11 columns left, R12 ends, R13 len(ends), R14 segment, R15
// first coefficient of the chunk, BX the chunk's live coefficients not yet
// visited, R10 the segment's live coefficients in the chunk (scratch while
// the chunk's mask is built); AX and CX are scratch, CX being the shift
// count.
TEXT ·accumSegmentsAVX2(SB), NOSPLIT, $0-96
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), R11
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), DX
	MOVQ b_base+48(FP), R8
	MOVQ ends_base+72(FP), R12
	MOVQ ends_len+80(FP), R13
	MOVQ R11, R9
	SHLQ $3, R9

block:
	TESTQ  R11, R11
	JZ     done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   R14, R14
	XORQ   R15, R15

chunk:
	// BX = the live coefficients among x[c0 : min(c0+64, len(x))], built
	// from the chunk's last coefficient down: the 0–3 past its last four
	// (only at the end of x) one by one, then four at a time.
	XORQ   BX, BX
	MOVQ   DX, R10
	SUBQ   R15, R10
	CMPQ   R10, $64
	JLE    chunklen
	MOVQ   $64, R10

chunklen:
	LEAQ   (R15)(R10*1), AX
	LEAQ   (SI)(AX*8), AX
	ANDQ   $3, R10
	VXORPD Y10, Y10, Y10

single:
	TESTQ   R10, R10
	JZ      quads
	SUBQ    $8, AX
	MOVQ    (AX), CX
	SHLQ    $1, CX
	SETNE   CL
	MOVBQZX CL, CX
	SHLQ    $1, BX
	ORQ     CX, BX
	DECQ    R10
	JMP     single

quads:
	LEAQ (SI)(R15*8), CX

four:
	CMPQ      AX, CX
	JLE       segment
	SUBQ      $32, AX
	VCMPPD    $4, (AX), Y10, Y9
	VMOVMSKPD Y9, R10
	SHLQ      $4, BX
	ORQ       R10, BX
	JMP       four

segment:
	CMPQ R14, R13
	JGE  nextblock
	MOVQ (R12)(R14*8), CX
	SUBQ R15, CX
	CMPQ CX, $64
	JGE  wholechunk
	MOVQ $1, R10
	SHLQ CX, R10
	DECQ R10
	ANDQ BX, R10
	XORQ R10, BX
	JMP  walk

wholechunk:
	MOVQ BX, R10
	XORQ BX, BX

walk:
	TESTQ R10, R10
	JZ    walked
	CMPQ  R11, $32
	JGE   walk32
	CMPQ  R11, $16
	JGE   walk16
	CMPQ  R11, $4
	JGE   walk4

walk1:
	XORQ   AX, AX
	BSFQ   R10, AX
	LEAQ   -1(R10), CX
	ANDQ   CX, R10
	ADDQ   R15, AX
	VMOVSD (SI)(AX*8), X8
	IMULQ  R9, AX
	VMULSD (R8)(AX*1), X8, X9
	VADDSD X9, X0, X0
	TESTQ  R10, R10
	JNZ    walk1
	JMP    walked

walk4:
	XORQ         AX, AX
	BSFQ         R10, AX
	LEAQ         -1(R10), CX
	ANDQ         CX, R10
	ADDQ         R15, AX
	VBROADCASTSD (SI)(AX*8), Y8
	IMULQ        R9, AX
	VMULPD       (R8)(AX*1), Y8, Y9
	VADDPD       Y9, Y0, Y0
	TESTQ        R10, R10
	JNZ          walk4
	JMP          walked

walk16:
	XORQ         AX, AX
	BSFQ         R10, AX
	LEAQ         -1(R10), CX
	ANDQ         CX, R10
	ADDQ         R15, AX
	VBROADCASTSD (SI)(AX*8), Y8
	IMULQ        R9, AX
	ADDQ         R8, AX
	VMULPD       (AX), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(AX), Y8, Y9
	VADDPD       Y9, Y1, Y1
	VMULPD       64(AX), Y8, Y9
	VADDPD       Y9, Y2, Y2
	VMULPD       96(AX), Y8, Y9
	VADDPD       Y9, Y3, Y3
	TESTQ        R10, R10
	JNZ          walk16
	JMP          walked

walk32:
	XORQ         AX, AX
	BSFQ         R10, AX
	LEAQ         -1(R10), CX
	ANDQ         CX, R10
	ADDQ         R15, AX
	VBROADCASTSD (SI)(AX*8), Y8
	IMULQ        R9, AX
	ADDQ         R8, AX
	VMULPD       (AX), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(AX), Y8, Y9
	VADDPD       Y9, Y1, Y1
	VMULPD       64(AX), Y8, Y9
	VADDPD       Y9, Y2, Y2
	VMULPD       96(AX), Y8, Y9
	VADDPD       Y9, Y3, Y3
	VMULPD       128(AX), Y8, Y9
	VADDPD       Y9, Y4, Y4
	VMULPD       160(AX), Y8, Y9
	VADDPD       Y9, Y5, Y5
	VMULPD       192(AX), Y8, Y9
	VADDPD       Y9, Y6, Y6
	VMULPD       224(AX), Y8, Y9
	VADDPD       Y9, Y7, Y7
	TESTQ        R10, R10
	JNZ          walk32

walked:
	// A segment that runs past this chunk goes on in the next one;
	// otherwise it is complete.
	MOVQ (R12)(R14*8), AX
	SUBQ R15, AX
	CMPQ AX, $64
	JLT  store
	ADDQ $64, R15
	JMP  chunk

store:
	INCQ R14
	CMPQ R11, $32
	JGE  store32
	CMPQ R11, $16
	JGE  store16
	CMPQ R11, $4
	JGE  store4
	VADDSD (DI), X0, X0
	VMOVSD X0, (DI)
	VXORPD Y0, Y0, Y0
	JMP    segment

store4:
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	VXORPD  Y0, Y0, Y0
	JMP     segment

store16:
	VADDPD  (DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VADDPD  64(DI), Y2, Y2
	VADDPD  96(DI), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	JMP     segment

store32:
	VADDPD  (DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VADDPD  64(DI), Y2, Y2
	VADDPD  96(DI), Y3, Y3
	VADDPD  128(DI), Y4, Y4
	VADDPD  160(DI), Y5, Y5
	VADDPD  192(DI), Y6, Y6
	VADDPD  224(DI), Y7, Y7
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7
	JMP     segment

nextblock:
	CMPQ R11, $32
	JLT  next16
	ADDQ $256, DI
	ADDQ $256, R8
	SUBQ $32, R11
	JMP  block

next16:
	CMPQ R11, $16
	JLT  next4
	ADDQ $128, DI
	ADDQ $128, R8
	SUBQ $16, R11
	JMP  block

next4:
	CMPQ R11, $4
	JLT  next1
	ADDQ $32, DI
	ADDQ $32, R8
	SUBQ $4, R11
	JMP  block

next1:
	ADDQ $8, DI
	ADDQ $8, R8
	DECQ R11
	JMP  block

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
