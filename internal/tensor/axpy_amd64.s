//go:build amd64 && !purego

#include "textflag.h"

// Every kernel here computes y[j] = y[j] + (a*x[j]) per term: one rounded
// VMULPD/VMULSD, then one rounded VADDPD/VADDSD, never VFMADD, terms in the
// same order as the portable loops in axpy.go — so the bits are theirs.

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV               // XCR0 into DX:AX
	ANDL $6, AX          // XMM (bit 1) and YMM (bit 2) state saved by the OS
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func axpyAVX(a float64, x, y []float64)
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	VBROADCASTSD a+0(FP), Y0

loop8:
	CMPQ    CX, $8
	JLT     tail4
	VMULPD  (SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JMP     loop8

tail4:
	CMPQ    CX, $4
	JLT     tail1
	VMULPD  (SI), Y0, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX

tail1:
	TESTQ  CX, CX
	JEQ    done
	VMULSD (SI), X0, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    tail1

done:
	VZEROUPPER
	RET

// func axpyRowsAVX(y, x, w []float64, stride int)
//
// Register use: DI = &y[j], CX = columns left, SI = &x[0], BX = len(x),
// DX = &w[j] (row 0 of the current panel), R8 = stride in bytes; per panel
// R9 = &x[k], R10 = &w[k*stride+j], R11 = rows left.
TEXT ·axpyRowsAVX(SB), NOSPLIT, $0-80
	MOVQ  y_base+0(FP), DI
	MOVQ  y_len+8(FP), CX
	MOVQ  x_base+24(FP), SI
	MOVQ  x_len+32(FP), BX
	MOVQ  w_base+48(FP), DX
	MOVQ  stride+72(FP), R8
	SHLQ  $3, R8
	TESTQ BX, BX
	JEQ   rowsdone

panel16:
	CMPQ    CX, $16
	JLT     panel8
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VMOVUPD 64(DI), Y3
	VMOVUPD 96(DI), Y4
	MOVQ    SI, R9
	MOVQ    DX, R10
	MOVQ    BX, R11

rows16:
	VBROADCASTSD (R9), Y0
	VMULPD       (R10), Y0, Y5
	VMULPD       32(R10), Y0, Y6
	VMULPD       64(R10), Y0, Y7
	VMULPD       96(R10), Y0, Y8
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	VADDPD       Y7, Y3, Y3
	VADDPD       Y8, Y4, Y4
	ADDQ         $8, R9
	ADDQ         R8, R10
	DECQ         R11
	JNZ          rows16
	VMOVUPD      Y1, (DI)
	VMOVUPD      Y2, 32(DI)
	VMOVUPD      Y3, 64(DI)
	VMOVUPD      Y4, 96(DI)
	ADDQ         $128, DI
	ADDQ         $128, DX
	SUBQ         $16, CX
	JMP          panel16

panel8:
	CMPQ    CX, $8
	JLT     panel4
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	MOVQ    SI, R9
	MOVQ    DX, R10
	MOVQ    BX, R11

rows8:
	VBROADCASTSD (R9), Y0
	VMULPD       (R10), Y0, Y5
	VMULPD       32(R10), Y0, Y6
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	ADDQ         $8, R9
	ADDQ         R8, R10
	DECQ         R11
	JNZ          rows8
	VMOVUPD      Y1, (DI)
	VMOVUPD      Y2, 32(DI)
	ADDQ         $64, DI
	ADDQ         $64, DX
	SUBQ         $8, CX

panel4:
	CMPQ    CX, $4
	JLT     col1
	VMOVUPD (DI), Y1
	MOVQ    SI, R9
	MOVQ    DX, R10
	MOVQ    BX, R11

rows4:
	VBROADCASTSD (R9), Y0
	VMULPD       (R10), Y0, Y5
	VADDPD       Y5, Y1, Y1
	ADDQ         $8, R9
	ADDQ         R8, R10
	DECQ         R11
	JNZ          rows4
	VMOVUPD      Y1, (DI)
	ADDQ         $32, DI
	ADDQ         $32, DX
	SUBQ         $4, CX

col1:
	TESTQ  CX, CX
	JEQ    rowsdone
	VMOVSD (DI), X1
	MOVQ   SI, R9
	MOVQ   DX, R10
	MOVQ   BX, R11

rows1:
	VMOVSD (R9), X0
	VMULSD (R10), X0, X5
	VADDSD X5, X1, X1
	ADDQ   $8, R9
	ADDQ   R8, R10
	DECQ   R11
	JNZ    rows1
	VMOVSD X1, (DI)
	ADDQ   $8, DI
	ADDQ   $8, DX
	DECQ   CX
	JMP    col1

rowsdone:
	VZEROUPPER
	RET
